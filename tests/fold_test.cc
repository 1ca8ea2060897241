// Duplicate-signature folding suite: SignatureIndex semantics, the
// weighted-objective identity that makes folding exact (the folded
// multiplicity-weighted cost of a partition equals the unfolded cost of
// its expansion), and the end-to-end property that every aggregation
// algorithm returns the same clustering and the same E_D with folding on
// and off — on duplicate-heavy fixtures with and without missing labels
// and non-uniform clustering weights.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/signature_index.h"
#include "stream/stream_aggregator.h"

namespace clustagg {
namespace {

// ------------------------------------------------------------ fixtures

/// m clusterings that all equal the planted partition given by
/// `group_of`, so every within-group distance is 0 and every cross-group
/// distance is 1: the one fixture every algorithm — greedy, hierarchical,
/// randomized, annealed, exact — provably recovers, folded or not.
/// Objects of a group share their full label tuple, so the signature
/// groups are exactly the planted clusters.
ClusteringSet PlantedInput(const std::vector<std::size_t>& group_of,
                           std::size_t m,
                           const std::vector<double>& weights = {},
                           bool missing_group0_in_first = false) {
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(group_of.size());
    for (std::size_t v = 0; v < group_of.size(); ++v) {
      // Optionally blank out group 0 in the first clustering (the whole
      // group, so tuples stay identical within it): exercises signatures
      // that contain the missing sentinel.
      if (missing_group0_in_first && i == 0 && group_of[v] == 0) {
        labels[v] = Clustering::kMissing;
      } else {
        labels[v] = static_cast<Clustering::Label>(group_of[v]);
      }
    }
    clusterings.emplace_back(std::move(labels));
  }
  std::vector<double> w = weights;
  return *ClusteringSet::Create(std::move(clusterings), std::move(w));
}

/// Planted group assignment with distinct group sizes (ties between
/// clusters would make move-based sweeps order-dependent), interleaved so
/// duplicate groups are not contiguous in object id.
std::vector<std::size_t> PlantedGroups(std::size_t n, std::size_t g) {
  std::vector<std::size_t> group_of(n);
  // Distinct sizes 1c, 2c, 3c, ... scaled to sum to ~n; remainder goes to
  // the last (largest) group.
  const std::size_t unit = n / (g * (g + 1) / 2);
  std::vector<std::size_t> sizes(g);
  std::size_t used = 0;
  for (std::size_t c = 0; c + 1 < g; ++c) {
    sizes[c] = unit * (c + 1);
    used += sizes[c];
  }
  sizes[g - 1] = n - used;
  std::size_t v = 0;
  for (std::size_t c = 0; c < g; ++c) {
    for (std::size_t i = 0; i < sizes[c]; ++i) group_of[v++] = c;
  }
  // Interleave deterministically.
  Rng rng(99);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(group_of[i - 1], group_of[rng.NextBounded(i)]);
  }
  return group_of;
}

/// Noisy duplicated input: `base_n` random distinct signatures, each
/// repeated `copies` times (interleaved), with optional missing labels
/// and non-uniform clustering weights. Distances are generic (not 0/1),
/// so this is the fixture for arithmetic identities, not for expecting a
/// particular clustering.
ClusteringSet NoisyDuplicatedInput(std::size_t base_n, std::size_t copies,
                                   std::size_t m, std::size_t k,
                                   std::uint64_t seed,
                                   double missing_rate = 0.0,
                                   bool weighted = false) {
  Rng rng(seed);
  const std::size_t n = base_n * copies;
  std::vector<Clustering> clusterings;
  std::vector<double> weights;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> base(base_n);
    for (std::size_t b = 0; b < base_n; ++b) {
      base[b] = rng.NextBernoulli(missing_rate)
                    ? Clustering::kMissing
                    : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) labels[v] = base[v % base_n];
    clusterings.emplace_back(std::move(labels));
    if (weighted) weights.push_back(0.5 + rng.NextDouble());
  }
  return *ClusteringSet::Create(std::move(clusterings), std::move(weights));
}

// ------------------------------------------------- SignatureIndex unit

TEST(SignatureIndexTest, GroupsIdenticalTuplesAndCountsMultiplicities) {
  // Objects 0/2/4 share one signature, 1/3 another, 5 its own.
  Clustering a({0, 1, 0, 1, 0, 1});
  Clustering b({2, 3, 2, 3, 2, 2});
  const ClusteringSet input = *ClusteringSet::Create({a, b});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_EQ(index.num_objects(), 6u);
  EXPECT_EQ(index.num_signatures(), 3u);
  EXPECT_FALSE(index.trivial());
  EXPECT_DOUBLE_EQ(index.fold_ratio(), 0.5);
  // Representatives are first occurrences, in ascending object order.
  EXPECT_EQ(index.representatives(), (std::vector<std::size_t>{0, 1, 5}));
  EXPECT_EQ(index.signature_of(0), 0u);
  EXPECT_EQ(index.signature_of(2), 0u);
  EXPECT_EQ(index.signature_of(4), 0u);
  EXPECT_EQ(index.signature_of(1), 1u);
  EXPECT_EQ(index.signature_of(3), 1u);
  EXPECT_EQ(index.signature_of(5), 2u);
  EXPECT_EQ(index.multiplicities(), (std::vector<double>{3.0, 2.0, 1.0}));
}

TEST(SignatureIndexTest, MissingLabelsArePartOfTheSignature) {
  // Objects 0 and 1 agree wherever both are labeled, but 1 is missing in
  // the second clustering: different signatures, no fold.
  Clustering a({0, 0});
  Clustering b({1, Clustering::kMissing});
  const ClusteringSet input = *ClusteringSet::Create({a, b});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_EQ(index.num_signatures(), 2u);
  EXPECT_TRUE(index.trivial());
  // Two objects both missing in the same place do share a signature.
  Clustering c({0, 0});
  Clustering d({Clustering::kMissing, Clustering::kMissing});
  const ClusteringSet pair = *ClusteringSet::Create({c, d});
  EXPECT_EQ(SignatureIndex::Build(pair).num_signatures(), 1u);
}

TEST(SignatureIndexTest, TrivialWhenAllObjectsAreUnique) {
  Clustering a({0, 1, 2, 3});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const SignatureIndex index = SignatureIndex::Build(input);
  EXPECT_TRUE(index.trivial());
  EXPECT_EQ(index.num_signatures(), 4u);
  EXPECT_DOUBLE_EQ(index.fold_ratio(), 1.0);
  EXPECT_EQ(index.multiplicities(),
            (std::vector<double>{1.0, 1.0, 1.0, 1.0}));
}

TEST(SignatureIndexTest, IdentityIsTheTrivialFold) {
  const SignatureIndex identity = SignatureIndex::Identity(4);
  EXPECT_TRUE(identity.trivial());
  EXPECT_EQ(identity.num_objects(), 4u);
  EXPECT_EQ(identity.representatives(),
            (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(identity.multiplicities(), (std::vector<double>(4, 1.0)));
  for (std::size_t v = 0; v < 4; ++v) EXPECT_EQ(identity.signature_of(v), v);
  // Fold keeps the labels as they are; Expand only normalizes them, so a
  // normalized clustering survives the round trip label for label.
  const Clustering labels({2, 0, 2, 1});
  EXPECT_EQ(identity.Fold(labels), labels);
  EXPECT_EQ(identity.Expand(labels), labels.Normalized());
  EXPECT_EQ(identity.Fold(identity.Expand(labels)), labels.Normalized());
  // Build of an all-unique input is the identity, and BuildFolded over
  // the identity is the plain instance: no multiplicities, same bits.
  const ClusteringSet input = *ClusteringSet::Create(
      {Clustering({3, 1, 0, 2}), Clustering({0, 0, 1, 1})});
  const SignatureIndex built = SignatureIndex::Build(input);
  EXPECT_EQ(built.representatives(), identity.representatives());
  EXPECT_EQ(built.multiplicities(), identity.multiplicities());
  const CorrelationInstance plain = *CorrelationInstance::Build(input);
  const CorrelationInstance folded =
      *CorrelationInstance::BuildFolded(input, identity);
  EXPECT_FALSE(folded.folded());
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t v = 0; v < 4; ++v) {
      EXPECT_EQ(folded.distance(u, v), plain.distance(u, v));
    }
  }
  EXPECT_EQ(folded.LowerBound(), plain.LowerBound());
}

TEST(SignatureIndexTest, ForRunFoldsOnlyWhenAskedAndEveryGroupFitsTheCap) {
  // Objects 0, 1 and 2 share a signature; object 3 is alone.
  const ClusteringSet input =
      *ClusteringSet::Create({Clustering({0, 0, 0, 1})});
  std::size_t signatures = 0;
  const SignatureIndex off =
      SignatureIndex::ForRun(input, {}, /*fold=*/false, 0, nullptr,
                             &signatures);
  EXPECT_TRUE(off.trivial());
  EXPECT_EQ(off.num_objects(), 4u);
  EXPECT_EQ(signatures, 0u);
  const SignatureIndex on =
      SignatureIndex::ForRun(input, {}, /*fold=*/true, 3, nullptr,
                             &signatures);
  EXPECT_EQ(on.num_signatures(), 2u);
  EXPECT_EQ(signatures, 2u);
  // A group of 3 does not fit a cap of 2 and is never split, so the run
  // uses the identity; the signatures found are still reported.
  signatures = 0;
  const SignatureIndex capped =
      SignatureIndex::ForRun(input, {}, /*fold=*/true, 2, nullptr,
                             &signatures);
  EXPECT_TRUE(capped.trivial());
  EXPECT_EQ(capped.num_objects(), 4u);
  EXPECT_EQ(signatures, 2u);
}

TEST(SignatureIndexTest, RestrictedInputIndexesInLocalSpace) {
  // Global signature structure: 0/2/4 identical, 1/3 identical.
  Clustering a({0, 1, 0, 1, 0, 2});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const std::vector<std::size_t> subset = {1, 2, 4};
  const SignatureIndex index = SignatureIndex::Build(input.Restrict(subset));
  EXPECT_EQ(index.num_objects(), 3u);
  EXPECT_EQ(index.num_signatures(), 2u);
  // Representatives and signature_of both live in the restricted input's
  // object space: local 0 is object 1, locals 1 and 2 are objects 2 and 4.
  EXPECT_EQ(index.representatives(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(index.signature_of(0), 0u);
  EXPECT_EQ(index.signature_of(1), 1u);
  EXPECT_EQ(index.signature_of(2), 1u);
  EXPECT_EQ(index.multiplicities(), (std::vector<double>{1.0, 2.0}));
}

TEST(SignatureIndexTest, ExpandMapsSignatureLabelsBackToObjects) {
  Clustering a({0, 1, 0, 1, 0, 2});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const SignatureIndex index = SignatureIndex::Build(input);
  ASSERT_EQ(index.num_signatures(), 3u);
  // Fold signatures {0,2} together, 1 alone; expansion follows
  // signature_of and comes back normalized.
  const Clustering folded({0, 1, 0});
  const Clustering expanded = index.Expand(folded);
  EXPECT_EQ(expanded, Clustering({0, 1, 0, 1, 0, 0}));
}

TEST(SignatureIndexTest, FoldInvertsExpand) {
  Clustering a({0, 1, 0, 1, 0, 2});
  const ClusteringSet input = *ClusteringSet::Create({a});
  const SignatureIndex index = SignatureIndex::Build(input);
  ASSERT_EQ(index.num_signatures(), 3u);
  // Representatives are first occurrences, so a normalized clustering of
  // the signatures survives the round trip label for label.
  for (const Clustering& folded :
       {Clustering({0, 1, 0}), Clustering({0, 1, 2}), Clustering({0, 0, 0})}) {
    EXPECT_EQ(index.Fold(index.Expand(folded)), folded);
  }
  // Fold reads each signature's label off its representative and keeps
  // the labels as they are.
  EXPECT_EQ(index.Fold(Clustering({7, 3, 7, 3, 7, 7})), Clustering({7, 3, 7}));
}

TEST(SignatureIndexTest, BuildFoldedMatchesPairwiseDistanceBitForBit) {
  // Object g of the folded instance is representative g of the original
  // input: its distances are float(PairwiseDistance) on the original
  // objects under either policy, with and without weights and missing
  // labels, on both backends; the multiplicities are the group sizes.
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  for (const MissingValueOptions& missing :
       {MissingValueOptions{}, ignore}) {
    for (bool weighted : {false, true}) {
      const ClusteringSet input =
          NoisyDuplicatedInput(10, 3, 4, 3, 17, 0.2, weighted);
      const SignatureIndex index = SignatureIndex::Build(input);
      ASSERT_FALSE(index.trivial());
      const std::vector<std::size_t>& reps = index.representatives();
      for (DistanceBackend backend :
           {DistanceBackend::kDense, DistanceBackend::kLazy}) {
        Result<CorrelationInstance> folded = CorrelationInstance::BuildFolded(
            input, index, missing, {backend, 1, {}});
        ASSERT_TRUE(folded.ok()) << folded.status();
        ASSERT_EQ(folded->size(), index.num_signatures());
        EXPECT_TRUE(folded->folded());
        EXPECT_EQ(folded->multiplicities(), index.multiplicities());
        for (std::size_t g = 0; g < reps.size(); ++g) {
          for (std::size_t h = 0; h < reps.size(); ++h) {
            const float expected = static_cast<float>(
                input.PairwiseDistance(reps[g], reps[h], missing));
            EXPECT_EQ(folded->distance(g, h), static_cast<double>(expected))
                << "pair (" << g << ", " << h << ")";
          }
        }
      }
    }
  }
}

// --------------------------------------------- weighted-cost identity

TEST(FoldExactnessTest, FoldedCostEqualsUnfoldedCostOfExpansion) {
  // For any partition P of the signatures, the multiplicity-weighted
  // folded cost must equal the plain cost of Expand(P) on the full
  // instance minus the intra-group pairs the folded instance omits, the
  // constant sum over groups of C(mult_g, 2) * X_gg. Without missing
  // labels X_gg is exactly 0; under kRandomCoin (p = 0.3) a group whose
  // rows miss a label has X_gg = (1 - p) * (missing weight) / W. Same for
  // the lower bound: a group is folded only when X_gg <= 1/2, so each
  // omitted pair's bound term is X_gg too. Summation order differs, so
  // this is a near-equality of doubles, not bit-identity.
  MissingValueOptions coin;
  coin.coin_together_probability = 0.3;
  const struct {
    const char* name;
    ClusteringSet input;
    MissingValueOptions missing;
    bool omits_pairs;
  } cases[] = {
      {"plain", NoisyDuplicatedInput(12, 4, 5, 3, 101, 0.0, false), {},
       false},
      {"weighted", NoisyDuplicatedInput(12, 4, 5, 3, 101, 0.0, true), {},
       false},
      {"missing_coin", NoisyDuplicatedInput(12, 4, 5, 3, 101, 0.2, false),
       coin, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const SignatureIndex index = SignatureIndex::Build(c.input, c.missing);
    ASSERT_FALSE(index.trivial());
    Result<CorrelationInstance> full = CorrelationInstance::Build(
        c.input, c.missing, {DistanceBackend::kDense, 0, {}});
    ASSERT_TRUE(full.ok());
    Result<CorrelationInstance> folded = CorrelationInstance::BuildFolded(
        c.input, index, c.missing, {DistanceBackend::kDense, 0, {}});
    ASSERT_TRUE(folded.ok());
    EXPECT_TRUE(folded->folded());
    // X_gg read off the full instance between the representative and
    // another member of its group.
    std::vector<double> self_distance(index.num_signatures(), 0.0);
    for (std::size_t v = 0; v < c.input.num_objects(); ++v) {
      const std::size_t g = index.signature_of(v);
      const std::size_t rep = index.representatives()[g];
      if (v != rep) self_distance[g] = full->distance(rep, v);
    }
    double omitted = 0.0;
    for (std::size_t g = 0; g < index.num_signatures(); ++g) {
      const double mult = index.multiplicities()[g];
      omitted += mult * (mult - 1.0) / 2.0 * self_distance[g];
    }
    EXPECT_EQ(omitted > 0.0, c.omits_pairs);
    Rng rng(7);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<Clustering::Label> labels(index.num_signatures());
      for (auto& l : labels) {
        l = static_cast<Clustering::Label>(rng.NextBounded(3));
      }
      const Clustering partition(std::move(labels));
      const double folded_cost = *folded->Cost(partition);
      const double full_cost = *full->Cost(index.Expand(partition));
      EXPECT_NEAR(folded_cost, full_cost - omitted,
                  1e-9 * (1.0 + std::abs(full_cost)));
    }
    EXPECT_NEAR(folded->LowerBound(), full->LowerBound() - omitted,
                1e-9 * (1.0 + full->LowerBound()));
  }
}

// ------------------------------------------------ end-to-end property

struct FoldCase {
  const char* name;
  ClusteringSet input;
  std::size_t expected_signatures;
};

std::vector<FoldCase> FoldCases() {
  const std::vector<std::size_t> groups = PlantedGroups(90, 4);
  std::vector<FoldCase> cases;
  cases.push_back({"planted", PlantedInput(groups, 4), 4});
  cases.push_back(
      {"planted_missing", PlantedInput(groups, 4, {}, true), 4});
  cases.push_back(
      {"planted_weighted",
       PlantedInput(groups, 4, {1.0, 2.0, 0.5, 1.5}), 4});
  return cases;
}

class FoldEquivalenceTest
    : public ::testing::TestWithParam<AggregationAlgorithm> {};

TEST_P(FoldEquivalenceTest, FoldOnAndOffAgreeOnPlantedFixtures) {
  // Every algorithm must produce the identical normalized clustering and
  // the identical E_D with folding on and off. The planted fixtures are
  // chosen so each algorithm deterministically recovers the planted
  // partition in both spaces (randomized algorithms traverse different
  // RNG sequences folded vs unfolded, so a generic noisy fixture could
  // not promise equality).
  const AggregationAlgorithm algorithm = GetParam();
  for (const FoldCase& c : FoldCases()) {
    for (DistanceBackend backend :
         {DistanceBackend::kDense, DistanceBackend::kLazy}) {
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.backend = backend;
      if (algorithm == AggregationAlgorithm::kExact) {
        // n = 90 is far beyond the exact cap, but s = 4 is trivial:
        // folding is exactly what makes EXACT reach this input. Disable
        // the fallback so the unfolded run errors instead of silently
        // comparing BALLS to EXACT.
        options.exact.max_objects = 4;
        options.allow_fallbacks = false;
        options.fold = true;
        Result<AggregationResult> folded = Aggregate(c.input, options);
        ASSERT_TRUE(folded.ok()) << c.name << ": " << folded.status();
        EXPECT_TRUE(folded->folded) << c.name;
        EXPECT_EQ(folded->fold_signatures, c.expected_signatures) << c.name;
        // The planted partition is the optimum; EXACT must find it.
        EXPECT_EQ(folded->total_disagreements,
                  *c.input.TotalDisagreements(folded->clustering))
            << c.name;
        EXPECT_EQ(folded->clustering.NumClusters(), 4u) << c.name;
        continue;
      }
      options.fold = false;
      Result<AggregationResult> plain = Aggregate(c.input, options);
      options.fold = true;
      Result<AggregationResult> folded = Aggregate(c.input, options);
      ASSERT_TRUE(plain.ok()) << c.name << ": " << plain.status();
      ASSERT_TRUE(folded.ok()) << c.name << ": " << folded.status();
      EXPECT_FALSE(plain->folded) << c.name;
      EXPECT_TRUE(folded->folded) << c.name;
      EXPECT_EQ(folded->fold_signatures, c.expected_signatures) << c.name;
      // Aggregate normalizes, so identical partitions are identical
      // label vectors; E_D is computed by the same reduction on the same
      // clustering, hence bit-identical.
      EXPECT_EQ(plain->clustering, folded->clustering) << c.name;
      EXPECT_EQ(plain->total_disagreements, folded->total_disagreements)
          << c.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, FoldEquivalenceTest,
    ::testing::Values(AggregationAlgorithm::kBalls,
                      AggregationAlgorithm::kAgglomerative,
                      AggregationAlgorithm::kFurthest,
                      AggregationAlgorithm::kLocalSearch,
                      AggregationAlgorithm::kPivot,
                      AggregationAlgorithm::kAnnealing,
                      AggregationAlgorithm::kMajority,
                      AggregationAlgorithm::kExact),
    [](const ::testing::TestParamInfo<AggregationAlgorithm>& info) {
      const char* name = AggregationAlgorithmName(info.param);
      return info.param == AggregationAlgorithm::kPivot ? "CCPIVOT" : name;
    });

TEST(FoldAggregateTest, ExactFoldedMatchesExactUnfoldedOnNoisyInput) {
  // 3 distinct signatures x 4 copies = 12 objects: small enough for the
  // unfolded exact solver, generic distances, unique optimum. Folded
  // EXACT searches only duplicate-preserving partitions — which contain
  // the optimum, because duplicates are at distance 0.
  const ClusteringSet input = NoisyDuplicatedInput(3, 4, 5, 3, 211);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.fold = false;
  Result<AggregationResult> plain = Aggregate(input, options);
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_TRUE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 3u);
  EXPECT_EQ(plain->clustering, folded->clustering);
  EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
}

TEST(FoldAggregateTest, FoldIsANoOpWhenEveryObjectIsUnique) {
  // All-distinct signatures: the fold is the identity, so every pipeline
  // (plain, SAMPLING, sharded, stream) must report s == n where it
  // surfaces the fold, set folded = false, and return bit-identically
  // what it returns with fold = false.
  Rng rng(17);
  std::vector<Clustering::Label> a(30), b(30);
  for (std::size_t v = 0; v < 30; ++v) {
    a[v] = static_cast<Clustering::Label>(v);  // all distinct already
    b[v] = static_cast<Clustering::Label>(rng.NextBounded(4));
  }
  const ClusteringSet input = *ClusteringSet::Create({Clustering(a),
                                                      Clustering(b)});
  struct Case {
    const char* name;
    std::size_t sampling_size;
    ShardingMode shard;
    // SAMPLING does not surface instance-level fold stats.
    std::size_t fold_signatures;
  };
  const Case cases[] = {
      {"plain", 0, ShardingMode::kOff, 30},
      {"sampling", 12, ShardingMode::kOff, 0},
      {"sharded", 0, ShardingMode::kFixed, 30},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kLocalSearch;
    options.sampling_size = c.sampling_size;
    options.shard.mode = c.shard;
    options.shard.num_shards = 2;
    options.fold = true;
    Result<AggregationResult> folded = Aggregate(input, options);
    options.fold = false;
    Result<AggregationResult> plain = Aggregate(input, options);
    ASSERT_TRUE(folded.ok()) << folded.status();
    ASSERT_TRUE(plain.ok()) << plain.status();
    EXPECT_FALSE(folded->folded);
    EXPECT_EQ(folded->fold_signatures, c.fold_signatures);
    EXPECT_EQ(plain->fold_signatures, 0u);
    EXPECT_EQ(plain->clustering, folded->clustering);
    EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
  }

  // The stream: a rebuild, a warm repair, and an object that stays
  // unique, replayed with fold on and off.
  SCOPED_TRACE("stream");
  std::vector<StreamRecord> records;
  records.push_back(AddClusteringEvent{a, 1.0});
  records.push_back(FlushMarker{});
  records.push_back(AddClusteringEvent{b, 1.0});
  records.push_back(FlushMarker{});
  records.push_back(AddObjectEvent{{30, 2}});
  records.push_back(FlushMarker{});
  auto replay = [&](bool fold) {
    StreamAggregatorOptions options;
    options.fold = fold;
    options.rebuild.algorithm = AggregationAlgorithm::kLocalSearch;
    options.rebuild_threshold = 1.0;  // repair after the first rebuild
    StreamAggregator stream(options);
    Result<StreamReplayResult> result = ReplayEventLog(stream, records);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(stream.fold_signatures(), stream.num_objects());
    return std::move(result).value();
  };
  const StreamReplayResult folded = replay(true);
  const StreamReplayResult plain = replay(false);
  ASSERT_EQ(folded.reports.size(), 3u);
  ASSERT_EQ(plain.reports.size(), 3u);
  EXPECT_GT(plain.repairs, 0u);
  for (std::size_t f = 0; f < plain.reports.size(); ++f) {
    SCOPED_TRACE("flush " + std::to_string(f));
    EXPECT_EQ(folded.reports[f].rebuilt, plain.reports[f].rebuilt);
    EXPECT_EQ(folded.reports[f].pre_repair, plain.reports[f].pre_repair);
    EXPECT_EQ(folded.reports[f].cost, plain.reports[f].cost);
    EXPECT_EQ(folded.reports[f].drift, plain.reports[f].drift);
  }
}

TEST(FoldAggregateTest, SamplingFoldsItsSubInstances) {
  // Under sampling the fold applies to the sampled sub-instances; on a
  // planted duplicated fixture both runs recover the planted partition.
  const std::vector<std::size_t> groups = PlantedGroups(300, 4);
  const ClusteringSet input = PlantedInput(groups, 4);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.sampling_size = 40;
  options.fold = false;
  Result<AggregationResult> plain = Aggregate(input, options);
  options.fold = true;
  Result<AggregationResult> folded = Aggregate(input, options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(folded.ok()) << folded.status();
  // Sampling does not surface instance-level fold stats.
  EXPECT_FALSE(folded->folded);
  EXPECT_EQ(folded->fold_signatures, 0u);
  EXPECT_EQ(plain->clustering, folded->clustering);
  EXPECT_EQ(plain->total_disagreements, folded->total_disagreements);
}

TEST(FoldAggregateTest, StreamStaysUnfoldedWhenAGroupExceedsTheCap) {
  // Objects 0 and 1 share a signature. A folded group is never split, so
  // under a cluster-size cap of 1 the stream must keep the identity
  // grouping, as Aggregate does: its repair must honour the cap, and a
  // capped rebuild's split of the group must show in the scored cost.
  struct Caps {
    std::size_t rebuild;
    std::size_t repair;
  };
  for (const Caps caps : {Caps{1, 1}, Caps{1, 0}}) {
    SCOPED_TRACE("rebuild cap " + std::to_string(caps.rebuild) +
                 ", repair cap " + std::to_string(caps.repair));
    StreamAggregatorOptions options;
    options.fold = true;
    options.rebuild.algorithm = AggregationAlgorithm::kLocalSearch;
    options.rebuild.max_cluster_size = caps.rebuild;
    options.repair.max_cluster_size = caps.repair;
    options.rebuild_threshold = 1.0;  // repair after the first rebuild
    StreamAggregator stream(options);
    for (int flush = 0; flush < 2; ++flush) {
      ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
      Result<StreamFlushReport> report = stream.Flush();
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->repaired, flush == 1);
      EXPECT_EQ(stream.fold_signatures(), 3u);
      // Whatever the labels, the reported cost is theirs.
      EXPECT_EQ(stream.cost(), *stream.Instance()->Cost(stream.labels()));
    }
    if (caps.repair == 1) {
      EXPECT_EQ(stream.labels().NumClusters(), 3u);
      EXPECT_EQ(stream.cost(), 1.0);  // the pair at X = 0, kept apart
    }
  }
}

TEST(FoldAggregateTest, FoldSurvivesTheDenseToLazyFallback) {
  // An injected dense-allocation fault must degrade the *folded* build
  // to the lazy backend and still return the planted partition.
  const std::vector<std::size_t> groups = PlantedGroups(90, 4);
  const ClusteringSet input = PlantedInput(groups, 4);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.fold = true;
  RunContext faulty = RunContext::Cancellable();
  FaultHooks hooks;
  hooks.fail_allocation = [](std::size_t) { return true; };
  faulty.set_fault_hooks(hooks);
  options.run = faulty;
  Result<AggregationResult> faulted = Aggregate(input, options);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_TRUE(faulted->folded);
  EXPECT_EQ(faulted->outcome, RunOutcome::kFellBack);
  options.run = RunContext();
  Result<AggregationResult> clean = Aggregate(input, options);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(faulted->clustering, clean->clustering);
  EXPECT_EQ(faulted->total_disagreements, clean->total_disagreements);
}

}  // namespace
}  // namespace clustagg
