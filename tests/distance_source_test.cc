// Backend-equivalence suite for the pluggable distance layer: the dense
// and lazy DistanceSources must answer bit-identically (both round
// through float with the same arithmetic), every algorithm must produce
// the same clustering whichever backend carries the instance, and every
// parallel reduction must be independent of the thread count.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/symmetric_matrix.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/distance_source.h"
#include "core/internal/packed_labels.h"
#include "core/signature_index.h"

namespace clustagg {
namespace {

ClusteringSet RandomInput(std::size_t n, std::size_t m, std::size_t k,
                          std::uint64_t seed, double missing_rate = 0.0,
                          bool weighted = false) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  std::vector<double> weights;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(missing_rate)
                      ? Clustering::kMissing
                      : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
    if (weighted) weights.push_back(0.5 + rng.NextDouble());
  }
  return *ClusteringSet::Create(std::move(clusterings), std::move(weights));
}

Clustering RandomCandidate(std::size_t n, std::size_t k,
                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(rng.NextBounded(k));
  }
  return Clustering(std::move(labels));
}

/// The missing-value configurations every equivalence test sweeps.
std::vector<MissingValueOptions> MissingConfigs() {
  MissingValueOptions coin_half;
  MissingValueOptions coin_biased;
  coin_biased.coin_together_probability = 0.3;
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  return {coin_half, coin_biased, ignore};
}

struct BackendPair {
  CorrelationInstance dense;
  CorrelationInstance lazy;
};

BackendPair BuildBoth(const ClusteringSet& input,
                      const MissingValueOptions& missing,
                      std::size_t num_threads = 0) {
  Result<CorrelationInstance> dense = CorrelationInstance::Build(
      input, missing, {DistanceBackend::kDense, num_threads, {}});
  Result<CorrelationInstance> lazy = CorrelationInstance::Build(
      input, missing, {DistanceBackend::kLazy, num_threads, {}});
  EXPECT_TRUE(dense.ok()) << dense.status();
  EXPECT_TRUE(lazy.ok()) << lazy.status();
  return {*std::move(dense), *std::move(lazy)};
}

TEST(DistanceSourceTest, BackendNames) {
  EXPECT_STREQ(DistanceBackendName(DistanceBackend::kDense), "dense");
  EXPECT_STREQ(DistanceBackendName(DistanceBackend::kLazy), "lazy");
  const ClusteringSet input = RandomInput(10, 3, 2, 1);
  const BackendPair pair = BuildBoth(input, {});
  EXPECT_STREQ(pair.dense.backend_name(), "dense");
  EXPECT_STREQ(pair.lazy.backend_name(), "lazy");
  EXPECT_NE(pair.dense.dense_matrix(), nullptr);
  EXPECT_EQ(pair.lazy.dense_matrix(), nullptr);
}

TEST(DistanceSourceTest, DistancesBitIdenticalAcrossBackends) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double missing_rate : {0.0, 0.2}) {
      for (bool weighted : {false, true}) {
        for (const MissingValueOptions& missing : MissingConfigs()) {
          const ClusteringSet input =
              RandomInput(31, 5, 4, seed, missing_rate, weighted);
          const BackendPair pair = BuildBoth(input, missing);
          ASSERT_EQ(pair.dense.size(), 31u);
          ASSERT_EQ(pair.lazy.size(), 31u);
          for (std::size_t u = 0; u < 31; ++u) {
            for (std::size_t v = 0; v < 31; ++v) {
              // Bit-identical, not approximately equal.
              EXPECT_EQ(pair.dense.distance(u, v),
                        pair.lazy.distance(u, v))
                  << "u=" << u << " v=" << v;
            }
          }
        }
      }
    }
  }
}

TEST(DistanceSourceTest, LazyMatchesPairwiseDistanceThroughFloat) {
  const ClusteringSet input = RandomInput(25, 4, 3, 7, 0.25);
  for (const MissingValueOptions& missing : MissingConfigs()) {
    Result<std::shared_ptr<const LazyDistanceSource>> lazy =
        LazyDistanceSource::Build(input, missing);
    ASSERT_TRUE(lazy.ok());
    for (std::size_t u = 0; u < 25; ++u) {
      for (std::size_t v = 0; v < 25; ++v) {
        EXPECT_EQ((*lazy)->distance(u, v),
                  static_cast<double>(static_cast<float>(
                      input.PairwiseDistance(u, v, missing))));
      }
    }
  }
}

TEST(DistanceSourceTest, FastPathMatchesGeneralArithmetic) {
  // No missing labels + unit weights routes every query through the
  // mismatch-count fast path; it must stay bit-identical to the general
  // weighted accumulation PairwiseDistance performs (sums of 1.0 are
  // exact, so counting mismatches and dividing once is the same number).
  for (const MissingValueOptions& missing : MissingConfigs()) {
    const ClusteringSet input = RandomInput(48, 5, 4, 59);
    const BackendPair pair = BuildBoth(input, missing);
    for (std::size_t u = 0; u < 48; ++u) {
      for (std::size_t v = 0; v < 48; ++v) {
        const double expected = static_cast<double>(static_cast<float>(
            input.PairwiseDistance(u, v, missing)));
        EXPECT_EQ(pair.dense.distance(u, v), expected);
        EXPECT_EQ(pair.lazy.distance(u, v), expected);
      }
    }
  }
}

TEST(DistanceSourceTest, FastPathTiledBuildIsThreadInvariant) {
  // Unlike ThreadCountDoesNotChangeResults below (which carries missing
  // labels), this input is complete with unit weights, so the parallel
  // tiled build runs the mismatch-count kernel; the packed triangle must
  // not depend on the schedule.
  const ClusteringSet input = RandomInput(600, 6, 5, 61);
  Result<std::shared_ptr<const DenseDistanceSource>> serial =
      DenseDistanceSource::Build(input, {}, 1);
  ASSERT_TRUE(serial.ok());
  for (std::size_t threads : {2u, 8u}) {
    Result<std::shared_ptr<const DenseDistanceSource>> parallel =
        DenseDistanceSource::Build(input, {}, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*serial)->dense_matrix()->packed(),
              (*parallel)->dense_matrix()->packed())
        << "threads=" << threads;
  }
}

TEST(DistanceSourceTest, FoldedRepresentativeRowsMatchFullInstance) {
  // Folding builds the instance over one representative per distinct
  // signature; every entry of that s x s matrix must be bit-identical to
  // the corresponding full-instance entry, on both backends, including
  // missing labels and non-uniform clustering weights.
  ClusteringSet base = RandomInput(20, 4, 3, 67, 0.2, true);
  // Duplicate each object three times (object ids interleaved so the
  // groups are not contiguous).
  std::vector<std::size_t> copies(60);
  for (std::size_t v = 0; v < copies.size(); ++v) copies[v] = v % 20;
  const ClusteringSet input = base.Restrict(copies);
  const SignatureIndex signatures = SignatureIndex::Build(input);
  ASSERT_LE(signatures.num_signatures(), 20u);
  const std::vector<std::size_t>& reps = signatures.representatives();
  for (const MissingValueOptions& missing : MissingConfigs()) {
    const BackendPair full = BuildBoth(input, missing);
    for (DistanceBackend backend :
         {DistanceBackend::kDense, DistanceBackend::kLazy}) {
      Result<CorrelationInstance> folded = CorrelationInstance::BuildSubset(
          input, reps, missing, {backend, 0, {}});
      ASSERT_TRUE(folded.ok()) << folded.status();
      ASSERT_EQ(folded->size(), reps.size());
      for (std::size_t i = 0; i < reps.size(); ++i) {
        for (std::size_t j = 0; j < reps.size(); ++j) {
          EXPECT_EQ(folded->distance(i, j),
                    full.dense.distance(reps[i], reps[j]));
        }
      }
    }
  }
}

TEST(DistanceSourceTest, FillRowMatchesDistance) {
  const ClusteringSet input = RandomInput(40, 4, 3, 11, 0.15);
  const BackendPair pair = BuildBoth(input, {});
  std::vector<double> dense_row(40);
  std::vector<double> lazy_row(40);
  for (std::size_t u = 0; u < 40; ++u) {
    pair.dense.FillRow(u, dense_row);
    pair.lazy.FillRow(u, lazy_row);
    for (std::size_t v = 0; v < 40; ++v) {
      EXPECT_EQ(dense_row[v], pair.dense.distance(u, v));
      EXPECT_EQ(lazy_row[v], dense_row[v]);
    }
  }
}

TEST(DistanceSourceTest, ReductionsBitIdenticalAcrossBackends) {
  for (double missing_rate : {0.0, 0.2}) {
    for (const MissingValueOptions& missing : MissingConfigs()) {
      const ClusteringSet input = RandomInput(45, 6, 4, 13, missing_rate);
      const BackendPair pair = BuildBoth(input, missing);
      const Clustering candidate = RandomCandidate(45, 4, 17);
      EXPECT_EQ(*pair.dense.Cost(candidate), *pair.lazy.Cost(candidate));
      EXPECT_EQ(pair.dense.LowerBound(), pair.lazy.LowerBound());
      EXPECT_EQ(pair.dense.TotalIncidentWeights(),
                pair.lazy.TotalIncidentWeights());
    }
  }
}

TEST(DistanceSourceTest, SubsetBuildsAgreeAcrossBackends) {
  const ClusteringSet input = RandomInput(50, 5, 4, 19, 0.2);
  const std::vector<std::size_t> subset = {2, 3, 7, 11, 13, 21, 34, 49};
  for (const MissingValueOptions& missing : MissingConfigs()) {
    Result<CorrelationInstance> dense = CorrelationInstance::BuildSubset(
        input, subset, missing, {DistanceBackend::kDense, 0, {}});
    Result<CorrelationInstance> lazy = CorrelationInstance::BuildSubset(
        input, subset, missing, {DistanceBackend::kLazy, 0, {}});
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(lazy.ok());
    ASSERT_EQ(dense->size(), subset.size());
    for (std::size_t i = 0; i < subset.size(); ++i) {
      for (std::size_t j = 0; j < subset.size(); ++j) {
        EXPECT_EQ(dense->distance(i, j), lazy->distance(i, j));
        EXPECT_EQ(dense->distance(i, j),
                  static_cast<double>(static_cast<float>(
                      input.PairwiseDistance(subset[i], subset[j],
                                             missing))));
      }
    }
  }
}

// Every algorithm must output the same clustering whichever backend
// carries the instance. EXACT runs on a smaller input (its solver is
// capped); the other eight share one instance size.
class AlgorithmEquivalenceTest
    : public ::testing::TestWithParam<AggregationAlgorithm> {};

TEST_P(AlgorithmEquivalenceTest, DenseAndLazyProduceIdenticalOutput) {
  const AggregationAlgorithm algorithm = GetParam();
  const std::size_t n =
      algorithm == AggregationAlgorithm::kExact ? 10 : 60;
  for (double missing_rate : {0.0, 0.2}) {
    const ClusteringSet input = RandomInput(n, 5, 3, 23, missing_rate);
    for (const MissingValueOptions& missing : MissingConfigs()) {
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.missing = missing;
      options.backend = DistanceBackend::kDense;
      Result<AggregationResult> dense = Aggregate(input, options);
      options.backend = DistanceBackend::kLazy;
      Result<AggregationResult> lazy = Aggregate(input, options);
      ASSERT_TRUE(dense.ok()) << dense.status();
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      EXPECT_EQ(dense->clustering, lazy->clustering);
      EXPECT_EQ(dense->total_disagreements, lazy->total_disagreements);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmEquivalenceTest,
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

TEST(DistanceSourceTest, SamplingPathAgreesAcrossBackends) {
  const ClusteringSet input = RandomInput(300, 5, 4, 29, 0.1);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.sampling_size = 40;
  options.backend = DistanceBackend::kDense;
  Result<AggregationResult> dense = Aggregate(input, options);
  options.backend = DistanceBackend::kLazy;
  Result<AggregationResult> lazy = Aggregate(input, options);
  ASSERT_TRUE(dense.ok()) << dense.status();
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  EXPECT_EQ(dense->clustering, lazy->clustering);
  EXPECT_EQ(dense->total_disagreements, lazy->total_disagreements);
}

TEST(DistanceSourceTest, RefinementPathAgreesAcrossBackends) {
  const ClusteringSet input = RandomInput(80, 5, 4, 31, 0.15);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBalls;
  options.refine_with_local_search = true;
  options.backend = DistanceBackend::kDense;
  Result<AggregationResult> dense = Aggregate(input, options);
  options.backend = DistanceBackend::kLazy;
  Result<AggregationResult> lazy = Aggregate(input, options);
  ASSERT_TRUE(dense.ok()) << dense.status();
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  EXPECT_EQ(dense->clustering, lazy->clustering);
}

// n = 600 crosses the serial threshold (128 rows), so 2 and 8 threads
// really run the parallel paths; everything must still be bit-identical
// to the single-threaded run.
TEST(DistanceSourceTest, ThreadCountDoesNotChangeResults) {
  const ClusteringSet input = RandomInput(600, 6, 5, 37, 0.1);
  Result<std::shared_ptr<const DenseDistanceSource>> serial =
      DenseDistanceSource::Build(input, {}, 1);
  ASSERT_TRUE(serial.ok());
  for (std::size_t threads : {2u, 8u}) {
    Result<std::shared_ptr<const DenseDistanceSource>> parallel =
        DenseDistanceSource::Build(input, {}, threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ((*serial)->dense_matrix()->packed(),
              (*parallel)->dense_matrix()->packed())
        << "threads=" << threads;
  }

  const Clustering candidate = RandomCandidate(600, 5, 41);
  for (DistanceBackend backend :
       {DistanceBackend::kDense, DistanceBackend::kLazy}) {
    Result<CorrelationInstance> one = CorrelationInstance::Build(
        input, {}, {backend, 1, {}});
    ASSERT_TRUE(one.ok());
    const double cost_one = *one->Cost(candidate);
    const double bound_one = one->LowerBound();
    const std::vector<double> weights_one = one->TotalIncidentWeights();
    for (std::size_t threads : {2u, 8u}) {
      Result<CorrelationInstance> many = CorrelationInstance::Build(
          input, {}, {backend, threads, {}});
      ASSERT_TRUE(many.ok());
      EXPECT_EQ(*many->Cost(candidate), cost_one);
      EXPECT_EQ(many->LowerBound(), bound_one);
      EXPECT_EQ(many->TotalIncidentWeights(), weights_one);
    }
  }
}

TEST(DistanceSourceTest, ThreadCountDoesNotChangeAlgorithmOutput) {
  const ClusteringSet input = RandomInput(300, 5, 4, 43, 0.1);
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kLocalSearch,
        AggregationAlgorithm::kFurthest}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.num_threads = 1;
    Result<AggregationResult> one = Aggregate(input, options);
    ASSERT_TRUE(one.ok());
    for (std::size_t threads : {2u, 8u}) {
      options.num_threads = threads;
      Result<AggregationResult> many = Aggregate(input, options);
      ASSERT_TRUE(many.ok());
      EXPECT_EQ(one->clustering, many->clustering);
      EXPECT_EQ(one->total_disagreements, many->total_disagreements);
    }
  }
}

TEST(DistanceSourceTest, LegacyBuildersStillMatchPairwise) {
  const ClusteringSet input = RandomInput(20, 4, 3, 47, 0.2);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  for (std::size_t u = 0; u < 20; ++u) {
    for (std::size_t v = 0; v < 20; ++v) {
      EXPECT_EQ(instance.distance(u, v),
                static_cast<double>(static_cast<float>(
                    input.PairwiseDistance(u, v))));
    }
  }
}

// ----------------------------------------------- packed kernel tiers

/// Forces a packed-kernel tier for the enclosing scope; the CPU default
/// is restored on destruction. Tier changes only affect sources built
/// afterwards, so each guarded block builds its own sources.
class TierOverride {
 public:
  explicit TierOverride(internal::PackedKernelTier tier) {
    internal::SetPackedKernelTierForTest(&tier);
  }
  ~TierOverride() { internal::SetPackedKernelTierForTest(nullptr); }
};

std::vector<internal::PackedKernelTier> AllTiers() {
  return {internal::PackedKernelTier::kSwar,
          internal::PackedKernelTier::kAvx2};
}

/// The independent reference every tier must reproduce bit for bit.
double ReferenceDistance(const ClusteringSet& input, std::size_t u,
                         std::size_t v) {
  return static_cast<float>(input.PairwiseDistance(u, v));
}

/// Signature ids by first appearance of each whole label row, the
/// grouping SignatureIndex must reproduce.
std::vector<std::size_t> ReferenceGrouping(const ClusteringSet& input) {
  std::map<std::vector<Clustering::Label>, std::size_t> ids;
  std::vector<std::size_t> grouping(input.num_objects());
  for (std::size_t v = 0; v < input.num_objects(); ++v) {
    std::vector<Clustering::Label> row;
    for (const Clustering& c : input.clusterings()) row.push_back(c.label(v));
    grouping[v] = ids.try_emplace(std::move(row), ids.size()).first->second;
  }
  return grouping;
}

std::vector<std::size_t> SignatureGrouping(const ClusteringSet& input) {
  const SignatureIndex index = SignatureIndex::Build(input);
  std::vector<std::size_t> grouping(input.num_objects());
  for (std::size_t v = 0; v < grouping.size(); ++v) {
    grouping[v] = index.signature_of(v);
  }
  return grouping;
}

TEST(PackedKernelTest, AllTiersBitIdenticalOnBothBackends) {
  // Same instance, every tier, both backends: every distance must be
  // float(PairwiseDistance) to the bit (kAvx2 silently degrades to
  // kSwar on machines without the kernel — still a distinct dispatch
  // decision to pin).
  const ClusteringSet input = RandomInput(48, 9, 8, 91);
  for (internal::PackedKernelTier tier : AllTiers()) {
    TierOverride guard(tier);
    const BackendPair pair = BuildBoth(input, {});
    for (std::size_t u = 0; u < 48; ++u) {
      for (std::size_t v = 0; v < 48; ++v) {
        const double expected = ReferenceDistance(input, u, v);
        EXPECT_EQ(pair.dense.distance(u, v), expected)
            << "tier=" << internal::PackedKernelTierName(tier) << " u="
            << u << " v=" << v;
        EXPECT_EQ(pair.lazy.distance(u, v), expected)
            << "tier=" << internal::PackedKernelTierName(tier) << " u="
            << u << " v=" << v;
      }
    }
  }
}

TEST(PackedKernelTest, PackingEligibilityFollowsInstanceShape) {
  TierOverride guard(internal::PackedKernelTier::kSwar);
  const auto packed_of = [](const ClusteringSet& input) {
    Result<std::shared_ptr<const LazyDistanceSource>> lazy =
        LazyDistanceSource::Build(input, {});
    EXPECT_TRUE(lazy.ok());
    return (*lazy)->uses_packed_labels();
  };
  EXPECT_TRUE(packed_of(RandomInput(20, 5, 4, 3)));
  // A missing label packs with presence masks; a non-unit weight must
  // fall back to the general loop automatically.
  EXPECT_TRUE(packed_of(RandomInput(20, 5, 4, 3, 0.2)));
  EXPECT_FALSE(packed_of(RandomInput(20, 5, 4, 3, 0.0, true)));
}

TEST(PackedKernelTest, AgreementRowMatchesThresholdedDistances) {
  // Dense (strided matrix walk), lazy packed (integer threshold), and
  // lazy general (missing labels, float compare) must all agree with
  // the definition: agree[v] iff float(PairwiseDistance(u, v)) < 0.5,
  // and u agrees with itself.
  for (double missing_rate : {0.0, 0.15}) {
    const ClusteringSet input = RandomInput(33, 6, 5, 17, missing_rate);
    for (internal::PackedKernelTier tier : AllTiers()) {
      TierOverride guard(tier);
      const BackendPair pair = BuildBoth(input, {});
      for (const CorrelationInstance* instance :
           {&pair.dense, &pair.lazy}) {
        std::vector<char> agree(33);
        for (std::size_t u = 0; u < 33; ++u) {
          instance->source()->AgreementRow(u, agree);
          for (std::size_t v = 0; v < 33; ++v) {
            const bool expected = ReferenceDistance(input, u, v) < 0.5;
            EXPECT_EQ(agree[v] != 0, expected)
                << instance->backend_name() << " tier="
                << internal::PackedKernelTierName(tier) << " u=" << u
                << " v=" << v;
          }
        }
      }
    }
  }
}

TEST(PackedKernelTest, SignatureGroupingTierInvariant) {
  // SignatureIndex hashes and compares packed rows; the grouping
  // (including kMissing treated as an ordinary symbol) is the
  // first-appearance grouping of whole label rows under every tier.
  const ClusteringSet input = RandomInput(40, 4, 3, 29, 0.2);
  for (internal::PackedKernelTier tier : AllTiers()) {
    TierOverride guard(tier);
    EXPECT_EQ(SignatureGrouping(input), ReferenceGrouping(input));
  }
}

TEST(PackedKernelTest, WideAlphabetPacksAtWidth32) {
  // One column with 2^16 + 1 distinct labels needs a 32-bit lane. Paired
  // with one narrow column the instance rounds up to a single word of
  // two 32-bit lanes; with several narrow columns it keeps a 32-bit
  // class beside a 2-bit one (two words). Both must answer
  // float(PairwiseDistance) bit for bit on every kernel entry point.
  // Trailing objects repeat earlier rows so SignatureIndex has groups
  // to find. No dense matrix is built at this n.
  const std::size_t wide = (std::size_t{1} << 16) + 1;
  const std::size_t n = wide + 512;
  for (const std::size_t narrow_columns : {1u, 5u}) {
    SCOPED_TRACE("narrow columns = " + std::to_string(narrow_columns));
    Rng rng(narrow_columns);
    std::vector<std::vector<Clustering::Label>> columns(
        1 + narrow_columns, std::vector<Clustering::Label>(n));
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t source = v < wide ? v : (v * 7919) % wide;
      columns[0][v] = static_cast<Clustering::Label>(3 * source);
      for (std::size_t i = 1; i < columns.size(); ++i) {
        columns[i][v] = v < wide ? static_cast<Clustering::Label>(
                                       rng.NextBounded(3))
                                 : columns[i][source];
      }
    }
    std::vector<Clustering> clusterings;
    for (auto& labels : columns) clusterings.emplace_back(std::move(labels));
    const ClusteringSet input = *ClusteringSet::Create(std::move(clusterings));
    const std::size_t m = input.num_clusterings();

    std::vector<Clustering::Label> rows(n * m);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < m; ++i) {
        rows[v * m + i] = input.clustering(i).label(v);
      }
    }
    const std::unique_ptr<internal::PackedLabels> packed =
        internal::PackLabelRows(rows.data(), n, m);
    ASSERT_NE(packed, nullptr);
    EXPECT_EQ(packed->classes[0].width, 32u);
    EXPECT_EQ(packed->words_per_object, narrow_columns == 1 ? 1u : 2u);
    const std::vector<double> lut =
        internal::BuildPackedValueLut(m, input.total_weight());

    for (internal::PackedKernelTier tier : AllTiers()) {
      SCOPED_TRACE(internal::PackedKernelTierName(tier));
      TierOverride guard(tier);
      Result<std::shared_ptr<const LazyDistanceSource>> lazy =
          LazyDistanceSource::Build(input, {});
      ASSERT_TRUE(lazy.ok());
      EXPECT_TRUE((*lazy)->uses_packed_labels());
      std::vector<double> row(n);
      std::vector<char> agree(n);
      for (const std::size_t u : {std::size_t{0}, std::size_t{1},
                                  wide - 1, wide, n - 1}) {
        (*lazy)->FillRow(u, row);
        (*lazy)->AgreementRow(u, agree);
        std::size_t mismatches = 0;
        for (std::size_t v = 0; v < n; ++v) {
          const double expected = ReferenceDistance(input, u, v);
          mismatches += (*lazy)->distance(u, v) != expected;
          mismatches += row[v] != expected;
          mismatches += (agree[v] != 0) != (expected < 0.5);
        }
        EXPECT_EQ(mismatches, 0u) << "u=" << u;
      }
      const std::size_t u = 17;
      const std::size_t v0 = wide - 1000;
      std::vector<float> slice(n - v0);
      internal::PackedMismatchRowFloat(*packed, u, v0, n,
                                       input.total_weight(), lut.data(),
                                       slice.data());
      std::size_t mismatches = 0;
      for (std::size_t v = v0; v < n; ++v) {
        mismatches += slice[v - v0] != ReferenceDistance(input, u, v);
      }
      EXPECT_EQ(mismatches, 0u);
      EXPECT_EQ(SignatureGrouping(input), ReferenceGrouping(input));
    }
  }
}

TEST(SymmetricMatrixCreateTest, SucceedsForNormalSizes) {
  for (std::size_t n : {0u, 1u, 2u, 100u}) {
    Result<SymmetricMatrix<float>> matrix =
        SymmetricMatrix<float>::Create(n, 0.25f);
    ASSERT_TRUE(matrix.ok()) << "n=" << n;
    EXPECT_EQ(matrix->size(), n);
    if (n >= 2) {
      EXPECT_EQ((*matrix)(0, 1), 0.25f);
    }
  }
}

TEST(SymmetricMatrixCreateTest, RejectsTriangleOverflow) {
  // n = 2^33: n(n-1)/2 ~ 2^65 does not fit in 64 bits at all.
  Result<SymmetricMatrix<float>> huge =
      SymmetricMatrix<float>::Create(std::size_t{1} << 33);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

TEST(SymmetricMatrixCreateTest, RejectsByteSizeOverflow) {
  // n = 2^32: the triangle (~2^63 entries) fits in std::size_t but the
  // byte count (x4 for float) does not.
  Result<SymmetricMatrix<float>> huge =
      SymmetricMatrix<float>::Create(std::size_t{1} << 32);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
}

TEST(SymmetricMatrixCreateTest, DenseBuildSurfacesResourceExhausted) {
  // The dense builder must propagate the guard instead of aborting; the
  // lazy backend happily takes the same input.
  const ClusteringSet small = RandomInput(8, 2, 2, 53);
  Result<CorrelationInstance> ok = CorrelationInstance::Build(
      small, {}, {DistanceBackend::kDense, 1, {}});
  EXPECT_TRUE(ok.ok());
  // (A genuinely huge n would need a ClusteringSet of that size, which
  // is itself too big to allocate here; the matrix-level guard above
  // covers the overflow paths.)
}

}  // namespace
}  // namespace clustagg
