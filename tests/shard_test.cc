// Shard-and-conquer suite: agreement-graph decomposition semantics
// (component recovery, permutation invariance, split accounting, FFD
// packing), the shard-equivalence properties — (a) a single-shard run is
// bit-identical to the unsharded pipeline, (b) the sharded cost never
// exceeds the unsharded cost by more than stitch_error_bound, (c) the
// decomposition is invariant under object permutation — across all
// algorithms x dense/lazy x folded/unfolded, the --shards=auto trigger,
// budget degradation, the size-capped LOCALSEARCH move filter, and the
// stream rebuild path routing through sharding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/clustering_set.h"
#include "core/distance_source.h"
#include "shard/decompose.h"
#include "shard/shard_options.h"
#include "stream/stream_aggregator.h"

namespace clustagg {
namespace {

// ------------------------------------------------------------ fixtures

/// m clusterings that all equal the planted partition `group_of`: every
/// within-group distance is 0, every cross-group distance is 1. The
/// agreement graph's components are exactly the planted groups, and
/// every algorithm deterministically recovers the groups as clusters —
/// the one fixture where sharded and unsharded runs can be compared
/// label-for-label, not just cost-for-cost.
ClusteringSet PlantedInput(const std::vector<std::size_t>& group_of,
                           std::size_t m) {
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(group_of.size());
    for (std::size_t v = 0; v < group_of.size(); ++v) {
      labels[v] = static_cast<Clustering::Label>(group_of[v]);
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

/// Group assignment with distinct group sizes (ties between clusters
/// would make move-based sweeps order-dependent), interleaved so groups
/// are not contiguous in object id.
std::vector<std::size_t> PlantedGroups(std::size_t n, std::size_t g) {
  std::vector<std::size_t> group_of(n);
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
  Rng rng(99);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(group_of[i - 1], group_of[rng.NextBounded(i)]);
  }
  return group_of;
}

/// Generic noisy input (no planted recovery promise): random labels from
/// k clusters per clustering, for invariance and bound properties that
/// hold on any input.
ClusteringSet NoisyInput(std::size_t n, std::size_t m, std::size_t k,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

std::shared_ptr<const LazyDistanceSource> LazySource(
    const ClusteringSet& input) {
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(input, {});
  EXPECT_TRUE(source.ok()) << source.status();
  return *source;
}

/// Canonical form of a partition given as per-node labels: the label
/// vector renumbered by first appearance, so two partitions are equal
/// iff their canonical forms are.
template <typename LabelVector>
std::vector<std::int32_t> CanonicalPartition(const LabelVector& labels) {
  std::map<std::int64_t, std::int32_t> remap;
  std::vector<std::int32_t> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    const auto [it, inserted] = remap.emplace(
        static_cast<std::int64_t>(labels[v]),
        static_cast<std::int32_t>(remap.size()));
    out[v] = it->second;
  }
  return out;
}

// ------------------------------------------------------ ParseShardsFlag

TEST(ParseShardsFlagTest, ParsesModesAndCounts) {
  Result<ShardOptions> off = ParseShardsFlag("off");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->mode, ShardingMode::kOff);
  EXPECT_FALSE(ShardingRequested(*off));

  Result<ShardOptions> auto_mode = ParseShardsFlag("auto");
  ASSERT_TRUE(auto_mode.ok());
  EXPECT_EQ(auto_mode->mode, ShardingMode::kAuto);
  EXPECT_TRUE(ShardingRequested(*auto_mode));

  Result<ShardOptions> fixed = ParseShardsFlag("7");
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->mode, ShardingMode::kFixed);
  EXPECT_EQ(fixed->num_shards, 7u);

  EXPECT_FALSE(ParseShardsFlag("").ok());
  EXPECT_FALSE(ParseShardsFlag("0").ok());
  EXPECT_FALSE(ParseShardsFlag("-3").ok());
  EXPECT_FALSE(ParseShardsFlag("12x").ok());
  EXPECT_FALSE(ParseShardsFlag("bogus").ok());
}

// ------------------------------------------------------- decomposition

TEST(DecomposeTest, RecoversPlantedComponentsWithoutCuts) {
  const std::vector<std::size_t> groups = PlantedGroups(36, 3);
  const ClusteringSet input = PlantedInput(groups, 4);
  const auto source = LazySource(input);
  ShardOptions options;
  options.mode = ShardingMode::kAuto;  // capacity 4096: nothing splits
  Result<ShardPlan> plan = DecomposeAgreementGraph(*source, {}, options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_EQ(plan->num_nodes, 36u);
  EXPECT_EQ(plan->num_components, 3u);
  EXPECT_EQ(CanonicalPartition(plan->component_of),
            CanonicalPartition(groups));
  EXPECT_EQ(plan->split_components, 0u);
  EXPECT_EQ(plan->cut_edges, 0u);
  EXPECT_EQ(plan->stitch_error_bound, 0.0);

  // All 36 nodes fit one auto-capacity bin, each exactly once, sorted.
  ASSERT_EQ(plan->shards.size(), 1u);
  EXPECT_TRUE(std::is_sorted(plan->shards[0].begin(),
                             plan->shards[0].end()));
  EXPECT_EQ(plan->shards[0].size(), 36u);
  for (std::size_t v = 0; v < 36; ++v) EXPECT_EQ(plan->shard_of[v], 0u);
}

TEST(DecomposeTest, ComponentPartitionInvariantUnderPermutation) {
  // Property (c): relabeling objects must not change the component
  // partition (up to renaming). Noisy input, so components are whatever
  // the agreement graph says — no planted structure to lean on.
  const std::size_t n = 60;
  const ClusteringSet input = NoisyInput(n, 5, 12, 31);
  Rng rng(77);
  std::vector<std::size_t> perm(n);
  for (std::size_t v = 0; v < n; ++v) perm[v] = v;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  std::vector<Clustering> permuted;
  for (std::size_t i = 0; i < input.num_clusterings(); ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[perm[v]] = input.clustering(i).label(v);
    }
    permuted.emplace_back(std::move(labels));
  }
  const ClusteringSet permuted_input =
      *ClusteringSet::Create(std::move(permuted));

  ShardOptions options;
  options.mode = ShardingMode::kAuto;
  const auto source = LazySource(input);
  const auto permuted_source = LazySource(permuted_input);
  Result<ShardPlan> plan = DecomposeAgreementGraph(*source, {}, options);
  Result<ShardPlan> permuted_plan =
      DecomposeAgreementGraph(*permuted_source, {}, options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(permuted_plan.ok()) << permuted_plan.status();

  EXPECT_EQ(plan->num_components, permuted_plan->num_components);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      EXPECT_EQ(plan->component_of[u] == plan->component_of[v],
                permuted_plan->component_of[perm[u]] ==
                    permuted_plan->component_of[perm[v]])
          << "pair (" << u << ", " << v << ")";
    }
  }
}

TEST(DecomposeTest, SplitsOversizedComponentWithExactCutAccounting) {
  // One group of 24 identical objects: a single component of X = 0
  // pairs. Three fixed shards force capacity 8, so the component splits
  // into three parts of 8; every one of the 3 * 8 * 8 = 192 cross-part
  // pairs is a cut agreement edge with excess 1 - 2 * 0 = 1.
  const ClusteringSet input = PlantedInput(std::vector<std::size_t>(24, 0), 3);
  const auto source = LazySource(input);
  ShardOptions options;
  options.mode = ShardingMode::kFixed;
  options.num_shards = 3;
  Result<ShardPlan> plan = DecomposeAgreementGraph(*source, {}, options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_EQ(plan->num_components, 1u);
  EXPECT_EQ(plan->split_components, 1u);
  ASSERT_EQ(plan->shards.size(), 3u);
  for (const std::vector<std::size_t>& shard : plan->shards) {
    EXPECT_EQ(shard.size(), 8u);
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
  }
  EXPECT_EQ(plan->cut_edges, 192u);
  EXPECT_DOUBLE_EQ(plan->stitch_error_bound, 192.0);

  // Multiplicities weight the same accounting: doubling every node's
  // weight quadruples each pair's contribution.
  Result<ShardPlan> weighted = DecomposeAgreementGraph(
      *source, std::vector<double>(24, 2.0), options);
  ASSERT_TRUE(weighted.ok()) << weighted.status();
  EXPECT_EQ(weighted->cut_edges, 192u);
  EXPECT_DOUBLE_EQ(weighted->stitch_error_bound, 4.0 * 192.0);
}

TEST(DecomposeTest, PacksSmallComponentsTowardTheCap) {
  // Groups of 6, 6, 5, 5 under two fixed shards (capacity 11): first-fit
  // decreasing packs them pairwise without splitting anything.
  std::vector<std::size_t> groups;
  const std::size_t sizes[] = {6, 6, 5, 5};
  for (std::size_t g = 0; g < 4; ++g) {
    for (std::size_t i = 0; i < sizes[g]; ++i) groups.push_back(g);
  }
  const ClusteringSet input = PlantedInput(groups, 3);
  const auto source = LazySource(input);
  ShardOptions options;
  options.mode = ShardingMode::kFixed;
  options.num_shards = 2;
  Result<ShardPlan> plan = DecomposeAgreementGraph(*source, {}, options);
  ASSERT_TRUE(plan.ok()) << plan.status();

  EXPECT_EQ(plan->num_components, 4u);
  EXPECT_EQ(plan->split_components, 0u);
  EXPECT_EQ(plan->cut_edges, 0u);
  EXPECT_EQ(plan->stitch_error_bound, 0.0);
  ASSERT_EQ(plan->shards.size(), 2u);
  EXPECT_EQ(plan->shards[0].size() + plan->shards[1].size(), 22u);
  EXPECT_LE(plan->shards[0].size(), 11u);
  EXPECT_LE(plan->shards[1].size(), 11u);
  // Packing never splits a component across shards.
  for (std::size_t u = 0; u < groups.size(); ++u) {
    for (std::size_t v = u + 1; v < groups.size(); ++v) {
      if (groups[u] == groups[v]) {
        EXPECT_EQ(plan->shard_of[u], plan->shard_of[v]);
      }
    }
  }
}

// --------------------------------------------- equivalence properties

class ShardEquivalenceTest
    : public ::testing::TestWithParam<AggregationAlgorithm> {};

TEST_P(ShardEquivalenceTest, SingleShardIsBitIdenticalToUnsharded) {
  // Property (a): with everything in one shard, the sharded pipeline
  // must return the inner solve verbatim — same labels, same E_D — for
  // every algorithm x backend x fold combination.
  const AggregationAlgorithm algorithm = GetParam();
  // Small enough for the EXACT solver (n = 10 <= max_objects = 12), and
  // the distinct group sizes 1, 3, 6 keep move sweeps order-stable.
  const ClusteringSet input = PlantedInput(PlantedGroups(10, 3), 4);
  for (DistanceBackend backend :
       {DistanceBackend::kDense, DistanceBackend::kLazy}) {
    for (bool fold : {false, true}) {
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.backend = backend;
      options.fold = fold;
      Result<AggregationResult> plain = Aggregate(input, options);
      options.shard.mode = ShardingMode::kFixed;
      options.shard.num_shards = 1;
      Result<AggregationResult> sharded = Aggregate(input, options);
      ASSERT_TRUE(plain.ok()) << plain.status();
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      EXPECT_FALSE(plain->sharded);
      EXPECT_TRUE(sharded->sharded);
      EXPECT_EQ(sharded->shard_count, 1u);
      EXPECT_EQ(sharded->stitch_error_bound, 0.0);
      EXPECT_EQ(plain->clustering, sharded->clustering)
          << "backend " << static_cast<int>(backend) << " fold " << fold;
      EXPECT_EQ(plain->total_disagreements, sharded->total_disagreements);
      EXPECT_EQ(plain->folded, sharded->folded);
    }
  }
}

TEST_P(ShardEquivalenceTest, ShardedCostStaysWithinStitchBound) {
  // Property (b): cost(sharded) <= cost(unsharded) + stitch_error_bound.
  // Four fixed shards on a 2-group fixture (capacity 10 < both group
  // sizes) force both components to split, so the bound is strictly
  // positive and actually exercised.
  const AggregationAlgorithm algorithm = GetParam();
  std::vector<std::size_t> groups;
  for (std::size_t i = 0; i < 24; ++i) groups.push_back(0);
  for (std::size_t i = 0; i < 16; ++i) groups.push_back(1);
  Rng rng(5);
  for (std::size_t i = groups.size(); i > 1; --i) {
    std::swap(groups[i - 1], groups[rng.NextBounded(i)]);
  }
  const ClusteringSet input = PlantedInput(groups, 4);
  for (DistanceBackend backend :
       {DistanceBackend::kDense, DistanceBackend::kLazy}) {
    for (bool fold : {false, true}) {
      AggregatorOptions options;
      options.algorithm = algorithm;
      options.backend = backend;
      options.fold = fold;
      // EXACT on n = 40 falls back to BALLS + LOCALSEARCH unsharded
      // (allowed by default) while the per-shard solves of <= 12 folded
      // nodes may run EXACT proper — the inequality must hold across
      // that asymmetry too.
      Result<AggregationResult> plain = Aggregate(input, options);
      options.shard.mode = ShardingMode::kFixed;
      options.shard.num_shards = 4;
      Result<AggregationResult> sharded = Aggregate(input, options);
      ASSERT_TRUE(plain.ok()) << plain.status();
      ASSERT_TRUE(sharded.ok()) << sharded.status();
      ASSERT_TRUE(sharded->sharded);
      if (!fold) {
        // Unfolded: both 0/1-distance components exceed capacity 10.
        EXPECT_EQ(sharded->shard_components, 2u);
        EXPECT_GT(sharded->stitch_error_bound, 0.0);
      }
      EXPECT_LE(sharded->total_disagreements,
                plain->total_disagreements + sharded->stitch_error_bound +
                    1e-6)
          << "backend " << static_cast<int>(backend) << " fold " << fold;
      // The sharded result's cost is honest: scored on the full input.
      Result<double> rescored =
          input.TotalDisagreements(sharded->clustering);
      ASSERT_TRUE(rescored.ok());
      EXPECT_NEAR(sharded->total_disagreements, *rescored, 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ShardEquivalenceTest,
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

// ------------------------------------------------------- auto trigger

TEST(ShardAutoTest, StaysUnshardedBelowTheTrigger) {
  const ClusteringSet input = PlantedInput(PlantedGroups(60, 3), 4);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBalls;
  options.shard.mode = ShardingMode::kAuto;  // min_objects = 2048 > 60
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->sharded);
  EXPECT_EQ(result->shard_count, 0u);
}

TEST(ShardAutoTest, TriggersAboveTheConfiguredThresholds) {
  // Lowered thresholds: auto decomposes 24 objects (groups 12, 8, 4)
  // with capacity 8, splitting the 12-group and packing the rest.
  std::vector<std::size_t> groups;
  for (std::size_t i = 0; i < 12; ++i) groups.push_back(0);
  for (std::size_t i = 0; i < 8; ++i) groups.push_back(1);
  for (std::size_t i = 0; i < 4; ++i) groups.push_back(2);
  const ClusteringSet input = PlantedInput(groups, 3);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.shard.mode = ShardingMode::kAuto;
  options.shard.min_objects = 8;
  options.shard.max_shard_size = 8;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->sharded);
  EXPECT_EQ(result->shard_components, 3u);
  EXPECT_GT(result->shard_count, 1u);
  EXPECT_GT(result->stitch_error_bound, 0.0);  // the 12-group split

  AggregatorOptions plain_options;
  plain_options.algorithm = AggregationAlgorithm::kLocalSearch;
  Result<AggregationResult> plain = Aggregate(input, plain_options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_LE(result->total_disagreements,
            plain->total_disagreements + result->stitch_error_bound + 1e-6);
}

TEST(ShardAutoTest, FoldCompositionRecoversPlantedPartition) {
  // Each planted group duplicated heavily: folding collapses 80 objects
  // to 8 signatures, the auto re-check sees 8 nodes (>= min_objects = 4),
  // and the fold-space decomposition still recovers the groups. All
  // four on/off combinations land on the identical planted partition.
  std::vector<std::size_t> groups;
  for (std::size_t v = 0; v < 80; ++v) groups.push_back(v % 8 / 2);
  const ClusteringSet input = PlantedInput(groups, 4);
  for (bool fold : {false, true}) {
    for (bool shard : {false, true}) {
      AggregatorOptions options;
      options.algorithm = AggregationAlgorithm::kBalls;
      options.fold = fold;
      if (shard) {
        options.shard.mode = ShardingMode::kAuto;
        options.shard.min_objects = 4;
        options.shard.max_shard_size = 4096;
      }
      Result<AggregationResult> result = Aggregate(input, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->folded, fold);
      EXPECT_EQ(result->sharded, shard);
      if (shard) {
        // 4 planted groups = 4 agreement components in either space.
        EXPECT_EQ(result->shard_components, 4u);
        EXPECT_EQ(result->stitch_error_bound, 0.0);
      }
      if (fold && shard) {
        EXPECT_EQ(result->fold_signatures, 4u);
      }
      EXPECT_EQ(CanonicalPartition(result->clustering.labels()),
                CanonicalPartition(groups))
          << "fold " << fold << " shard " << shard;
    }
  }
}

// -------------------------------------------------- budget degradation

TEST(ShardBudgetTest, DegradesGracefullyAtEveryBudget) {
  // Sweep iteration budgets from starvation to abundance: every run must
  // return a complete clustering over all objects with a coherent
  // outcome, whether the budget fired during the agreement scan (falls
  // back to the unsharded pipeline), mid-solve (unsolved shards filled
  // with singletons), or never.
  const ClusteringSet input = PlantedInput(PlantedGroups(48, 3), 4);
  AggregatorOptions base;
  base.algorithm = AggregationAlgorithm::kLocalSearch;
  base.backend = DistanceBackend::kLazy;
  base.shard.mode = ShardingMode::kFixed;
  base.shard.num_shards = 3;

  Result<AggregationResult> unbudgeted = Aggregate(input, base);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status();
  EXPECT_EQ(unbudgeted->outcome, RunOutcome::kConverged);
  EXPECT_TRUE(unbudgeted->sharded);

  for (std::uint64_t budget : {1u, 8u, 64u, 256u, 1024u, 16384u}) {
    AggregatorOptions options = base;
    options.run = RunContext::WithIterationBudget(budget);
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok()) << "budget " << budget << ": "
                             << result.status();
    EXPECT_EQ(result->clustering.size(), 48u) << "budget " << budget;
    EXPECT_FALSE(result->clustering.HasMissing()) << "budget " << budget;
    if (result->outcome == RunOutcome::kConverged) {
      // Enough budget to finish means the full sharded answer.
      EXPECT_TRUE(result->sharded) << "budget " << budget;
      EXPECT_EQ(result->clustering, unbudgeted->clustering)
          << "budget " << budget;
    }
    // Starved runs may degrade three ways — scan interrupted (falls back
    // to unsharded, recorded in fallbacks), shards never started (filled
    // with singletons, recorded in fallbacks), or per-shard solves
    // returning best-so-far (tagged by outcome alone) — but the result
    // above is complete and scored either way.
  }

  // A generous budget converges to exactly the unbudgeted result.
  AggregatorOptions options = base;
  options.run = RunContext::WithIterationBudget(1u << 26);
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, RunOutcome::kConverged);
  EXPECT_EQ(result->clustering, unbudgeted->clustering);
}

// --------------------------------------------- size-capped LOCALSEARCH

TEST(MaxClusterSizeTest, CapsClusterSizesFromSingletonInit) {
  // With the default singleton init every intermediate partition
  // respects the cap (a move into a cluster is filtered unless the
  // result stays within it), so the final clusters all fit.
  const ClusteringSet input = NoisyInput(60, 5, 3, 21);
  for (std::size_t cap : {1u, 3u, 7u, 20u}) {
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kLocalSearch;
    options.max_cluster_size = cap;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok()) << result.status();
    std::map<Clustering::Label, std::size_t> sizes;
    for (std::size_t v = 0; v < result->clustering.size(); ++v) {
      ++sizes[result->clustering.label(v)];
    }
    for (const auto& [label, size] : sizes) {
      EXPECT_LE(size, cap) << "cap " << cap;
    }
  }
}

TEST(MaxClusterSizeTest, LooseCapMatchesUncappedRun) {
  const ClusteringSet input = NoisyInput(40, 5, 4, 22);
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  Result<AggregationResult> uncapped = Aggregate(input, options);
  options.max_cluster_size = 40;  // >= n: never filters anything
  Result<AggregationResult> capped = Aggregate(input, options);
  ASSERT_TRUE(uncapped.ok()) << uncapped.status();
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_EQ(uncapped->clustering, capped->clustering);
  EXPECT_EQ(uncapped->total_disagreements, capped->total_disagreements);
}

TEST(MaxClusterSizeTest, CountsFoldMultiplicitiesInObjectSpace) {
  // 30 objects = 10 signatures x 3 copies, all in one planted group.
  // Under folding a cluster's weighted size counts multiplicities, so a
  // cap of 6 admits at most 2 representatives (6 objects) per cluster —
  // checked after expansion back to object space.
  const ClusteringSet base = PlantedInput(std::vector<std::size_t>(10, 0), 3);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < base.num_clusterings(); ++i) {
    std::vector<Clustering::Label> labels(30);
    for (std::size_t v = 0; v < 30; ++v) {
      // Give each signature a distinct tuple: label = v % 10 in one
      // clustering, constant in the others.
      labels[v] = i == 0 ? static_cast<Clustering::Label>(v % 10) : 0;
    }
    clusterings.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(clusterings));
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.fold = true;
  options.max_cluster_size = 6;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->folded);
  std::map<Clustering::Label, std::size_t> sizes;
  for (std::size_t v = 0; v < result->clustering.size(); ++v) {
    ++sizes[result->clustering.label(v)];
  }
  for (const auto& [label, size] : sizes) EXPECT_LE(size, 6u);
}

TEST(MaxClusterSizeTest, FoldSkipsGroupsLargerThanTheCap) {
  // Objects 0 and 1 share a signature. A folded group is never split, so
  // under a cap of 1 the run must stay unfolded, on both the plain and
  // the sharded path, and every cluster must be a singleton.
  std::vector<Clustering> clusterings;
  clusterings.emplace_back(std::vector<Clustering::Label>{0, 0, 1});
  clusterings.emplace_back(std::vector<Clustering::Label>{0, 0, 1});
  const ClusteringSet input = *ClusteringSet::Create(std::move(clusterings));
  for (const ShardingMode mode : {ShardingMode::kOff, ShardingMode::kFixed}) {
    SCOPED_TRACE(mode == ShardingMode::kOff ? "unsharded" : "sharded");
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kLocalSearch;
    options.fold = true;
    options.max_cluster_size = 1;
    options.shard.mode = mode;
    options.shard.num_shards = 2;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->folded);
    EXPECT_EQ(result->fold_signatures, 2u);
    EXPECT_EQ(result->clustering.NumClusters(), 3u);
  }
}

// ------------------------------------------------------ stream rebuild

TEST(ShardStreamTest, RebuildRoutesThroughShardingPipeline) {
  // The first Flush always runs the full Aggregate rebuild; pointing
  // rebuild.shard at auto (with lowered thresholds) must flow through to
  // the sharded pipeline and still recover the planted partition,
  // identically to a stream rebuilt without sharding.
  const std::vector<std::size_t> groups = PlantedGroups(36, 3);
  StreamAggregatorOptions sharded_options;
  sharded_options.rebuild.algorithm = AggregationAlgorithm::kBalls;
  sharded_options.rebuild.shard.mode = ShardingMode::kAuto;
  sharded_options.rebuild.shard.min_objects = 4;
  StreamAggregatorOptions plain_options;
  plain_options.rebuild.algorithm = AggregationAlgorithm::kBalls;

  StreamAggregator sharded_stream(sharded_options);
  StreamAggregator plain_stream(plain_options);
  std::vector<Clustering::Label> labels(groups.size());
  for (std::size_t v = 0; v < groups.size(); ++v) {
    labels[v] = static_cast<Clustering::Label>(groups[v]);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        sharded_stream.Ingest(AddClusteringEvent{labels, 1.0}).ok());
    ASSERT_TRUE(plain_stream.Ingest(AddClusteringEvent{labels, 1.0}).ok());
  }
  Telemetry telemetry;
  Result<StreamFlushReport> sharded_report =
      sharded_stream.Flush(RunContext().WithTelemetry(&telemetry));
  Result<StreamFlushReport> plain_report = plain_stream.Flush();
  ASSERT_TRUE(sharded_report.ok()) << sharded_report.status();
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();
  EXPECT_TRUE(sharded_report->rebuilt);
  EXPECT_TRUE(plain_report->rebuilt);
  // The rebuild actually went through the sharding pipeline: its
  // decomposition gauges landed in the flush telemetry.
  EXPECT_NE(telemetry.ToJson().find("shard.count"), std::string::npos);
  EXPECT_EQ(sharded_stream.labels(), plain_stream.labels());
  EXPECT_EQ(CanonicalPartition(sharded_stream.labels().labels()),
            CanonicalPartition(groups));
  EXPECT_DOUBLE_EQ(sharded_stream.cost(), plain_stream.cost());
}

}  // namespace
}  // namespace clustagg
