// Tests for the SAMPLING meta-algorithm: planted-cluster recovery,
// singleton reclustering, stats reporting, and degenerate sizes.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/agglomerative.h"
#include "core/clustering_set.h"
#include "core/local_search.h"
#include "core/sampling.h"
#include "eval/metrics.h"

namespace clustagg {
namespace {

/// m noisy copies of a planted clustering: each object keeps its planted
/// label with probability 1 - noise and moves to a random cluster
/// otherwise.
ClusteringSet NoisyCopies(const Clustering& planted, std::size_t m,
                          double noise, uint64_t seed) {
  Rng rng(seed);
  const std::size_t k = planted.NumClusters();
  std::vector<Clustering> copies;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(planted.labels());
    for (auto& l : labels) {
      if (rng.NextBernoulli(noise)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(k));
      }
    }
    copies.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(copies));
}

Clustering Planted(std::size_t n, std::size_t k) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(v % k);
  }
  return Clustering(std::move(labels));
}

TEST(SamplingTest, RecoversPlantedClusters) {
  const std::size_t n = 2000;
  const Clustering planted = Planted(n, 4);
  const ClusteringSet input = NoisyCopies(planted, 7, 0.1, 42);

  SamplingOptions options;
  options.sample_size = 200;
  options.seed = 17;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  Result<Clustering> result =
      SamplingAggregate(input, base, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.sample_size, 200u);
  Result<double> ari = AdjustedRandIndex(*result, planted);
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.95);
}

TEST(SamplingTest, DefaultSampleSizeIsLogarithmic) {
  const Clustering planted = Planted(5000, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.05, 7);
  SamplingOptions options;  // sample_size = 0 -> factor * ln(n)
  options.sample_log_factor = 30.0;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  Result<Clustering> result =
      SamplingAggregate(input, base, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.sample_size, 100u);
  EXPECT_LT(stats.sample_size, 1000u);
}

TEST(SamplingTest, SampleCoveringEverythingMatchesDirectRun) {
  const std::size_t n = 60;
  const Clustering planted = Planted(n, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.05, 3);
  SamplingOptions options;
  options.sample_size = n;  // degenerate: sample everything
  const AgglomerativeClusterer base;
  Result<Clustering> sampled = SamplingAggregate(input, base, options);
  ASSERT_TRUE(sampled.ok());
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> direct = base.Run(instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(sampled->SamePartition(*direct));
}

TEST(SamplingTest, StatsPhasesAreReported) {
  const ClusteringSet input = NoisyCopies(Planted(500, 4), 5, 0.1, 9);
  SamplingOptions options;
  options.sample_size = 64;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  ASSERT_TRUE(SamplingAggregate(input, base, options, &stats).ok());
  EXPECT_EQ(stats.sample_size, 64u);
  EXPECT_GE(stats.sample_phase_seconds, 0.0);
  EXPECT_GE(stats.assign_phase_seconds, 0.0);
  EXPECT_GE(stats.recluster_phase_seconds, 0.0);
}

TEST(SamplingTest, ReclusterSingletonsReducesSingletonCount) {
  // Noise-heavy input leaves stragglers after assignment; reclustering
  // them should group some together (or at least not fail).
  const ClusteringSet input = NoisyCopies(Planted(800, 5), 5, 0.25, 31);
  const AgglomerativeClusterer base;

  SamplingOptions with;
  with.sample_size = 80;
  with.recluster_singletons = true;
  Result<Clustering> reclustered = SamplingAggregate(input, base, with);
  ASSERT_TRUE(reclustered.ok());

  SamplingOptions without = with;
  without.recluster_singletons = false;
  Result<Clustering> raw = SamplingAggregate(input, base, without);
  ASSERT_TRUE(raw.ok());

  auto singletons = [](const Clustering& c) {
    std::size_t count = 0;
    for (std::size_t s : c.ClusterSizes()) {
      if (s == 1) ++count;
    }
    return count;
  };
  EXPECT_LE(singletons(*reclustered), singletons(*raw));
}

TEST(SamplingTest, WorksWithLocalSearchBase) {
  const Clustering planted = Planted(600, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.08, 13);
  SamplingOptions options;
  options.sample_size = 100;
  const LocalSearchClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  Result<double> ari = AdjustedRandIndex(*result, planted);
  EXPECT_GT(*ari, 0.9);
}

TEST(SamplingTest, EmptyInput) {
  // Zero objects: trivially empty result.
  Result<ClusteringSet> input = ClusteringSet::Create({Clustering()});
  ASSERT_TRUE(input.ok());
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(*input, base, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(SamplingTest, TinyInput) {
  const ClusteringSet input = NoisyCopies(Planted(3, 2), 3, 0.0, 1);
  SamplingOptions options;
  options.sample_size = 2;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  EXPECT_FALSE(result->HasMissing());
}

TEST(SamplingTest, FullSampleMatchesDirectRunForEveryBase) {
  // sample == n degenerates to the base algorithm (assignment and
  // reclustering become no-ops on clean data) for every deterministic
  // base.
  const std::size_t n = 50;
  const Clustering planted = Planted(n, 3);
  const ClusteringSet input = NoisyCopies(planted, 5, 0.04, 29);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  SamplingOptions options;
  options.sample_size = n;

  const AgglomerativeClusterer agglomerative;
  const LocalSearchClusterer local_search;
  const CorrelationClusterer* bases[] = {&agglomerative, &local_search};
  for (const CorrelationClusterer* base : bases) {
    Result<Clustering> sampled = SamplingAggregate(input, *base, options);
    ASSERT_TRUE(sampled.ok()) << base->name();
    Result<Clustering> direct = base->Run(instance);
    ASSERT_TRUE(direct.ok()) << base->name();
    EXPECT_TRUE(sampled->SamePartition(*direct)) << base->name();
  }
}

TEST(SamplingTest, HugeSingletonPoolTriggersRecursionSafely) {
  // Inputs that agree on nothing: the assignment phase strands many
  // objects as singletons, exceeding the quadratic cap, and the
  // recursive SAMPLING path must still produce a complete clustering.
  Rng rng(41);
  const std::size_t n = 6000;
  std::vector<Clustering> chaos;
  for (int i = 0; i < 4; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(800));
    }
    chaos.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(chaos));
  SamplingOptions options;
  options.sample_size = 64;
  options.seed = 2;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(input, base, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), n);
  EXPECT_FALSE(result->HasMissing());
}

TEST(SamplingTest, UnbudgetedRunRecordsBuildTelemetry) {
  // A sink attached to an unlimited run must reach the sample and
  // recluster instance builds, not only budgeted runs.
  const ClusteringSet input = NoisyCopies(Planted(400, 4), 5, 0.15, 21);
  Telemetry telemetry;
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.sampling_size = 60;
  options.run = RunContext().WithTelemetry(&telemetry);
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(telemetry.counter("build.dense_builds")->value(), 1u);
}

TEST(SamplingTest, DeterministicForFixedSeed) {
  const ClusteringSet input = NoisyCopies(Planted(400, 4), 5, 0.15, 21);
  SamplingOptions options;
  options.sample_size = 60;
  options.seed = 5;
  const AgglomerativeClusterer base;
  Result<Clustering> a = SamplingAggregate(input, base, options);
  Result<Clustering> b = SamplingAggregate(input, base, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels(), b->labels());
}

}  // namespace
}  // namespace clustagg
