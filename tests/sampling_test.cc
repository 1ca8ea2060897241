// Tests for the SAMPLING meta-algorithm: planted-cluster recovery,
// singleton reclustering, stats reporting, and degenerate sizes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/check.h"
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

// An iteration budget that fires mid-assignment: the assignment polls
// every 16 objects, so the runs stop at the same object, tag it
// kDeadlineExceeded and leave every unsampled object from the cutoff on
// a singleton (the re-clustering phase is skipped).
TEST(SamplingTest, IterationBudgetCutsTheAssignmentAtAPoll) {
  const std::size_t n = 2000;
  const ClusteringSet input = NoisyCopies(Planted(n, 4), 5, 0.05, 3);
  SamplingOptions options;
  options.sample_size = 100;
  options.seed = 8;
  auto run_once = [&] {
    Result<ClustererRun> result = SamplingAggregateControlled(
        input, AgglomerativeClusterer(),
        RunContext::WithIterationBudget(1000), options);
    CLUSTAGG_CHECK(result.ok());
    return std::move(result).value();
  };
  const ClustererRun first = run_once();
  const ClustererRun second = run_once();
  EXPECT_EQ(first.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(second.outcome, RunOutcome::kDeadlineExceeded);
  EXPECT_EQ(first.clustering.labels(), second.clustering.labels());

  // The uniform sample, drawn as SAMPLING draws it.
  std::vector<bool> in_sample(n, false);
  for (std::size_t v : Rng(options.seed).SampleWithoutReplacement(
           n, options.sample_size)) {
    in_sample[v] = true;
  }
  const std::vector<std::size_t> sizes = first.clustering.ClusterSizes();
  auto singleton = [&](std::size_t v) {
    return sizes[static_cast<std::size_t>(first.clustering.label(v))] == 1;
  };
  // The cutoff: the first unsampled object from which on every unsampled
  // object is a singleton.
  std::size_t cutoff = n;
  while (cutoff > 0 && (in_sample[cutoff - 1] || singleton(cutoff - 1))) {
    --cutoff;
  }
  while (cutoff < n && in_sample[cutoff]) ++cutoff;
  ASSERT_LT(cutoff, n);
  // A poll boundary, and the one the sample phase's charges plus 16 per
  // poll reach: a different poll cadence moves it.
  EXPECT_EQ(cutoff % 16, 0u);
  EXPECT_EQ(cutoff, 848u);
  std::size_t assigned = 0;
  for (std::size_t v = 0; v < cutoff; ++v) {
    if (!in_sample[v] && !singleton(v)) ++assigned;
  }
  EXPECT_GT(assigned, 0u);
}

/// FNV-1a over a clustering's labels: one number pinning the whole vector.
std::uint64_t LabelHash(const Clustering& c) {
  std::uint64_t h = 1469598103934665603ull;
  for (Clustering::Label label : c.labels()) {
    h ^= static_cast<std::uint32_t>(label);
    h *= 1099511628211ull;
  }
  return h;
}

/// (label hash, bit pattern of the total disagreement) of one run.
using Bits = std::pair<std::uint64_t, std::uint64_t>;

/// SAMPLING with AGGLOMERATIVE under `missing`, pinned as Bits.
Bits SampledBits(const ClusteringSet& input, std::size_t sample_size,
                 const MissingValueOptions& missing) {
  SamplingOptions options;
  options.sample_size = sample_size;
  options.seed = 11;
  options.missing = missing;
  Result<Clustering> result =
      SamplingAggregate(input, AgglomerativeClusterer(), options);
  EXPECT_TRUE(result.ok());
  if (!result.ok()) return {0, 0};
  Result<double> total = input.TotalDisagreements(*result, missing);
  EXPECT_TRUE(total.ok());
  if (!total.ok()) return {0, 0};
  return {LabelHash(*result), std::bit_cast<std::uint64_t>(*total)};
}

// Golden pin for the assignment phase under kRandomCoin: label hashes and
// total-disagreement bits of fixed seeded runs. Each M(v, C_j) adds one
// weighted term per input in input order; the weights are decimal
// fractions (0.1 + 0.2 != 0.3 in binary), so summing the inputs in
// reverse order flips a near-tie of the p = 0.3 run and breaks its pin.
TEST(SamplingTest, AssignmentGoldenBits) {
  const std::size_t n = 1500;
  const std::vector<double> weights = {0.1, 0.2, 0.3, 0.6, 0.7, 1.3};
  MissingValueOptions fair;
  MissingValueOptions biased;
  biased.coin_together_probability = 0.3;

  // Non-unit weights over noisy copies of six planted groups with 20%
  // of the labels missing.
  {
    Rng rng(2005);
    std::vector<Clustering> inputs;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = static_cast<Clustering::Label>(
            rng.NextBernoulli(0.3) ? rng.NextBounded(6) : v % 6);
        if (rng.NextBernoulli(0.2)) labels[v] = Clustering::kMissing;
      }
      inputs.emplace_back(std::move(labels));
    }
    const ClusteringSet input = *ClusteringSet::Create(inputs, weights);
    EXPECT_EQ(SampledBits(input, 90, fair),
              (Bits{0x3343453ac7e575bdu, 0x412b46929999999au}));
    EXPECT_EQ(SampledBits(input, 90, biased),
              (Bits{0xef9ef312ba523f33u, 0x412499baae147ae1u}));
  }

  // A singleton-heavy sample: labels are nearly unique per input, so
  // the sample clusters are mostly singletons (k close to the sample
  // size) and every sample label gets a cost row of its own.
  {
    Rng rng(77);
    std::vector<Clustering> inputs;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = static_cast<Clustering::Label>(
            i < 3 ? v / (i + 2) : rng.NextBounded(5000));
      }
      inputs.emplace_back(std::move(labels));
    }
    const ClusteringSet input = *ClusteringSet::Create(inputs, weights);
    EXPECT_EQ(SampledBits(input, 120, fair),
              (Bits{0x0d2f9ef472ff5f17u, 0x4099320000000000u}));
  }

  // Labels near INT32_MAX, with missing labels.
  {
    constexpr Clustering::Label kTop =
        std::numeric_limits<Clustering::Label>::max();
    Rng rng(4242);
    std::vector<Clustering> inputs;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = kTop - static_cast<Clustering::Label>(
                               rng.NextBernoulli(0.25) ? rng.NextBounded(8)
                                                       : v % 5);
        if (rng.NextBernoulli(0.1)) labels[v] = Clustering::kMissing;
      }
      inputs.emplace_back(std::move(labels));
    }
    const ClusteringSet input = *ClusteringSet::Create(inputs, weights);
    EXPECT_EQ(SampledBits(input, 80, biased),
              (Bits{0xc769cc8e2aeaa039u, 0x4120211bb851eb85u}));
  }
}

}  // namespace
}  // namespace clustagg
