// Randomized cross-module invariant sweeps ("stress tests"): every
// algorithm, on every randomized instance, must respect the structural
// invariants the framework promises. Seeds are fixed.

#include <gtest/gtest.h>

#include "clustagg/clustagg.h"

namespace clustagg {
namespace {

ClusteringSet RandomInput(std::size_t n, std::size_t m, std::size_t k,
                          double missing_rate, uint64_t seed) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = rng.NextBernoulli(missing_rate)
              ? Clustering::kMissing
              : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

const AggregationAlgorithm kAllAlgorithms[] = {
    AggregationAlgorithm::kBestClustering,
    AggregationAlgorithm::kBalls,
    AggregationAlgorithm::kAgglomerative,
    AggregationAlgorithm::kFurthest,
    AggregationAlgorithm::kLocalSearch,
    AggregationAlgorithm::kPivot,
    AggregationAlgorithm::kAnnealing,
    AggregationAlgorithm::kMajority,
};

class StressTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(StressTest, AllAlgorithmsRespectCoreInvariants) {
  const auto [seed, missing_rate] = GetParam();
  const ClusteringSet input = RandomInput(48, 5, 4, missing_rate,
                                          seed * 31 + 1);
  const double lower_bound = DisagreementLowerBound(input);

  for (AggregationAlgorithm algorithm : kAllAlgorithms) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.balls.alpha = 0.4;
    options.annealing.moves_per_temperature = 300;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok()) << AggregationAlgorithmName(algorithm);
    const Clustering& c = result->clustering;

    // Structural invariants.
    EXPECT_EQ(c.size(), input.num_objects());
    EXPECT_FALSE(c.HasMissing());
    EXPECT_TRUE(c.Validate().ok());
    EXPECT_TRUE(c.SamePartition(c.Normalized()));

    // Objective invariants: the reported score matches a recomputation
    // and respects the per-pair lower bound.
    Result<double> recomputed = input.TotalDisagreements(c);
    ASSERT_TRUE(recomputed.ok());
    EXPECT_NEAR(result->total_disagreements, *recomputed, 1e-6)
        << AggregationAlgorithmName(algorithm);
    EXPECT_GE(result->total_disagreements, lower_bound - 1e-6)
        << AggregationAlgorithmName(algorithm);
  }
}

TEST_P(StressTest, RefinementNeverIncreasesCost) {
  const auto [seed, missing_rate] = GetParam();
  const ClusteringSet input = RandomInput(40, 6, 3, missing_rate,
                                          seed * 53 + 7);
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBalls, AggregationAlgorithm::kAgglomerative,
        AggregationAlgorithm::kFurthest, AggregationAlgorithm::kPivot,
        AggregationAlgorithm::kMajority}) {
    AggregatorOptions plain;
    plain.algorithm = algorithm;
    Result<AggregationResult> rough = Aggregate(input, plain);
    ASSERT_TRUE(rough.ok());
    AggregatorOptions refined = plain;
    refined.refine_with_local_search = true;
    Result<AggregationResult> better = Aggregate(input, refined);
    ASSERT_TRUE(better.ok());
    EXPECT_LE(better->total_disagreements,
              rough->total_disagreements + 1e-6)
        << AggregationAlgorithmName(algorithm);
  }
}

TEST_P(StressTest, InputRelabelingDoesNotChangeTheInstance) {
  // Renaming cluster ids inside the input clusterings leaves X, and
  // hence every deterministic algorithm's output, unchanged.
  const auto [seed, missing_rate] = GetParam();
  const ClusteringSet input = RandomInput(30, 4, 4, missing_rate,
                                          seed * 97 + 11);
  std::vector<Clustering> renamed;
  for (std::size_t i = 0; i < input.num_clusterings(); ++i) {
    std::vector<Clustering::Label> labels(input.clustering(i).labels());
    for (auto& l : labels) {
      if (l != Clustering::kMissing) l = 1000 - l * 7;  // injective remap
    }
    renamed.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> other = ClusteringSet::Create(std::move(renamed));
  ASSERT_TRUE(other.ok());

  const CorrelationInstance a = CorrelationInstance::Build(input).value();
  const CorrelationInstance b =
      CorrelationInstance::Build(*other).value();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    for (std::size_t v = u + 1; v < a.size(); ++v) {
      EXPECT_EQ(a.distance(u, v), b.distance(u, v));
    }
  }
  Result<Clustering> ca = AgglomerativeClusterer().Run(a);
  Result<Clustering> cb = AgglomerativeClusterer().Run(b);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_TRUE(ca->SamePartition(*cb));
}

TEST_P(StressTest, UnanimousConsensusIsAlwaysFound) {
  // Whatever partition all inputs agree on, every algorithm returns it
  // with zero cost.
  const auto [seed, missing_rate] = GetParam();
  (void)missing_rate;  // unanimity requires complete inputs
  Rng rng(seed * 131 + 13);
  std::vector<Clustering::Label> labels(35);
  for (auto& l : labels) {
    l = static_cast<Clustering::Label>(rng.NextBounded(5));
  }
  const Clustering truth(std::move(labels));
  const ClusteringSet input =
      *ClusteringSet::Create({truth, truth, truth, truth});
  for (AggregationAlgorithm algorithm : kAllAlgorithms) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.annealing.moves_per_temperature = 300;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->total_disagreements, 0.0, 1e-9)
        << AggregationAlgorithmName(algorithm);
    EXPECT_TRUE(result->clustering.SamePartition(truth))
        << AggregationAlgorithmName(algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StressTest,
    ::testing::Combine(::testing::Range(1, 6),
                       ::testing::Values(0.0, 0.2)));

TEST(StressTest, SamplingConsistencyAcrossSampleSizes) {
  // Planted structure recovered at every sample size above the Chernoff
  // regime.
  Rng rng(5);
  const std::size_t n = 1200;
  std::vector<Clustering::Label> planted(n);
  for (std::size_t v = 0; v < n; ++v) {
    planted[v] = static_cast<Clustering::Label>(v % 5);
  }
  std::vector<Clustering> noisy;
  for (int i = 0; i < 6; ++i) {
    std::vector<Clustering::Label> labels(planted);
    for (auto& l : labels) {
      if (rng.NextBernoulli(0.1)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(5));
      }
    }
    noisy.emplace_back(std::move(labels));
  }
  const ClusteringSet input = *ClusteringSet::Create(std::move(noisy));
  const Clustering truth(std::move(planted));
  const AgglomerativeClusterer base;
  for (std::size_t sample : {100u, 200u, 400u}) {
    SamplingOptions options;
    options.sample_size = sample;
    options.seed = sample;
    Result<Clustering> result = SamplingAggregate(input, base, options);
    ASSERT_TRUE(result.ok());
    Result<double> ari = AdjustedRandIndex(*result, truth);
    EXPECT_GT(*ari, 0.95) << "sample=" << sample;
  }
}

}  // namespace
}  // namespace clustagg
