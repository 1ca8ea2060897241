// Tests for the Aggregate facade and MakeClusterer factory.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/aggregator.h"

namespace clustagg {
namespace {

ClusteringSet Figure1Input() {
  return *ClusteringSet::Create({
      Clustering({0, 0, 1, 1, 2, 2}),
      Clustering({0, 1, 0, 1, 2, 3}),
      Clustering({0, 1, 0, 1, 2, 2}),
  });
}

const Clustering kFigure1Optimum({0, 1, 0, 1, 2, 2});

TEST(AggregatorTest, EveryAlgorithmRunsOnFigure1) {
  const ClusteringSet input = Figure1Input();
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBestClustering, AggregationAlgorithm::kBalls,
        AggregationAlgorithm::kAgglomerative,
        AggregationAlgorithm::kFurthest, AggregationAlgorithm::kLocalSearch,
        AggregationAlgorithm::kExact}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.balls.alpha = 0.4;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok()) << AggregationAlgorithmName(algorithm);
    EXPECT_EQ(result->clustering.size(), 6u);
    EXPECT_FALSE(result->clustering.HasMissing());
    // All of them find the optimum here (BALLS thanks to alpha = 0.4).
    EXPECT_TRUE(result->clustering.SamePartition(kFigure1Optimum))
        << AggregationAlgorithmName(algorithm);
    EXPECT_NEAR(result->total_disagreements, 5.0, 1e-6)
        << AggregationAlgorithmName(algorithm);
  }
}

TEST(AggregatorTest, AlgorithmNames) {
  EXPECT_STREQ(
      AggregationAlgorithmName(AggregationAlgorithm::kBestClustering),
      "BESTCLUSTERING");
  EXPECT_STREQ(AggregationAlgorithmName(AggregationAlgorithm::kBalls),
               "BALLS");
  EXPECT_STREQ(
      AggregationAlgorithmName(AggregationAlgorithm::kAgglomerative),
      "AGGLOMERATIVE");
  EXPECT_STREQ(AggregationAlgorithmName(AggregationAlgorithm::kFurthest),
               "FURTHEST");
  EXPECT_STREQ(AggregationAlgorithmName(AggregationAlgorithm::kLocalSearch),
               "LOCALSEARCH");
  EXPECT_STREQ(AggregationAlgorithmName(AggregationAlgorithm::kExact),
               "EXACT");
}

TEST(AggregatorTest, MakeClustererRejectsBestClustering) {
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kBestClustering;
  EXPECT_FALSE(MakeClusterer(options).ok());
}

TEST(AggregatorTest, MakeClustererBuildsEachAlgorithm) {
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBalls, AggregationAlgorithm::kAgglomerative,
        AggregationAlgorithm::kFurthest, AggregationAlgorithm::kLocalSearch,
        AggregationAlgorithm::kExact}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    Result<std::unique_ptr<CorrelationClusterer>> clusterer =
        MakeClusterer(options);
    ASSERT_TRUE(clusterer.ok());
    EXPECT_EQ((*clusterer)->name(), AggregationAlgorithmName(algorithm));
  }
}

TEST(AggregatorTest, RefineWithLocalSearchNeverWorsens) {
  const ClusteringSet input = Figure1Input();
  AggregatorOptions plain;
  plain.algorithm = AggregationAlgorithm::kBalls;
  plain.balls.alpha = 0.25;  // known to shatter this instance
  Result<AggregationResult> rough = Aggregate(input, plain);
  ASSERT_TRUE(rough.ok());

  AggregatorOptions refined = plain;
  refined.refine_with_local_search = true;
  Result<AggregationResult> better = Aggregate(input, refined);
  ASSERT_TRUE(better.ok());
  EXPECT_LE(better->total_disagreements,
            rough->total_disagreements + 1e-9);
  // On this instance refinement reaches the optimum.
  EXPECT_NEAR(better->total_disagreements, 5.0, 1e-6);
}

TEST(AggregatorTest, SamplingPathProducesCompleteClustering) {
  // Build a larger unanimous input so sampling has something to chew on.
  std::vector<Clustering::Label> labels(300);
  for (std::size_t i = 0; i < 300; ++i) {
    labels[i] = static_cast<Clustering::Label>(i / 100);
  }
  const Clustering truth(labels);
  const ClusteringSet input =
      *ClusteringSet::Create({truth, truth, truth});
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.sampling_size = 50;
  options.sampling.seed = 3;
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clustering.SamePartition(truth));
  EXPECT_NEAR(result->total_disagreements, 0.0, 1e-9);
}

TEST(AggregatorTest, ExactIgnoresSamplingRequest) {
  const ClusteringSet input = Figure1Input();
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  options.sampling_size = 3;  // must be ignored for the exact solver
  Result<AggregationResult> result = Aggregate(input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_disagreements, 5.0, 1e-9);
}

TEST(AggregatorTest, ExactIgnoresSamplingEvenWhenItFallsBack) {
  // Regression: sampling eligibility is decided by the *requested*
  // algorithm. When EXACT on a large input degrades to BALLS +
  // LOCALSEARCH, the documented "sampling_size is ignored for kExact"
  // contract must survive the swap — the fallback run must match the
  // non-sampled BALLS reference, not a sampled one.
  std::vector<Clustering::Label> labels(120);
  for (std::size_t i = 0; i < 120; ++i) {
    labels[i] = static_cast<Clustering::Label>((i * 7) % 5);
  }
  const Clustering base(labels);
  const ClusteringSet input = *ClusteringSet::Create({base, base, base});

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;  // 120 >> tractable
  options.sampling_size = 20;
  options.sampling.seed = 5;
  options.num_threads = 1;
  Result<AggregationResult> fell_back = Aggregate(input, options);
  ASSERT_TRUE(fell_back.ok());
  ASSERT_FALSE(fell_back->fallbacks.empty());

  AggregatorOptions reference = options;
  reference.algorithm = AggregationAlgorithm::kBalls;
  reference.refine_with_local_search = true;
  reference.sampling_size = 0;  // what "ignored" must mean
  Result<AggregationResult> expected = Aggregate(input, reference);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(fell_back->clustering.SamePartition(expected->clustering));
  EXPECT_DOUBLE_EQ(fell_back->total_disagreements,
                   expected->total_disagreements);
}

TEST(AggregatorTest, SamplingRejectsClusterSizeCap) {
  // SAMPLING's assignment cannot honour a cap: on 40 identical objects
  // with a cap of 5 and a 20-object sample it used to return a cluster
  // of 25 objects (40 with folding). The combination is now rejected.
  const Clustering same(std::vector<Clustering::Label>(40, 0));
  const ClusteringSet input = *ClusteringSet::Create({same, same, same});
  for (const bool fold : {false, true}) {
    SCOPED_TRACE(fold ? "folded" : "unfolded");
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kLocalSearch;
    options.max_cluster_size = 5;
    options.sampling_size = 20;
    options.fold = fold;
    EXPECT_EQ(Aggregate(input, options).status().code(),
              StatusCode::kInvalidArgument);

    options.sampling_size = 0;
    Result<AggregationResult> capped = Aggregate(input, options);
    ASSERT_TRUE(capped.ok()) << capped.status();
    std::map<Clustering::Label, std::size_t> sizes;
    for (std::size_t v = 0; v < input.num_objects(); ++v) {
      ++sizes[capped->clustering.label(v)];
    }
    for (const auto& [label, size] : sizes) EXPECT_LE(size, 5u);
  }
  // kExact and kBestClustering never sample, so they keep running.
  for (const AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kExact, AggregationAlgorithm::kBestClustering}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.max_cluster_size = 5;
    options.sampling_size = 20;
    EXPECT_TRUE(Aggregate(input, options).ok())
        << AggregationAlgorithmName(algorithm);
  }
}

TEST(AggregatorTest, UnanimousInputsCostZero) {
  const Clustering truth({0, 0, 1, 2, 2});
  const ClusteringSet input = *ClusteringSet::Create({truth, truth});
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBestClustering, AggregationAlgorithm::kBalls,
        AggregationAlgorithm::kAgglomerative,
        AggregationAlgorithm::kFurthest,
        AggregationAlgorithm::kLocalSearch}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    Result<AggregationResult> result = Aggregate(input, options);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->total_disagreements, 0.0, 1e-9)
        << AggregationAlgorithmName(algorithm);
    EXPECT_TRUE(result->clustering.SamePartition(truth))
        << AggregationAlgorithmName(algorithm);
  }
}

TEST(AggregatorTest, RejectsCoinProbabilityOutsideUnitInterval) {
  const ClusteringSet input = *ClusteringSet::Create({
      Clustering({0, 0, 1, Clustering::kMissing}),
      Clustering({0, 0, 1, 1}),
  });
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBestClustering,
        AggregationAlgorithm::kLocalSearch}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    options.missing.coin_together_probability = 7.0;
    EXPECT_EQ(Aggregate(input, options).status().code(),
              StatusCode::kInvalidArgument)
        << AggregationAlgorithmName(algorithm);
  }
}

TEST(AggregatorTest, MissingPolicyIsForwarded) {
  Result<ClusteringSet> input = ClusteringSet::Create({
      Clustering({0, 0, 1, Clustering::kMissing}),
      Clustering({0, 0, 1, 1}),
  });
  ASSERT_TRUE(input.ok());
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  options.missing.policy = MissingValuePolicy::kIgnore;
  Result<AggregationResult> result = Aggregate(*input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->clustering.HasMissing());
}

}  // namespace
}  // namespace clustagg
