// Tests for weighted clustering aggregation: per-clustering weights
// generalize D(C) to sum_i w_i d(C_i, C); a weight-w input must behave
// exactly like w unit-weight copies.

#include <gtest/gtest.h>

#include "clustagg/clustagg.h"

namespace clustagg {
namespace {

constexpr Clustering::Label kMissing = Clustering::kMissing;

TEST(WeightedTest, CreateValidatesWeights) {
  const Clustering c({0, 1});
  EXPECT_FALSE(ClusteringSet::Create({c, c}, {1.0}).ok());
  EXPECT_FALSE(ClusteringSet::Create({c}, {0.0}).ok());
  EXPECT_FALSE(ClusteringSet::Create({c}, {-2.0}).ok());
  EXPECT_FALSE(
      ClusteringSet::Create({c}, {std::numeric_limits<double>::infinity()})
          .ok());
  Result<ClusteringSet> ok = ClusteringSet::Create({c, c}, {2.0, 0.5});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->weight(0), 2.0);
  EXPECT_DOUBLE_EQ(ok->total_weight(), 2.5);
}

TEST(WeightedTest, DefaultWeightsAreUnit) {
  const Clustering c({0, 1, 1});
  Result<ClusteringSet> set = ClusteringSet::Create({c, c, c});
  ASSERT_TRUE(set.ok());
  EXPECT_DOUBLE_EQ(set->weight(1), 1.0);
  EXPECT_DOUBLE_EQ(set->total_weight(), 3.0);
}

/// The core equivalence: weight w == w unit copies, for every derived
/// quantity.
class DuplicationEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DuplicationEquivalenceTest, WeightTwoEqualsTwoCopies) {
  Rng rng(GetParam() * 71);
  const std::size_t n = 20;
  auto random_clustering = [&](double missing_rate) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = rng.NextBernoulli(missing_rate)
              ? kMissing
              : static_cast<Clustering::Label>(rng.NextBounded(3));
    }
    return Clustering(std::move(labels));
  };
  const Clustering a = random_clustering(0.15);
  const Clustering b = random_clustering(0.15);
  const Clustering c = random_clustering(0.0);

  Result<ClusteringSet> weighted =
      ClusteringSet::Create({a, b, c}, {2.0, 1.0, 3.0});
  Result<ClusteringSet> duplicated =
      ClusteringSet::Create({a, a, b, c, c, c});
  ASSERT_TRUE(weighted.ok());
  ASSERT_TRUE(duplicated.ok());
  EXPECT_DOUBLE_EQ(weighted->total_weight(), duplicated->total_weight());

  for (MissingValuePolicy policy :
       {MissingValuePolicy::kRandomCoin, MissingValuePolicy::kIgnore}) {
    MissingValueOptions missing;
    missing.policy = policy;
    // X_uv identical.
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        EXPECT_NEAR(weighted->PairwiseDistance(u, v, missing),
                    duplicated->PairwiseDistance(u, v, missing), 1e-12);
      }
    }
    // D(C) identical for random candidates.
    for (int trial = 0; trial < 5; ++trial) {
      const Clustering candidate = random_clustering(0.0);
      EXPECT_NEAR(*weighted->TotalDisagreements(candidate, missing),
                  *duplicated->TotalDisagreements(candidate, missing),
                  1e-7);
    }
  }
  // Lower bound identical.
  EXPECT_NEAR(CorrelationInstance::DisagreementBound(*weighted).value(),
              CorrelationInstance::DisagreementBound(*duplicated).value(),
              1e-7);
  // And the aggregation result identical (deterministic algorithm).
  AggregatorOptions options;
  Result<AggregationResult> rw = Aggregate(*weighted, options);
  Result<AggregationResult> rd = Aggregate(*duplicated, options);
  ASSERT_TRUE(rw.ok());
  ASSERT_TRUE(rd.ok());
  EXPECT_TRUE(rw->clustering.SamePartition(rd->clustering));
  EXPECT_NEAR(rw->total_disagreements, rd->total_disagreements, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicationEquivalenceTest,
                         ::testing::Range(1, 8));

TEST(WeightedTest, DominantWeightWins) {
  // Two contradictory clusterings; the heavy one dictates the aggregate.
  const Clustering split({0, 0, 1, 1});
  const Clustering merged({0, 0, 0, 0});
  Result<ClusteringSet> set =
      ClusteringSet::Create({split, merged}, {10.0, 1.0});
  ASSERT_TRUE(set.ok());
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kExact;
  Result<AggregationResult> result = Aggregate(*set, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clustering.SamePartition(split));
  // Flipped weights flip the winner.
  Result<ClusteringSet> flipped =
      ClusteringSet::Create({split, merged}, {1.0, 10.0});
  Result<AggregationResult> other = Aggregate(*flipped, options);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->clustering.SamePartition(merged));
}

TEST(WeightedTest, WeightedSamplingRecoversPlanted) {
  // One good heavy clustering plus noisy light ones: sampling must
  // respect the weights end to end (histogram index + recluster).
  Rng rng(9);
  const std::size_t n = 900;
  std::vector<Clustering::Label> planted(n);
  for (std::size_t v = 0; v < n; ++v) {
    planted[v] = static_cast<Clustering::Label>(v % 4);
  }
  const Clustering truth(planted);
  std::vector<Clustering> inputs = {truth};
  std::vector<double> weights = {5.0};
  for (int i = 0; i < 4; ++i) {
    std::vector<Clustering::Label> noisy(planted);
    for (auto& l : noisy) {
      if (rng.NextBernoulli(0.5)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(4));
      }
    }
    inputs.emplace_back(std::move(noisy));
    weights.push_back(1.0);
  }
  Result<ClusteringSet> set =
      ClusteringSet::Create(std::move(inputs), std::move(weights));
  ASSERT_TRUE(set.ok());
  SamplingOptions options;
  options.sample_size = 150;
  options.seed = 3;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(*set, base, options);
  ASSERT_TRUE(result.ok());
  Result<double> ari = AdjustedRandIndex(*result, truth);
  EXPECT_GT(*ari, 0.95);
}

TEST(WeightedTest, BestClusteringUsesWeightedScore) {
  const Clustering a({0, 0, 1, 1});
  const Clustering b({0, 1, 0, 1});
  // With b dominant, D(b) < D(a).
  Result<ClusteringSet> set = ClusteringSet::Create({a, b}, {1.0, 3.0});
  ASSERT_TRUE(set.ok());
  Result<BestClusteringResult> best = BestClustering(*set);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->index, 1u);
}

}  // namespace
}  // namespace clustagg
