// Tests for the five aggregation / correlation-clustering algorithms:
// exact behavior on the paper's worked example, invariants (unanimous
// inputs, monotone local search), empirical approximation ratios against
// the exhaustive optimum, and option validation.

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/agglomerative.h"
#include "core/balls.h"
#include "core/best_clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/exact.h"
#include "core/furthest.h"
#include "core/local_search.h"

namespace clustagg {
namespace {

ClusteringSet Figure1Input() {
  return *ClusteringSet::Create({
      Clustering({0, 0, 1, 1, 2, 2}),
      Clustering({0, 1, 0, 1, 2, 3}),
      Clustering({0, 1, 0, 1, 2, 2}),
  });
}

ClusteringSet RandomInput(std::size_t n, std::size_t m, std::size_t k,
                          uint64_t seed) {
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

const Clustering kFigure1Optimum({0, 1, 0, 1, 2, 2});

// ------------------------------------------------------------- EXACT

TEST(ExactTest, SolvesFigure1) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  Result<Clustering> c = ExactClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(kFigure1Optimum));
  EXPECT_NEAR(*instance.Cost(*c), 5.0 / 3.0, 1e-6);
}

TEST(ExactTest, RefusesLargeInstances) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(20, 3, 3, 1)).value();
  Result<Clustering> c = ExactClusterer().Run(instance);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExactTest, EmptyInstance) {
  const CorrelationInstance instance;
  Result<Clustering> c = ExactClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 0u);
}

TEST(ExactTest, MatchesFullEnumerationCost) {
  // Cross-check the branch-and-bound against a no-pruning enumeration of
  // all partitions via restricted-growth strings, for several seeds.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 7;
    const CorrelationInstance instance =
        CorrelationInstance::Build(RandomInput(n, 4, 3, seed)).value();
    Result<Clustering> solved = ExactClusterer().Run(instance);
    ASSERT_TRUE(solved.ok());
    const double solved_cost = *instance.Cost(*solved);

    // Plain enumeration.
    std::vector<Clustering::Label> rgs(n, 0);
    double best = 1e18;
    // Iterate restricted growth strings: rgs[i] <= max(rgs[0..i-1]) + 1.
    for (;;) {
      best = std::min(best, *instance.Cost(Clustering(rgs)));
      // Increment.
      std::size_t i = n;
      while (i-- > 1) {
        Clustering::Label max_prefix = 0;
        for (std::size_t j = 0; j < i; ++j) {
          max_prefix = std::max(max_prefix, rgs[j]);
        }
        if (rgs[i] <= max_prefix) {
          ++rgs[i];
          for (std::size_t j = i + 1; j < n; ++j) rgs[j] = 0;
          break;
        }
        rgs[i] = 0;
      }
      if (i == 0) break;
    }
    EXPECT_NEAR(solved_cost, best, 1e-9) << "seed=" << seed;
  }
}

// ----------------------------------------------------------- BALLS

TEST(BallsTest, PracticalAlphaSolvesFigure1) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  BallsOptions options;
  options.alpha = 0.4;
  Result<Clustering> c = BallsClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(kFigure1Optimum));
}

TEST(BallsTest, AlphaValidation) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  BallsOptions options;
  options.alpha = 0.75;
  EXPECT_FALSE(BallsClusterer(options).Run(instance).ok());
  options.alpha = -0.1;
  EXPECT_FALSE(BallsClusterer(options).Run(instance).ok());
}

TEST(BallsTest, AlphaZeroSeparatesEverythingNoisy) {
  // With alpha = 0, a ball only forms when all members are at distance 0.
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(10, 5, 3, 3)).value();
  BallsOptions options;
  options.alpha = 0.0;
  Result<Clustering> c = BallsClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  // Noisy random input: no two objects at distance exactly 0 with high
  // probability, so everything is a singleton.
  EXPECT_EQ(c->NumClusters(), 10u);
}

TEST(BallsTest, UnanimousInputsRecovered) {
  const Clustering truth({0, 0, 0, 1, 1, 2, 2, 2});
  const ClusteringSet input = *ClusteringSet::Create({truth, truth, truth});
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> c = BallsClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(truth));
}

TEST(BallsTest, EmptyInstance) {
  const CorrelationInstance instance;
  Result<Clustering> c = BallsClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 0u);
}

// --------------------------------------------------- AGGLOMERATIVE

TEST(AgglomerativeTest, SolvesFigure1) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  Result<Clustering> c = AgglomerativeClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(kFigure1Optimum));
}

TEST(AgglomerativeTest, UnanimousInputsRecovered) {
  const Clustering truth({0, 1, 1, 0, 2, 2, 2});
  const ClusteringSet input = *ClusteringSet::Create({truth, truth});
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> c = AgglomerativeClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(truth));
}

TEST(AgglomerativeTest, OutputClustersHaveAverageDistanceBelowHalf) {
  // The paper's key property: within each output cluster, the average
  // pairwise distance is at most 1/2.
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(20, 5, 3, 7)).value();
  Result<Clustering> c = AgglomerativeClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  for (const auto& members : c->Clusters()) {
    if (members.size() < 2) continue;
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        total += instance.distance(members[i], members[j]);
        ++pairs;
      }
    }
    EXPECT_LE(total / static_cast<double>(pairs), 0.5 + 1e-9);
  }
}

TEST(AgglomerativeTest, TargetClustersOverridesThreshold) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(12, 4, 3, 9)).value();
  AgglomerativeOptions options;
  options.target_clusters = 4;
  Result<Clustering> c = AgglomerativeClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->NumClusters(), 4u);
}

// -------------------------------------------------------- FURTHEST

TEST(FurthestTest, SolvesFigure1) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  Result<Clustering> c = FurthestClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(kFigure1Optimum));
}

TEST(FurthestTest, UnanimousInputsRecovered) {
  const Clustering truth({0, 0, 1, 1, 1, 2});
  const ClusteringSet input = *ClusteringSet::Create({truth, truth, truth});
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> c = FurthestClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(truth));
}

TEST(FurthestTest, MaxCentersCapsClusterCount) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(15, 4, 5, 11)).value();
  FurthestOptions options;
  options.max_centers = 2;
  Result<Clustering> c = FurthestClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_LE(c->NumClusters(), 2u);
}

TEST(FurthestTest, SingleObject) {
  const ClusteringSet input = *ClusteringSet::Create({Clustering({0})});
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> c = FurthestClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->size(), 1u);
  EXPECT_EQ(c->NumClusters(), 1u);
}

// ----------------------------------------------------- LOCALSEARCH

TEST(LocalSearchTest, SolvesFigure1FromSingletons) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  Result<Clustering> c = LocalSearchClusterer().Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(kFigure1Optimum));
}

TEST(LocalSearchTest, AllInitModesReachLocalOptimum) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(14, 5, 3, 13)).value();
  for (LocalSearchOptions::Init init :
       {LocalSearchOptions::Init::kSingletons,
        LocalSearchOptions::Init::kSingleCluster,
        LocalSearchOptions::Init::kRandom}) {
    LocalSearchOptions options;
    options.init = init;
    Result<Clustering> c = LocalSearchClusterer(options).Run(instance);
    ASSERT_TRUE(c.ok());
    // Verify local optimality: no single-object move improves the cost.
    const double cost = *instance.Cost(*c);
    const std::size_t n = instance.size();
    const std::size_t k = c->NumClusters();
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t target = 0; target <= k; ++target) {
        std::vector<Clustering::Label> moved(c->labels());
        moved[v] = static_cast<Clustering::Label>(target);
        EXPECT_GE(*instance.Cost(Clustering(std::move(moved))) + 1e-6,
                  cost);
      }
    }
  }
}

TEST(LocalSearchTest, RunFromNeverWorsens) {
  Rng rng(17);
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(18, 4, 4, 17)).value();
  const LocalSearchClusterer refiner;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Clustering::Label> labels(18);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(5));
    }
    const Clustering initial(std::move(labels));
    Result<Clustering> improved = refiner.RunFrom(instance, initial);
    ASSERT_TRUE(improved.ok());
    EXPECT_LE(*instance.Cost(*improved),
              *instance.Cost(initial) + 1e-9);
  }
}

TEST(LocalSearchTest, RunFromValidatesInput) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  const LocalSearchClusterer refiner;
  EXPECT_FALSE(refiner.RunFrom(instance, Clustering({0, 1})).ok());
  EXPECT_FALSE(
      refiner
          .RunFrom(instance,
                   Clustering({0, 1, 2, 3, 4, Clustering::kMissing}))
          .ok());
}

TEST(LocalSearchTest, ShuffledOrderStillReachesLocalOptimum) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(12, 5, 3, 19)).value();
  LocalSearchOptions options;
  options.shuffle_order = true;
  options.seed = 5;
  Result<Clustering> c = LocalSearchClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c->NumClusters(), 0u);
}

// -------------------------------------------------- BESTCLUSTERING

TEST(BestClusteringTest, PicksTheMinimizer) {
  const ClusteringSet input = Figure1Input();
  Result<BestClusteringResult> best = BestClustering(input);
  ASSERT_TRUE(best.ok());
  // C3 equals the global optimum here, with D = 5.
  EXPECT_EQ(best->index, 2u);
  EXPECT_NEAR(best->total_disagreements, 5.0, 1e-9);
  EXPECT_TRUE(best->clustering.SamePartition(kFigure1Optimum));
}

TEST(BestClusteringTest, CompletesMissingAsSingletons) {
  Result<ClusteringSet> input = ClusteringSet::Create({
      Clustering({0, Clustering::kMissing, 0}),
      Clustering({0, 1, 0}),
  });
  ASSERT_TRUE(input.ok());
  Result<BestClusteringResult> best = BestClustering(*input);
  ASSERT_TRUE(best.ok());
  EXPECT_FALSE(best->clustering.HasMissing());
}

TEST(BestClusteringTest, WithinTwiceOptimal) {
  // The 2(1 - 1/m) guarantee, validated empirically against EXACT.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const ClusteringSet input = RandomInput(9, 4, 3, seed * 31);
    const CorrelationInstance instance =
        CorrelationInstance::Build(input).value();
    Result<Clustering> opt = ExactClusterer().Run(instance);
    ASSERT_TRUE(opt.ok());
    const double opt_d = *input.TotalDisagreements(*opt);
    Result<BestClusteringResult> best = BestClustering(input);
    ASSERT_TRUE(best.ok());
    EXPECT_LE(best->total_disagreements,
              2.0 * (1.0 - 1.0 / 4.0) * opt_d + 1e-6)
        << "seed=" << seed;
  }
}

// --------------------------------- empirical approximation ratios

class ApproximationRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(ApproximationRatioTest, AllAlgorithmsWithinProvenFactors) {
  const uint64_t seed = GetParam();
  const std::size_t n = 10;
  const ClusteringSet input = RandomInput(n, 5, 3, seed * 101 + 7);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> opt = ExactClusterer().Run(instance);
  ASSERT_TRUE(opt.ok());
  const double opt_cost = *instance.Cost(*opt);
  ASSERT_GT(opt_cost, 0.0);

  // BALLS at the theory constant: ratio <= 3 (Theorem 1).
  {
    Result<Clustering> c = BallsClusterer().Run(instance);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(*instance.Cost(*c), 3.0 * opt_cost + 1e-6) << "BALLS";
  }
  // The others carry no proven constant in general, but on these small
  // random instances they should be near-optimal; use a loose factor to
  // catch gross regressions without flaking (the seeds are fixed).
  {
    Result<Clustering> c = AgglomerativeClusterer().Run(instance);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(*instance.Cost(*c), 3.0 * opt_cost + 1e-6) << "AGGLOMERATIVE";
  }
  {
    Result<Clustering> c = FurthestClusterer().Run(instance);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(*instance.Cost(*c), 3.0 * opt_cost + 1e-6) << "FURTHEST";
  }
  {
    Result<Clustering> c = LocalSearchClusterer().Run(instance);
    ASSERT_TRUE(c.ok());
    EXPECT_LE(*instance.Cost(*c), 2.0 * opt_cost + 1e-6) << "LOCALSEARCH";
  }
}

TEST_P(ApproximationRatioTest, BallsTwoApproxForThreeClusterings) {
  // The paper proves ratio 2 for BALLS and AGGLOMERATIVE when m = 3.
  const uint64_t seed = GetParam();
  const ClusteringSet input = RandomInput(9, 3, 3, seed * 997 + 13);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  Result<Clustering> opt = ExactClusterer().Run(instance);
  ASSERT_TRUE(opt.ok());
  const double opt_cost = *instance.Cost(*opt);
  if (opt_cost == 0.0) return;

  Result<Clustering> balls = BallsClusterer().Run(instance);
  ASSERT_TRUE(balls.ok());
  EXPECT_LE(*instance.Cost(*balls), 2.0 * opt_cost + 1e-6);

  Result<Clustering> agglomerative =
      AgglomerativeClusterer().Run(instance);
  ASSERT_TRUE(agglomerative.ok());
  EXPECT_LE(*instance.Cost(*agglomerative), 2.0 * opt_cost + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationRatioTest,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace clustagg
