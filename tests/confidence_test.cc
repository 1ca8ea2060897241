// Tests for per-object assignment-confidence margins and for the shared
// MoveState bookkeeping they are built on.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustering_set.h"
#include "core/internal/move_state.h"
#include "core/local_search.h"
#include "eval/confidence.h"

namespace clustagg {
namespace {

CorrelationInstance InstanceFrom(std::vector<Clustering> clusterings) {
  return CorrelationInstance::Build(
      *ClusteringSet::Create(std::move(clusterings))).value();
}

// ----------------------------------------------------------- MoveState

TEST(MoveStateTest, EvaluateMovesMatchesDirectCost) {
  Rng rng(7);
  const std::size_t n = 15;
  std::vector<Clustering> inputs;
  for (int i = 0; i < 4; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(3));
    }
    inputs.emplace_back(std::move(labels));
  }
  const CorrelationInstance instance = InstanceFrom(std::move(inputs));

  std::vector<Clustering::Label> labels(n);
  for (auto& l : labels) {
    l = static_cast<Clustering::Label>(rng.NextBounded(3));
  }
  const Clustering start(std::move(labels));
  internal::MoveState state(instance, start);
  const Clustering norm = start.Normalized();
  const double base_cost = *instance.Cost(norm);

  for (std::size_t v = 0; v < n; ++v) {
    const auto [singleton_cost, join] = state.EvaluateMoves(v);
    const double stay = join[static_cast<std::size_t>(norm.label(v))];
    // Moving v to cluster j changes the total cost by join[j] - stay;
    // verify against a full recomputation.
    const auto k = static_cast<Clustering::Label>(norm.NumClusters());
    for (Clustering::Label target = 0; target <= k; ++target) {
      std::vector<Clustering::Label> moved(norm.labels());
      moved[v] = target;
      const double direct = *instance.Cost(Clustering(std::move(moved)));
      const double predicted =
          base_cost +
          (target == k ? singleton_cost : join[static_cast<std::size_t>(
                                              target)]) -
          stay;
      EXPECT_NEAR(direct, predicted, 1e-6) << "v=" << v
                                           << " target=" << target;
    }
  }
}

TEST(MoveStateTest, ApplyKeepsStateConsistent) {
  Rng rng(11);
  const std::size_t n = 12;
  std::vector<Clustering> inputs;
  for (int i = 0; i < 3; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(4));
    }
    inputs.emplace_back(std::move(labels));
  }
  const CorrelationInstance instance = InstanceFrom(std::move(inputs));
  internal::MoveState state(instance, Clustering::AllSingletons(n));

  // Random walk of moves; the state's clustering must always cost what a
  // fresh evaluation says, i.e. the incremental deltas add up.
  double tracked = *instance.Cost(state.ToClustering());
  for (int step = 0; step < 60; ++step) {
    const std::size_t v = rng.NextBounded(n);
    const std::size_t k = state.num_clusters();
    std::size_t target = rng.NextBounded(k + 1);
    if (target == k) target = internal::MoveState::kSingletonTarget;
    tracked += state.MoveDelta(v, target);
    state.Apply(v, target);
    EXPECT_NEAR(tracked, *instance.Cost(state.ToClustering()), 1e-6);
  }
}

// ---------------------------------------------------------- confidence

TEST(ConfidenceTest, ValidatesInput) {
  const CorrelationInstance instance =
      InstanceFrom({Clustering({0, 0, 1})});
  EXPECT_FALSE(AssignmentMargins(instance, Clustering({0, 1})).ok());
  EXPECT_FALSE(
      AssignmentMargins(instance,
                        Clustering({0, 1, Clustering::kMissing}))
          .ok());
}

TEST(ConfidenceTest, LocalOptimumHasNonNegativeMargins) {
  Rng rng(13);
  std::vector<Clustering> inputs;
  for (int i = 0; i < 5; ++i) {
    std::vector<Clustering::Label> labels(20);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(3));
    }
    inputs.emplace_back(std::move(labels));
  }
  const CorrelationInstance instance = InstanceFrom(std::move(inputs));
  Result<Clustering> local = LocalSearchClusterer().Run(instance);
  ASSERT_TRUE(local.ok());
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, *local);
  ASSERT_TRUE(margins.ok());
  for (double m : *margins) {
    EXPECT_GE(m, -1e-6);
  }
}

TEST(ConfidenceTest, MisplacedObjectHasNegativeMargin) {
  // Unanimous inputs say {0,1,2},{3,4,5}; plant object 0 on the wrong
  // side.
  const Clustering truth({0, 0, 0, 1, 1, 1});
  const CorrelationInstance instance =
      InstanceFrom({truth, truth, truth});
  const Clustering misplaced({1, 0, 0, 1, 1, 1});
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, misplaced);
  ASSERT_TRUE(margins.ok());
  EXPECT_LT((*margins)[0], 0.0);
  // The correctly placed objects are confident.
  EXPECT_GT((*margins)[2], 0.0);
}

TEST(ConfidenceTest, AmbiguousObjectHasSmallMargin) {
  // Objects 0..3 solidly together; object 4 is split 50/50 between the
  // group and loneliness.
  const Clustering a({0, 0, 0, 0, 0});
  const Clustering b({0, 0, 0, 0, 1});
  const CorrelationInstance instance = InstanceFrom({a, b});
  const Clustering candidate({0, 0, 0, 0, 0});
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, candidate);
  ASSERT_TRUE(margins.ok());
  // Object 4: moving to a singleton costs the same as staying.
  EXPECT_NEAR((*margins)[4], 0.0, 1e-6);
  EXPECT_GT((*margins)[0], 0.5);
}

TEST(ConfidenceTest, SeparatedSingletonIsConfident) {
  // Object 4 unanimously alone: no alternative is attractive.
  const Clustering truth({0, 0, 1, 1, 2});
  const CorrelationInstance instance =
      InstanceFrom({truth, truth, truth});
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, truth);
  ASSERT_TRUE(margins.ok());
  EXPECT_GT((*margins)[4], 1.0);
}

TEST(ConfidenceTest, MostAmbiguousOrdersByMargin) {
  const Clustering a({0, 0, 0, 0, 0, 1});
  const Clustering b({0, 0, 0, 0, 1, 1});
  const CorrelationInstance instance = InstanceFrom({a, b});
  const Clustering candidate({0, 0, 0, 0, 0, 1});
  Result<std::vector<std::size_t>> worst =
      MostAmbiguousObjects(instance, candidate, 2);
  ASSERT_TRUE(worst.ok());
  ASSERT_EQ(worst->size(), 2u);
  // Object 4 is the contested one.
  EXPECT_EQ((*worst)[0], 4u);
}

TEST(ConfidenceTest, NoiseObjectsScoreLowerThanCoreObjects) {
  // Planted clusters plus objects the inputs scatter randomly.
  Rng rng(17);
  const std::size_t core = 30;
  const std::size_t noise = 6;
  const std::size_t n = core + noise;
  std::vector<Clustering> inputs;
  for (int i = 0; i < 7; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < core; ++v) {
      labels[v] = static_cast<Clustering::Label>(v % 3);
    }
    for (std::size_t v = core; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(rng.NextBounded(3));
    }
    inputs.emplace_back(std::move(labels));
  }
  const CorrelationInstance instance = InstanceFrom(std::move(inputs));
  Result<Clustering> local = LocalSearchClusterer().Run(instance);
  ASSERT_TRUE(local.ok());
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, *local);
  ASSERT_TRUE(margins.ok());
  double core_mean = 0.0;
  double noise_mean = 0.0;
  for (std::size_t v = 0; v < core; ++v) core_mean += (*margins)[v];
  for (std::size_t v = core; v < n; ++v) noise_mean += (*margins)[v];
  core_mean /= static_cast<double>(core);
  noise_mean /= static_cast<double>(noise);
  EXPECT_GT(core_mean, noise_mean);
}

}  // namespace
}  // namespace clustagg
