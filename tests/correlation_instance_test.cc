// Tests for CorrelationInstance: construction, the cost function, the
// lower bound, and the triangle-inequality guarantee for instances built
// from clusterings (the property the BALLS analysis needs).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/disagreement.h"
#include "core/lower_bound.h"

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
                          uint64_t seed, double missing_rate = 0.0) {
  Rng rng(seed);
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(missing_rate)
                      ? Clustering::kMissing
                      : static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings));
}

TEST(CorrelationInstanceTest, FromDistancesValidatesRange) {
  SymmetricMatrix<float> good(3, 0.5f);
  EXPECT_TRUE(CorrelationInstance::FromDistances(good).ok());
  SymmetricMatrix<float> bad(3, 1.5f);
  EXPECT_FALSE(CorrelationInstance::FromDistances(bad).ok());
  SymmetricMatrix<float> negative(3, -0.1f);
  EXPECT_FALSE(CorrelationInstance::FromDistances(negative).ok());
}

TEST(CorrelationInstanceTest, FromClusteringsMatchesPairwise) {
  const ClusteringSet input = Figure1Input();
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  ASSERT_EQ(instance.size(), 6u);
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_NEAR(instance.distance(u, v), input.PairwiseDistance(u, v),
                  1e-6);
    }
  }
}

TEST(CorrelationInstanceTest, CostOfFigure1Optimum) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  // d(C) = D(C) / m = 5 / 3.
  EXPECT_NEAR(*instance.Cost(Clustering({0, 1, 0, 1, 2, 2})), 5.0 / 3.0,
              1e-6);
}

TEST(CorrelationInstanceTest, CostValidatesCandidate) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  EXPECT_FALSE(instance.Cost(Clustering({0, 1})).ok());
  EXPECT_FALSE(
      instance.Cost(Clustering({0, 1, 0, 1, 2, Clustering::kMissing})).ok());
}

// d_corr(C) * m == D(C) for complete inputs — the reduction of Problem 1
// to Problem 2.
class CostIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(CostIdentityTest, CorrelationCostTimesMEqualsTotalDisagreements) {
  Rng rng(GetParam() * 7919);
  const std::size_t n = 18;
  const std::size_t m = 5;
  const ClusteringSet input = RandomInput(n, m, 3, GetParam());
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(rng.NextBounded(4));
    }
    const Clustering candidate(std::move(labels));
    EXPECT_NEAR(static_cast<double>(m) * *instance.Cost(candidate),
                *input.TotalDisagreements(candidate), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostIdentityTest, ::testing::Range(1, 9));

// Instances built from clusterings satisfy the triangle inequality, both
// with complete inputs and under either missing-value policy.
class TriangleInequalityTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TriangleInequalityTest, HoldsForBuiltInstances) {
  const auto [seed, missing_rate] = GetParam();
  const ClusteringSet input = RandomInput(15, 4, 3, seed, missing_rate);
  // The coin policy preserves the triangle inequality (each clustering's
  // expected pair indicator is still a pseudometric). The kIgnore policy
  // does not in general, because its per-pair normalization differs.
  MissingValueOptions missing;
  missing.policy = MissingValuePolicy::kRandomCoin;
  const CorrelationInstance instance =
      CorrelationInstance::Build(input, missing).value();
  EXPECT_TRUE(instance.SatisfiesTriangleInequality(1e-5))
      << "seed=" << seed << " missing=" << missing_rate;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TriangleInequalityTest,
    ::testing::Combine(::testing::Range(1, 6),
                       ::testing::Values(0.0, 0.15, 0.4)));

TEST(CorrelationInstanceTest, TriangleInequalityDetectorFindsViolations) {
  SymmetricMatrix<float> m(3, 0.0f);
  m.Set(0, 1, 0.1f);
  m.Set(1, 2, 0.1f);
  m.Set(0, 2, 0.9f);  // 0.9 > 0.1 + 0.1
  Result<CorrelationInstance> instance =
      CorrelationInstance::FromDistances(m);
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(instance->SatisfiesTriangleInequality());
}

TEST(CorrelationInstanceTest, LowerBoundIsMinPerPair) {
  SymmetricMatrix<float> m(3, 0.0f);
  m.Set(0, 1, 0.2f);
  m.Set(0, 2, 0.7f);
  m.Set(1, 2, 0.5f);
  const CorrelationInstance instance =
      *CorrelationInstance::FromDistances(m);
  EXPECT_NEAR(instance.LowerBound(), 0.2 + 0.3 + 0.5, 1e-6);
}

TEST(CorrelationInstanceTest, LowerBoundBelowEveryCandidateCost) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(RandomInput(10, 4, 3, 77)).value();
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Clustering::Label> labels(10);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(5));
    }
    EXPECT_LE(instance.LowerBound(),
              *instance.Cost(Clustering(std::move(labels))) + 1e-9);
  }
}

TEST(LowerBoundTest, MatchesInstanceLowerBoundTimesM) {
  const ClusteringSet input = RandomInput(12, 5, 3, 99);
  const CorrelationInstance instance =
      CorrelationInstance::Build(input).value();
  EXPECT_NEAR(DisagreementLowerBound(input), 5.0 * instance.LowerBound(),
              1e-3);
}

TEST(LowerBoundTest, ZeroForUnanimousInputs) {
  const Clustering c({0, 0, 1, 1});
  const ClusteringSet input = *ClusteringSet::Create({c, c, c});
  EXPECT_NEAR(DisagreementLowerBound(input), 0.0, 1e-12);
}

TEST(CorrelationInstanceTest, SubsetInstanceMatchesRestriction) {
  const ClusteringSet input = RandomInput(20, 4, 3, 123);
  const std::vector<std::size_t> subset = {1, 4, 7, 13, 19};
  const CorrelationInstance sub =
      CorrelationInstance::BuildSubset(input, subset).value();
  ASSERT_EQ(sub.size(), subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = 0; j < subset.size(); ++j) {
      EXPECT_NEAR(sub.distance(i, j),
                  input.PairwiseDistance(subset[i], subset[j]), 1e-6);
    }
  }
}

TEST(CorrelationInstanceTest, TotalIncidentWeights) {
  SymmetricMatrix<float> m(3, 0.0f);
  m.Set(0, 1, 0.5f);
  m.Set(0, 2, 0.25f);
  m.Set(1, 2, 1.0f);
  const CorrelationInstance instance =
      *CorrelationInstance::FromDistances(m);
  const auto weights = instance.TotalIncidentWeights();
  EXPECT_NEAR(weights[0], 0.75, 1e-6);
  EXPECT_NEAR(weights[1], 1.5, 1e-6);
  EXPECT_NEAR(weights[2], 1.25, 1e-6);
}

}  // namespace
}  // namespace clustagg
