// Tests for the disagreement distance: definition-level correctness,
// agreement of the naive and contingency-table implementations, and the
// metric properties the paper relies on (Observation 1).

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/disagreement.h"

namespace clustagg {
namespace {

Clustering RandomClustering(std::size_t n, std::size_t max_clusters,
                            Rng* rng) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    labels[v] = static_cast<Clustering::Label>(
        rng->NextBounded(max_clusters));
  }
  return Clustering(std::move(labels));
}

TEST(DisagreementTest, IdenticalClusteringsHaveZeroDistance) {
  const Clustering c({0, 0, 1, 1, 2});
  EXPECT_EQ(*DisagreementDistance(c, c), 0u);
  EXPECT_EQ(*DisagreementDistanceNaive(c, c), 0u);
}

TEST(DisagreementTest, LabelNamesDoNotMatter) {
  const Clustering a({0, 0, 1, 1});
  const Clustering b({7, 7, 3, 3});
  EXPECT_EQ(*DisagreementDistance(a, b), 0u);
}

TEST(DisagreementTest, SingletonsVsOneCluster) {
  // Every pair disagrees: n choose 2.
  const std::size_t n = 10;
  const Clustering s = Clustering::AllSingletons(n);
  const Clustering o = Clustering::SingleCluster(n);
  EXPECT_EQ(*DisagreementDistance(s, o), n * (n - 1) / 2);
}

TEST(DisagreementTest, PaperFigure1Distances) {
  // d(C1, C) = 4 and d(C2, C) = 1, d(C3, C) = 0 for the optimum C of the
  // worked example — total 5 as stated in the introduction.
  const Clustering c1({0, 0, 1, 1, 2, 2});
  const Clustering c2({0, 1, 0, 1, 2, 3});
  const Clustering c3({0, 1, 0, 1, 2, 2});
  const Clustering opt({0, 1, 0, 1, 2, 2});
  EXPECT_EQ(*DisagreementDistance(c1, opt), 4u);
  EXPECT_EQ(*DisagreementDistance(c2, opt), 1u);
  EXPECT_EQ(*DisagreementDistance(c3, opt), 0u);
}

TEST(DisagreementTest, KnownSmallExample) {
  // {0,1},{2} vs {0},{1,2}: pairs (0,1) and (1,2) disagree; (0,2) agrees
  // (apart in both).
  const Clustering a({0, 0, 1});
  const Clustering b({0, 1, 1});
  EXPECT_EQ(*DisagreementDistance(a, b), 2u);
}

TEST(DisagreementTest, RejectsSizeMismatch) {
  const Clustering a({0, 0});
  const Clustering b({0, 0, 1});
  EXPECT_FALSE(DisagreementDistance(a, b).ok());
  EXPECT_FALSE(DisagreementDistanceNaive(a, b).ok());
}

TEST(DisagreementTest, RejectsMissingLabels) {
  const Clustering a({0, Clustering::kMissing});
  const Clustering b({0, 0});
  EXPECT_FALSE(DisagreementDistance(a, b).ok());
  EXPECT_FALSE(DisagreementDistance(b, a).ok());
}

TEST(CoClusteredPairsTest, CountsWithinClusterPairs) {
  EXPECT_EQ(*CoClusteredPairs(Clustering({0, 0, 0, 1, 1})), 3u + 1u);
  EXPECT_EQ(*CoClusteredPairs(Clustering::AllSingletons(5)), 0u);
  EXPECT_EQ(*CoClusteredPairs(Clustering::SingleCluster(5)), 10u);
}

TEST(CoClusteredPairsTest, RejectsMissing) {
  EXPECT_FALSE(CoClusteredPairs(Clustering({0, Clustering::kMissing})).ok());
}

// Property sweep: the fast contingency implementation must agree with
// the definitional O(n^2) implementation on random inputs of varying
// size and cluster count.
class DisagreementAgreementTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(DisagreementAgreementTest, FastMatchesNaive) {
  const auto [n, k] = GetParam();
  Rng rng(n * 131 + k);
  for (int trial = 0; trial < 20; ++trial) {
    const Clustering a = RandomClustering(n, k, &rng);
    const Clustering b = RandomClustering(n, k, &rng);
    EXPECT_EQ(*DisagreementDistance(a, b), *DisagreementDistanceNaive(a, b));
  }
}

// Labels drawn near INT32_MAX: normalization, not the label values,
// must decide the table's shape.
TEST_P(DisagreementAgreementTest, LabelsNearInt32MaxMatchNaive) {
  const auto [n, k] = GetParam();
  Rng rng(n * 137 + k);
  constexpr Clustering::Label kTop =
      std::numeric_limits<Clustering::Label>::max();
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Clustering::Label> la(n);
    std::vector<Clustering::Label> lb(n);
    for (std::size_t v = 0; v < n; ++v) {
      la[v] = kTop - static_cast<Clustering::Label>(rng.NextBounded(k));
      lb[v] = kTop - static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    const Clustering a(std::move(la));
    const Clustering b(std::move(lb));
    EXPECT_EQ(*DisagreementDistance(a, b), *DisagreementDistanceNaive(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DisagreementAgreementTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 17, 64),
                       ::testing::Values<std::size_t>(1, 2, 3, 8)));

// High cardinality, k >= n: most clusters are singletons, so a dense
// ka x kb table would outgrow the input.
INSTANTIATE_TEST_SUITE_P(
    HighCardinality, DisagreementAgreementTest,
    ::testing::Combine(::testing::Values<std::size_t>(17, 64, 200),
                       ::testing::Values<std::size_t>(200, 4096, 1 << 20)));

// Metric properties on random clusterings.
class DisagreementMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(DisagreementMetricTest, SymmetryAndTriangleInequality) {
  Rng rng(GetParam());
  const std::size_t n = 24;
  for (int trial = 0; trial < 25; ++trial) {
    const Clustering a = RandomClustering(n, 4, &rng);
    const Clustering b = RandomClustering(n, 4, &rng);
    const Clustering c = RandomClustering(n, 4, &rng);
    const std::uint64_t ab = *DisagreementDistance(a, b);
    const std::uint64_t ba = *DisagreementDistance(b, a);
    const std::uint64_t bc = *DisagreementDistance(b, c);
    const std::uint64_t ac = *DisagreementDistance(a, c);
    EXPECT_EQ(ab, ba);
    // Observation 1: d(a, c) <= d(a, b) + d(b, c).
    EXPECT_LE(ac, ab + bc);
  }
}

TEST_P(DisagreementMetricTest, IdentityOfIndiscernibles) {
  Rng rng(GetParam() + 1000);
  const Clustering a = RandomClustering(30, 5, &rng);
  EXPECT_EQ(*DisagreementDistance(a, a.Normalized()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisagreementMetricTest,
                         ::testing::Range(1, 8));

}  // namespace
}  // namespace clustagg
