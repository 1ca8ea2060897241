// Tests for ClusteringSet: validation, on-the-fly pairwise distances
// under both missing-value policies, and the fast TotalDisagreements
// paths against the brute-force expectation.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/clustering_set.h"

namespace clustagg {
namespace {

constexpr Clustering::Label kMissing = Clustering::kMissing;

ClusteringSet Figure1Input() {
  Result<ClusteringSet> set = ClusteringSet::Create({
      Clustering({0, 0, 1, 1, 2, 2}),
      Clustering({0, 1, 0, 1, 2, 3}),
      Clustering({0, 1, 0, 1, 2, 2}),
  });
  return *std::move(set);
}

TEST(ClusteringSetTest, CreateRejectsEmpty) {
  EXPECT_FALSE(ClusteringSet::Create({}).ok());
}

TEST(ClusteringSetTest, CreateRejectsSizeMismatch) {
  EXPECT_FALSE(
      ClusteringSet::Create({Clustering({0, 1}), Clustering({0, 1, 2})})
          .ok());
}

TEST(ClusteringSetTest, CreateRejectsInvalidLabels) {
  EXPECT_FALSE(ClusteringSet::Create({Clustering({0, -5})}).ok());
}

TEST(ClusteringSetTest, BasicAccessors) {
  const ClusteringSet set = Figure1Input();
  EXPECT_EQ(set.num_objects(), 6u);
  EXPECT_EQ(set.num_clusterings(), 3u);
  EXPECT_FALSE(set.HasMissing());
}

TEST(ClusteringSetTest, PairwiseDistanceMatchesFigure2) {
  const ClusteringSet set = Figure1Input();
  // Solid edges 1/3, dashed 2/3, dotted 1 (Figure 2).
  EXPECT_NEAR(set.PairwiseDistance(0, 2), 1.0 / 3, 1e-12);  // v1-v3
  EXPECT_NEAR(set.PairwiseDistance(1, 3), 1.0 / 3, 1e-12);  // v2-v4
  EXPECT_NEAR(set.PairwiseDistance(4, 5), 1.0 / 3, 1e-12);  // v5-v6
  EXPECT_NEAR(set.PairwiseDistance(0, 1), 2.0 / 3, 1e-12);  // v1-v2
  EXPECT_NEAR(set.PairwiseDistance(2, 3), 2.0 / 3, 1e-12);  // v3-v4
  EXPECT_NEAR(set.PairwiseDistance(0, 3), 1.0, 1e-12);      // v1-v4
  EXPECT_NEAR(set.PairwiseDistance(0, 4), 1.0, 1e-12);      // v1-v5
}

TEST(ClusteringSetTest, PairwiseDistanceSelfIsZero) {
  const ClusteringSet set = Figure1Input();
  EXPECT_EQ(set.PairwiseDistance(3, 3), 0.0);
}

TEST(ClusteringSetTest, CoinPolicyOnMissingPair) {
  // Two clusterings; the second has no opinion on object 1.
  Result<ClusteringSet> set = ClusteringSet::Create({
      Clustering({0, 0, 1}),
      Clustering({0, kMissing, 1}),
  });
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->HasMissing());
  MissingValueOptions coin;
  coin.policy = MissingValuePolicy::kRandomCoin;
  coin.coin_together_probability = 0.5;
  // Pair (0,1): clustering 1 says together (0 disagreement), clustering 2
  // is silent and contributes 1 - p = 0.5. X = 0.5 / 2 = 0.25.
  EXPECT_NEAR(set->PairwiseDistance(0, 1, coin), 0.25, 1e-12);
  // With p = 1 (always reports together), the silent clustering never
  // disagrees: X = 0.
  coin.coin_together_probability = 1.0;
  EXPECT_NEAR(set->PairwiseDistance(0, 1, coin), 0.0, 1e-12);
  // With p = 0 it always disagrees on co-clustered candidates: X = 0.5.
  coin.coin_together_probability = 0.0;
  EXPECT_NEAR(set->PairwiseDistance(0, 1, coin), 0.5, 1e-12);
}

TEST(ClusteringSetTest, IgnorePolicyAveragesPresentAttributes) {
  Result<ClusteringSet> set = ClusteringSet::Create({
      Clustering({0, 0, 1}),
      Clustering({0, kMissing, 1}),
      Clustering({0, 1, 1}),
  });
  ASSERT_TRUE(set.ok());
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  // Pair (0,1): opinionated clusterings are 1 (together) and 3 (apart):
  // X = 1/2.
  EXPECT_NEAR(set->PairwiseDistance(0, 1, ignore), 0.5, 1e-12);
  // Pair (0,2): all three opinionated, all say apart: X = 1.
  EXPECT_NEAR(set->PairwiseDistance(0, 2, ignore), 1.0, 1e-12);
}

TEST(ClusteringSetTest, IgnorePolicyNoOpinionIsHalf) {
  Result<ClusteringSet> set = ClusteringSet::Create({
      Clustering({kMissing, kMissing, 0}),
  });
  ASSERT_TRUE(set.ok());
  MissingValueOptions ignore;
  ignore.policy = MissingValuePolicy::kIgnore;
  EXPECT_NEAR(set->PairwiseDistance(0, 1, ignore), 0.5, 1e-12);
}

// Groundwork audit for the streaming append paths: ClusteringSet never
// renormalizes label ids — distances only compare labels for equality —
// so a set extended with a non-contiguous-label clustering must behave
// exactly like its normalized twin: same pairwise distances (bit for
// bit, both policies), same total disagreements, same missing mask.
TEST(ClusteringSetTest, NonContiguousLabelsBehaveLikeNormalizedTwin) {
  const Clustering raw({7, 900001, kMissing, 42, 900001, 42});
  const Clustering base({0, 0, 1, 1, 2, 2});
  Result<ClusteringSet> appended =
      ClusteringSet::Create({base, raw});
  Result<ClusteringSet> normalized =
      ClusteringSet::Create({base, raw.Normalized()});
  ASSERT_TRUE(appended.ok() && normalized.ok());
  EXPECT_EQ(appended->HasMissing(), normalized->HasMissing());
  for (MissingValuePolicy policy :
       {MissingValuePolicy::kRandomCoin, MissingValuePolicy::kIgnore}) {
    MissingValueOptions missing;
    missing.policy = policy;
    for (std::size_t u = 0; u < 6; ++u) {
      for (std::size_t v = u + 1; v < 6; ++v) {
        EXPECT_EQ(appended->PairwiseDistance(u, v, missing),
                  normalized->PairwiseDistance(u, v, missing))
            << "pair (" << u << ", " << v << ")";
      }
    }
    const Clustering candidate({0, 0, 0, 1, 1, 1});
    EXPECT_EQ(*appended->TotalDisagreements(candidate, missing),
              *normalized->TotalDisagreements(candidate, missing));
  }
  // The missing mask must survive the append untouched: exactly the
  // object that was missing in the raw clustering is missing in the
  // stored one, and normalization does not move it.
  EXPECT_TRUE(appended->clustering(1).has_label(0));
  EXPECT_FALSE(appended->clustering(1).has_label(2));
  EXPECT_EQ(appended->clustering(1).CountMissing(),
            normalized->clustering(1).CountMissing());
  EXPECT_EQ(appended->clustering(1).labels(), raw.labels())
      << "Create must store labels verbatim, not renormalize";
}

TEST(ClusteringSetTest, RestrictKeepsOrderMissingLabelsAndWeights) {
  const ClusteringSet input =
      *ClusteringSet::Create({Clustering({0, 1, kMissing, 2, 1}),
                              Clustering({3, kMissing, 3, 0, 0}),
                              Clustering({1, 1, 0, 0, 2})},
                             {0.1, 0.7, 0.2});
  // Object i of the result is objects[i], in the order given.
  const ClusteringSet restricted = input.Restrict({4, 2, 0});
  EXPECT_EQ(restricted.clustering(0), Clustering({1, kMissing, 0}));
  EXPECT_EQ(restricted.clustering(1), Clustering({0, 3, 3}));
  EXPECT_EQ(restricted.clustering(2), Clustering({2, 0, 1}));
  EXPECT_TRUE(restricted.HasMissing());
  EXPECT_FALSE(input.Restrict({0, 3}).HasMissing());
  EXPECT_EQ(restricted.weight(1), 0.7);
  // The same weights summed in the same order: the very same bits.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restricted.total_weight()),
            std::bit_cast<std::uint64_t>(input.total_weight()));
  EXPECT_EQ(restricted.PairwiseDistance(0, 2), input.PairwiseDistance(4, 0));
}

TEST(ClusteringSetTest, TotalDisagreementsFigure1) {
  const ClusteringSet set = Figure1Input();
  // The paper's optimum has 5 disagreements.
  EXPECT_NEAR(*set.TotalDisagreements(Clustering({0, 1, 0, 1, 2, 2})), 5.0,
              1e-9);
  // C1 itself: d(C1,C2)=5 (pairs (v1,v2),(v3,v4),(v1,v3)... ) -- simply
  // check against the sum of pairwise distances.
  double expected = 0.0;
  const Clustering candidate({0, 0, 1, 1, 2, 2});
  for (std::size_t u = 0; u < 6; ++u) {
    for (std::size_t v = u + 1; v < 6; ++v) {
      const double x = set.PairwiseDistance(u, v);
      expected += candidate.SameCluster(u, v) ? 3 * x : 3 * (1 - x);
    }
  }
  EXPECT_NEAR(*set.TotalDisagreements(candidate), expected, 1e-9);
}

TEST(ClusteringSetTest, TotalDisagreementsRejectsBadCandidates) {
  const ClusteringSet set = Figure1Input();
  EXPECT_FALSE(set.TotalDisagreements(Clustering({0, 1})).ok());
  EXPECT_FALSE(
      set.TotalDisagreements(Clustering({0, 1, 0, 1, 2, kMissing})).ok());
}

// The decomposed coin-policy path must match the brute-force pairwise
// expectation on random inputs with missing labels.
class MissingCoinConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(MissingCoinConsistencyTest, FastPathMatchesPairwiseSum) {
  Rng rng(GetParam());
  const std::size_t n = 20;
  const std::size_t m = 4;
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = rng.NextBernoulli(0.2)
                      ? kMissing
                      : static_cast<Clustering::Label>(rng.NextBounded(3));
    }
    clusterings.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(clusterings));
  ASSERT_TRUE(set.ok());

  std::vector<Clustering::Label> cand(n);
  for (std::size_t v = 0; v < n; ++v) {
    cand[v] = static_cast<Clustering::Label>(rng.NextBounded(4));
  }
  const Clustering candidate(std::move(cand));

  for (double p : {0.0, 0.3, 0.5, 1.0}) {
    MissingValueOptions coin;
    coin.coin_together_probability = p;
    double expected = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        const double x = set->PairwiseDistance(u, v, coin);
        expected += candidate.SameCluster(u, v)
                        ? static_cast<double>(m) * x
                        : static_cast<double>(m) * (1 - x);
      }
    }
    EXPECT_NEAR(*set->TotalDisagreements(candidate, coin), expected, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MissingCoinConsistencyTest,
                         ::testing::Range(1, 11));

// Golden pin for TotalDisagreements: fixed seeded weighted inputs and the
// exact bit patterns of the total, on complete inputs and, under
// kRandomCoin, with missing labels. The total adds one weighted term per
// input in input order, so the pin fixes that order too.
TEST(ClusteringSetTest, TotalDisagreementsGoldenBits) {
  const std::size_t n = 300;
  const std::vector<double> weights = {0.7, 1.3, 2.1, 0.45, 1.0};
  Rng rng(2005);
  std::vector<Clustering> complete;
  std::vector<Clustering> with_missing;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::size_t k = 2 + 3 * i;
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<Clustering::Label>(rng.NextBounded(k));
    }
    complete.emplace_back(labels);
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.NextBernoulli(0.2)) labels[v] = kMissing;
    }
    with_missing.emplace_back(std::move(labels));
  }
  std::vector<Clustering::Label> cand(n);
  for (std::size_t v = 0; v < n; ++v) {
    cand[v] = static_cast<Clustering::Label>(rng.NextBounded(6));
  }
  const Clustering candidate(std::move(cand));

  Result<ClusteringSet> full = ClusteringSet::Create(complete, weights);
  Result<ClusteringSet> partial = ClusteringSet::Create(with_missing, weights);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(partial.ok());
  MissingValueOptions biased;
  biased.coin_together_probability = 0.3;
  auto bits = [](Result<double> x) {
    return std::bit_cast<std::uint64_t>(*x);
  };
  EXPECT_EQ(bits(full->TotalDisagreements(candidate)), 0x40f14d2666666666u);
  EXPECT_EQ(bits(partial->TotalDisagreements(candidate)), 0x40f63af199999999u);
  EXPECT_EQ(bits(partial->TotalDisagreements(candidate, biased)),
            0x40f33b73851eb852u);
}

}  // namespace
}  // namespace clustagg
