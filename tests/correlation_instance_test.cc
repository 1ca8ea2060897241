// Tests for CorrelationInstance: construction, the cost function, the
// lower bound, and the triangle-inequality guarantee for instances built
// from clusterings (the property the BALLS analysis needs).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/agglomerative.h"
#include "core/balls.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/disagreement.h"
#include "core/furthest.h"
#include "core/local_search.h"
#include "core/lower_bound.h"
#include "core/signature_index.h"

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

TEST(CorrelationInstanceTest, RejectsCoinProbabilityOutsideUnitInterval) {
  const ClusteringSet input = *ClusteringSet::Create({
      Clustering({0, 0, 1, Clustering::kMissing}),
      Clustering({0, 1, 1, 1}),
  });
  const Clustering candidate({0, 0, 1, 1});
  for (double p : {7.0, -0.1, std::nan("")}) {
    MissingValueOptions missing;
    missing.coin_together_probability = p;
    for (DistanceBackend backend :
         {DistanceBackend::kDense, DistanceBackend::kLazy}) {
      DistanceSourceOptions options;
      options.backend = backend;
      EXPECT_EQ(CorrelationInstance::Build(input, missing, options)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << p << " " << DistanceBackendName(backend);
    }
    EXPECT_EQ(input.TotalDisagreements(candidate, missing).status().code(),
              StatusCode::kInvalidArgument)
        << p;
  }
  for (double p : {0.0, 1.0}) {
    MissingValueOptions missing;
    missing.coin_together_probability = p;
    EXPECT_TRUE(CorrelationInstance::Build(input, missing).ok()) << p;
    EXPECT_TRUE(input.TotalDisagreements(candidate, missing).ok()) << p;
  }
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


// ------------------------------------------------------------ golden bits
//
// Every whole-instance pass (Cost, LowerBound, TotalIncidentWeights and
// the row scans inside FURTHEST, LOCALSEARCH, BALLS and AGGLOMERATIVE)
// pinned to recorded bits. The input has clustering weights, 20% missing
// labels and duplicated objects, so folding yields non-unit
// multiplicities; every line must come out the same under both backends
// and at 1 and 4 threads (n >= 128, so 4 threads really split the rows).

std::string HexBits(double x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(x)));
  return buf;
}

/// FNV-1a over 64-bit words.
uint64_t Fnv64(const std::vector<uint64_t>& words) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::string HashBits(const std::vector<double>& values) {
  std::vector<uint64_t> words;
  for (double x : values) words.push_back(std::bit_cast<uint64_t>(x));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv64(words)));
  return buf;
}

std::string HashLabels(const Clustering& c) {
  std::vector<uint64_t> words;
  for (Clustering::Label l : c.labels()) {
    words.push_back(static_cast<uint64_t>(static_cast<int64_t>(l)));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv64(words)));
  return buf;
}

/// 160 random objects plus 140 copies of random ones among them, over 5
/// weighted clusterings with 20% missing labels.
ClusteringSet GoldenInput() {
  constexpr std::size_t kBase = 160;
  constexpr std::size_t kCopies = 140;
  constexpr std::size_t kM = 5;
  Rng rng(2024);
  std::vector<std::vector<Clustering::Label>> rows;
  for (std::size_t v = 0; v < kBase; ++v) {
    std::vector<Clustering::Label> row(kM);
    for (Clustering::Label& l : row) {
      l = rng.NextBernoulli(0.2)
              ? Clustering::kMissing
              : static_cast<Clustering::Label>(rng.NextBounded(4));
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t c = 0; c < kCopies; ++c) {
    rows.push_back(rows[rng.NextBounded(kBase)]);
  }
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < kM; ++i) {
    std::vector<Clustering::Label> labels;
    for (const auto& row : rows) labels.push_back(row[i]);
    clusterings.emplace_back(std::move(labels));
  }
  return *ClusteringSet::Create(std::move(clusterings),
                                {1.0, 0.5, 2.0, 1.25, 3.0});
}

struct GoldenCase {
  const char* name;
  MissingValuePolicy policy;
  bool folded;
  /// "cost lower_bound hash(total_incident_weights)".
  const char* reductions;
  /// "furthest localsearch balls agglomerative" label hashes.
  const char* clusterers;
};

TEST(CorrelationInstanceGoldenTest, RowWalksMatchRecordedBits) {
  const GoldenCase cases[] = {
      {"coin_unfolded", MissingValuePolicy::kRandomCoin, false,
       "40cea0eea87aa000 40c5dda5296aa000 7127bc00fdde1f5f",
       "5bb18da3501351ad 8745d712aa74102d fb95871e3ad772b3 a72fe9d9399ea57b"},
      {"coin_folded", MissingValuePolicy::kRandomCoin, true,
       "40cea08f46f46000 40c5cc1c7da2e000 d280592230a72a5e",
       "ec3c6fe1f7794ead b2b68c6a19a22049 3214b3f2ed67b220 e35a44567b6de807"},
      {"ignore_unfolded", MissingValuePolicy::kIgnore, false,
       "40cdb9944d71c000 40bc13e53fc38000 ed1bb9a1c054a4ad",
       "47e6afa823f7ffe7 e0a24547b0d1d64d 0dddaf21891ba102 25643b5aea3f6384"},
      {"ignore_folded", MissingValuePolicy::kIgnore, true,
       "40cdc50e71fc6000 40bc13e53fc38000 298f133981c4239f",
       "c8aba2e05d9cf906 8985352266bd5ccd 9bdd1b492421d4ac f8842ea1c4d91fcf"},
  };
  const ClusteringSet input = GoldenInput();
  const SignatureIndex fold = SignatureIndex::Build(input);
  ASSERT_GE(fold.num_signatures(), 128u);
  ASSERT_LT(fold.num_signatures(), input.num_objects());
  for (const GoldenCase& c : cases) {
    MissingValueOptions missing;
    missing.policy = c.policy;
    missing.coin_together_probability = 0.3;
    for (DistanceBackend backend :
         {DistanceBackend::kDense, DistanceBackend::kLazy}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        DistanceSourceOptions options;
        options.backend = backend;
        options.num_threads = threads;
        const CorrelationInstance instance =
            c.folded
                ? CorrelationInstance::BuildFolded(input, fold, missing,
                                                   options)
                      .value()
                : CorrelationInstance::Build(input, missing, options)
                      .value();
        Rng rng(99);
        std::vector<Clustering::Label> labels(instance.size());
        for (Clustering::Label& l : labels) {
          l = static_cast<Clustering::Label>(rng.NextBounded(6));
        }
        const std::string reductions =
            HexBits(*instance.Cost(Clustering(std::move(labels)))) + " " +
            HexBits(instance.LowerBound()) + " " +
            HashBits(instance.TotalIncidentWeights());
        const std::string clusterers =
            HashLabels(*FurthestClusterer().Run(instance)) + " " +
            HashLabels(*LocalSearchClusterer().Run(instance)) + " " +
            HashLabels(*BallsClusterer().Run(instance)) + " " +
            HashLabels(*AgglomerativeClusterer().Run(instance));
        const std::string where = std::string(c.name) + " " +
                                  DistanceBackendName(backend) + " " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(reductions, c.reductions) << where;
        EXPECT_EQ(clusterers, c.clusterers) << where;
      }
    }
  }
}

}  // namespace
}  // namespace clustagg
