// Tests for the evaluation metrics: classification error, Rand /
// adjusted Rand / NMI.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "eval/metrics.h"

namespace clustagg {
namespace {

TEST(ClassificationErrorTest, PureClustersHaveZeroError) {
  const Clustering c({0, 0, 1, 1, 2});
  const std::vector<std::int32_t> classes = {1, 1, 0, 0, 1};
  EXPECT_DOUBLE_EQ(*ClassificationError(c, classes), 0.0);
}

TEST(ClassificationErrorTest, CountsMinorityMembers) {
  // Cluster {0,1,2}: classes {0,0,1} -> 1 misplaced.
  // Cluster {3,4}: classes {1,1} -> 0 misplaced. E_C = 1/5.
  const Clustering c({0, 0, 0, 1, 1});
  const std::vector<std::int32_t> classes = {0, 0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(*ClassificationError(c, classes), 0.2);
}

TEST(ClassificationErrorTest, SingletonsAreAlwaysPure) {
  // The paper's remark: k = n gives E_C = 0 trivially.
  const Clustering c = Clustering::AllSingletons(6);
  const std::vector<std::int32_t> classes = {0, 1, 0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(*ClassificationError(c, classes), 0.0);
}

TEST(ClassificationErrorTest, Validation) {
  EXPECT_FALSE(ClassificationError(Clustering({0, 1}), {0}).ok());
  EXPECT_FALSE(ClassificationError(Clustering({0, 1}), {0, -1}).ok());
  EXPECT_FALSE(
      ClassificationError(Clustering({0, Clustering::kMissing}), {0, 0})
          .ok());
}

TEST(ClassificationErrorTest, LargeClassIdsNeedNoDenseTable) {
  // Class ids are labels, not indices: a table of clusters x (max class
  // id + 1) cells would not fit in memory here.
  const std::vector<std::int32_t> classes = {0, 2147483000};
  Result<double> split = ClassificationError(Clustering({0, 1}), classes);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(*split, 0.0);
  Result<double> joined = ClassificationError(Clustering({0, 0}), classes);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(*joined, 0.5);
}

TEST(RandIndexTest, IdenticalPartitions) {
  const Clustering c({0, 0, 1, 1, 2});
  EXPECT_DOUBLE_EQ(*RandIndex(c, c), 1.0);
}

TEST(RandIndexTest, KnownValue) {
  // {0,1},{2} vs {0},{1,2}: 2 disagreements of 3 pairs -> RI = 1/3.
  const Clustering a({0, 0, 1});
  const Clustering b({0, 1, 1});
  EXPECT_NEAR(*RandIndex(a, b), 1.0 / 3.0, 1e-12);
}

TEST(RandIndexTest, TrivialSizes) {
  EXPECT_DOUBLE_EQ(*RandIndex(Clustering({0}), Clustering({0})), 1.0);
  EXPECT_DOUBLE_EQ(*RandIndex(Clustering(), Clustering()), 1.0);
}

TEST(AdjustedRandIndexTest, IdenticalPartitionsGiveOne) {
  const Clustering c({0, 0, 1, 1, 2, 2});
  EXPECT_NEAR(*AdjustedRandIndex(c, c), 1.0, 1e-12);
}

TEST(AdjustedRandIndexTest, LabelPermutationInvariant) {
  const Clustering a({0, 0, 1, 1, 2, 2});
  const Clustering b({2, 2, 0, 0, 1, 1});
  EXPECT_NEAR(*AdjustedRandIndex(a, b), 1.0, 1e-12);
}

TEST(AdjustedRandIndexTest, IndependentPartitionsNearZero) {
  Rng rng(5);
  const std::size_t n = 2000;
  std::vector<Clustering::Label> la(n);
  std::vector<Clustering::Label> lb(n);
  for (std::size_t i = 0; i < n; ++i) {
    la[i] = static_cast<Clustering::Label>(rng.NextBounded(4));
    lb[i] = static_cast<Clustering::Label>(rng.NextBounded(4));
  }
  Result<double> ari =
      AdjustedRandIndex(Clustering(std::move(la)), Clustering(std::move(lb)));
  EXPECT_NEAR(*ari, 0.0, 0.05);
}

TEST(AdjustedRandIndexTest, BothTrivialPartitions) {
  const Clustering one = Clustering::SingleCluster(5);
  EXPECT_NEAR(*AdjustedRandIndex(one, one), 1.0, 1e-12);
}

TEST(AdjustedRandIndexTest, KnownHandComputedValue) {
  // Contingency [[2,1],[1,2]] over n=6: sum_joint = C(2,2)*2 + ... = 2,
  // sum_a = sum_b = C(3,2)*2 = 6, pairs = 15, expected = 2.4,
  // max = 6 -> ARI = (2 - 2.4) / (6 - 2.4) = -1/9.
  const Clustering a({0, 0, 0, 1, 1, 1});
  const Clustering b({0, 0, 1, 0, 1, 1});
  EXPECT_NEAR(*AdjustedRandIndex(a, b), -1.0 / 9.0, 1e-12);
}

TEST(NmiTest, IdenticalPartitionsGiveOne) {
  const Clustering c({0, 0, 1, 1, 2, 2});
  EXPECT_NEAR(*NormalizedMutualInformation(c, c), 1.0, 1e-12);
}

TEST(NmiTest, TrivialPartitionGivesZero) {
  const Clustering one = Clustering::SingleCluster(6);
  const Clustering c({0, 0, 1, 1, 2, 2});
  EXPECT_DOUBLE_EQ(*NormalizedMutualInformation(one, c), 0.0);
}

TEST(NmiTest, IndependentPartitionsNearZero) {
  Rng rng(9);
  const std::size_t n = 3000;
  std::vector<Clustering::Label> la(n);
  std::vector<Clustering::Label> lb(n);
  for (std::size_t i = 0; i < n; ++i) {
    la[i] = static_cast<Clustering::Label>(rng.NextBounded(3));
    lb[i] = static_cast<Clustering::Label>(rng.NextBounded(3));
  }
  Result<double> nmi = NormalizedMutualInformation(
      Clustering(std::move(la)), Clustering(std::move(lb)));
  EXPECT_LT(*nmi, 0.02);
  EXPECT_GE(*nmi, 0.0);
}

TEST(NmiTest, SymmetricInArguments) {
  const Clustering a({0, 0, 1, 1, 2, 2, 0, 1});
  const Clustering b({0, 1, 1, 0, 2, 2, 2, 1});
  EXPECT_NEAR(*NormalizedMutualInformation(a, b),
              *NormalizedMutualInformation(b, a), 1e-12);
}

TEST(ViTest, ZeroForIdenticalPartitions) {
  const Clustering c({0, 0, 1, 1, 2});
  EXPECT_NEAR(*VariationOfInformation(c, c), 0.0, 1e-12);
  EXPECT_NEAR(*VariationOfInformation(c, Clustering({5, 5, 3, 3, 9})), 0.0,
              1e-12);
}

TEST(ViTest, KnownHandComputedValue) {
  // {0,1} vs {2,3} against all-in-one over n = 4:
  // H(a) = 1 bit, H(b) = 0, I = 0 -> VI = 1.
  const Clustering a({0, 0, 1, 1});
  const Clustering b = Clustering::SingleCluster(4);
  EXPECT_NEAR(*VariationOfInformation(a, b), 1.0, 1e-12);
}

TEST(ViTest, SymmetricAndTriangleInequality) {
  Rng rng(21);
  const std::size_t n = 40;
  auto random_clustering = [&] {
    std::vector<Clustering::Label> labels(n);
    for (auto& l : labels) {
      l = static_cast<Clustering::Label>(rng.NextBounded(4));
    }
    return Clustering(std::move(labels));
  };
  for (int trial = 0; trial < 20; ++trial) {
    const Clustering a = random_clustering();
    const Clustering b = random_clustering();
    const Clustering c = random_clustering();
    const double ab = *VariationOfInformation(a, b);
    const double bc = *VariationOfInformation(b, c);
    const double ac = *VariationOfInformation(a, c);
    EXPECT_NEAR(ab, *VariationOfInformation(b, a), 1e-12);
    EXPECT_LE(ac, ab + bc + 1e-9);  // VI is a metric (Meila)
  }
}

TEST(ViTest, BoundedByLogN) {
  const Clustering a = Clustering::AllSingletons(8);
  const Clustering b = Clustering::SingleCluster(8);
  const double vi = *VariationOfInformation(a, b);
  EXPECT_NEAR(vi, 3.0, 1e-12);  // log2(8)
}

TEST(MetricsTest, AllRejectSizeMismatch) {
  const Clustering a({0, 1});
  const Clustering b({0, 1, 2});
  EXPECT_FALSE(RandIndex(a, b).ok());
  EXPECT_FALSE(AdjustedRandIndex(a, b).ok());
  EXPECT_FALSE(NormalizedMutualInformation(a, b).ok());
  EXPECT_FALSE(VariationOfInformation(a, b).ok());
}

// Golden pin for the floating-point partition scores: fixed seeded
// partitions and the exact bit patterns of every score. NMI and VI add
// one floating-point term per nonzero contingency cell, so the pin also
// fixes the (row, col) order in which the table yields its cells. The
// first partition's labels are spread out so that normalization has to
// relabel them; the second doubles as the class labels.
TEST(MetricsTest, GoldenBitsOfEveryScore) {
  struct Case {
    std::size_t n;
    std::size_t ka;
    std::size_t kb;
    std::uint64_t ari;
    std::uint64_t nmi;
    std::uint64_t vi;
    std::uint64_t error;
  };
  const Case cases[] = {
      {500, 8, 8, 0xbf71e30d8b7c862c, 0x3f925d0a32ee8375,
       0x4017794da482574e, 0x3fea4dd2f1a9fbe7},
      {300, 40, 6, 0xbf7ad48088109db9, 0x3fbf97f9ff342544,
       0x401b9634e2b79509, 0x3fe51eb851eb851f},
      {1000, 3, 12, 0xbf4e12f735d2335f, 0x3f73d0ade011fa9f,
       0x40148eec1e7165fb, 0x3fec83126e978d50},
      {64, 200, 150, 0xbf7c0e070381c0e0, 0x3fed9af5357051e2,
       0x3feac1404eadf380, 0x3fc6000000000000},
  };
  auto bits = [](Result<double> x) {
    return std::bit_cast<std::uint64_t>(*x);
  };
  Rng rng(2005);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    std::vector<Clustering::Label> la(c.n);
    std::vector<std::int32_t> lb(c.n);
    for (std::size_t v = 0; v < c.n; ++v) {
      la[v] = static_cast<Clustering::Label>(rng.NextBounded(c.ka) * 7919);
      lb[v] = static_cast<std::int32_t>(rng.NextBounded(c.kb));
    }
    const Clustering a(std::move(la));
    const Clustering b(lb);
    EXPECT_EQ(bits(AdjustedRandIndex(a, b)), c.ari);
    EXPECT_EQ(bits(NormalizedMutualInformation(a, b)), c.nmi);
    EXPECT_EQ(bits(VariationOfInformation(a, b)), c.vi);
    EXPECT_EQ(bits(ClassificationError(a, lb)), c.error);
  }
}

}  // namespace
}  // namespace clustagg
