// Tests for the ensemble-generation module and the simulated-annealing
// clusterer.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/aggregator.h"
#include "core/annealing.h"
#include "core/correlation_instance.h"
#include "core/exact.h"
#include "core/local_search.h"
#include "ensemble/ensemble.h"
#include "eval/metrics.h"

namespace clustagg {
namespace {

std::vector<Point2D> FourBlobs(std::size_t per, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2D> points;
  const Point2D centers[4] = {
      {0.0, 0.0}, {8.0, 0.0}, {0.0, 8.0}, {8.0, 8.0}};
  for (const Point2D& c : centers) {
    for (std::size_t i = 0; i < per; ++i) {
      points.push_back({c.x + 0.4 * rng.NextGaussian(),
                        c.y + 0.4 * rng.NextGaussian()});
    }
  }
  return points;
}

Clustering BlobTruth(std::size_t per) {
  std::vector<Clustering::Label> labels(4 * per);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<Clustering::Label>(i / per);
  }
  return Clustering(std::move(labels));
}

// ------------------------------------------------------------ ensemble

TEST(KMeansEnsembleTest, ProducesOneMemberPerKAndRun) {
  const auto points = FourBlobs(25, 1);
  KMeansEnsembleOptions options;
  options.k_min = 2;
  options.k_max = 6;
  Result<ClusteringSet> set = KMeansEnsemble(points, options);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_clusterings(), 5u);
  EXPECT_EQ(set->num_objects(), points.size());
}

TEST(KMeansEnsembleTest, AggregationRecoversBlobs) {
  const auto points = FourBlobs(40, 3);
  Result<ClusteringSet> set = KMeansEnsemble(points, {});
  ASSERT_TRUE(set.ok());
  AggregatorOptions options;
  options.refine_with_local_search = true;
  Result<AggregationResult> result = Aggregate(*set, options);
  ASSERT_TRUE(result.ok());
  // The aggregate must be a *refinement* of the four blobs: no cluster
  // straddles two blobs. (The k >= 5 members all split a blob along its
  // principal axis the same way, so the consensus may legitimately keep
  // such a split — the aggregate then has 4-6 clusters, never fewer.)
  const Clustering truth = BlobTruth(40);
  std::vector<std::int32_t> blob_of(truth.labels().begin(),
                                    truth.labels().end());
  Result<double> purity =
      ClassificationError(result->clustering, blob_of);
  ASSERT_TRUE(purity.ok());
  EXPECT_NEAR(*purity, 0.0, 1e-12);
  EXPECT_GE(result->clustering.NumClusters(), 4u);
  EXPECT_LE(result->clustering.NumClusters(), 6u);
  Result<double> ari = AdjustedRandIndex(result->clustering, truth);
  EXPECT_GT(*ari, 0.85);
}

TEST(KMeansEnsembleTest, Validation) {
  const auto points = FourBlobs(5, 5);
  KMeansEnsembleOptions options;
  options.k_min = 5;
  options.k_max = 2;
  EXPECT_FALSE(KMeansEnsemble(points, options).ok());
  options.k_min = 0;
  EXPECT_FALSE(KMeansEnsemble(points, options).ok());
}

// ----------------------------------------------------------- annealing

ClusteringSet Figure1Input() {
  return *ClusteringSet::Create({
      Clustering({0, 0, 1, 1, 2, 2}),
      Clustering({0, 1, 0, 1, 2, 3}),
      Clustering({0, 1, 0, 1, 2, 2}),
  });
}

TEST(AnnealingTest, SolvesFigure1) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  AnnealingOptions options;
  options.moves_per_temperature = 200;
  Result<Clustering> c = AnnealingClusterer(options).Run(instance);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->SamePartition(Clustering({0, 1, 0, 1, 2, 2})));
}

TEST(AnnealingTest, OptionValidation) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  AnnealingOptions options;
  options.cooling = 1.5;
  EXPECT_FALSE(AnnealingClusterer(options).Run(instance).ok());
  options.cooling = 0.9;
  options.moves_per_temperature = 0;
  EXPECT_FALSE(AnnealingClusterer(options).Run(instance).ok());
}

TEST(AnnealingTest, TrivialSizes) {
  EXPECT_EQ(AnnealingClusterer().Run(CorrelationInstance())->size(), 0u);
  const ClusteringSet one = *ClusteringSet::Create({Clustering({0})});
  EXPECT_EQ(AnnealingClusterer()
                .Run(CorrelationInstance::Build(one).value())
                ->size(),
            1u);
}

TEST(AnnealingTest, MatchesExactOnSmallInstances) {
  Rng rng(3);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<Clustering> clusterings;
    for (int i = 0; i < 4; ++i) {
      std::vector<Clustering::Label> labels(9);
      for (auto& l : labels) {
        l = static_cast<Clustering::Label>(rng.NextBounded(3));
      }
      clusterings.emplace_back(std::move(labels));
    }
    const ClusteringSet input =
        *ClusteringSet::Create(std::move(clusterings));
    const CorrelationInstance instance =
        CorrelationInstance::Build(input).value();
    Result<Clustering> opt = ExactClusterer().Run(instance);
    ASSERT_TRUE(opt.ok());
    AnnealingOptions options;
    options.moves_per_temperature = 500;
    options.seed = seed;
    Result<Clustering> annealed =
        AnnealingClusterer(options).Run(instance);
    ASSERT_TRUE(annealed.ok());
    EXPECT_NEAR(*instance.Cost(*annealed), *instance.Cost(*opt), 1e-6)
        << "seed=" << seed;
  }
}

TEST(AnnealingTest, DeterministicForFixedSeed) {
  const CorrelationInstance instance =
      CorrelationInstance::Build(Figure1Input()).value();
  AnnealingOptions options;
  options.seed = 42;
  options.moves_per_temperature = 100;
  Result<Clustering> a = AnnealingClusterer(options).Run(instance);
  Result<Clustering> b = AnnealingClusterer(options).Run(instance);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->labels(), b->labels());
}

}  // namespace
}  // namespace clustagg
