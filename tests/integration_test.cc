// End-to-end integration tests spanning multiple modules: the full
// pipelines behind the paper's experiments, at reduced scale so they run
// in seconds.

#include <gtest/gtest.h>

#include "clustagg/clustagg.h"

namespace clustagg {
namespace {

// Figure 3 pipeline: points -> five vanilla clusterings -> aggregation.
TEST(IntegrationTest, RobustnessPipeline) {
  Result<Dataset2D> data = GenerateSevenClusters(7, /*scale=*/0.4);
  ASSERT_TRUE(data.ok());
  const Clustering truth([&] {
    std::vector<Clustering::Label> labels(data->size());
    for (std::size_t i = 0; i < data->size(); ++i) {
      labels[i] = data->ground_truth[i];
    }
    return labels;
  }());

  std::vector<Clustering> inputs;
  double best_input_ari = -1.0;
  for (Linkage linkage : {Linkage::kSingle, Linkage::kComplete,
                          Linkage::kAverage, Linkage::kWard}) {
    HierarchicalOptions options;
    options.linkage = linkage;
    options.k = 7;
    Result<Clustering> c = HierarchicalCluster(data->points, options);
    ASSERT_TRUE(c.ok());
    best_input_ari = std::max(best_input_ari,
                              *AdjustedRandIndex(*c, truth));
    inputs.push_back(std::move(*c));
  }
  KMeansOptions km;
  km.k = 7;
  km.seed = 3;
  Result<KMeansResult> kmeans = KMeans(data->points, km);
  ASSERT_TRUE(kmeans.ok());
  best_input_ari = std::max(
      best_input_ari, *AdjustedRandIndex(kmeans->clustering, truth));
  inputs.push_back(std::move(kmeans->clustering));

  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  ASSERT_TRUE(set.ok());
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.refine_with_local_search = true;
  Result<AggregationResult> aggregated = Aggregate(*set, options);
  ASSERT_TRUE(aggregated.ok());
  Result<double> ari = AdjustedRandIndex(aggregated->clustering, truth);
  ASSERT_TRUE(ari.ok());
  // The aggregate must be a good clustering, close to (or better than)
  // the best input.
  EXPECT_GT(*ari, 0.75);
  EXPECT_GT(*ari, best_input_ari - 0.12);
}

// Figure 4 pipeline: k-means sweep -> aggregation -> correct k + outliers.
TEST(IntegrationTest, CorrectClusterCountPipeline) {
  GaussianMixtureOptions gen;
  gen.num_clusters = 3;
  gen.points_per_cluster = 60;
  gen.noise_fraction = 0.2;
  gen.seed = 4;
  Result<Dataset2D> data = GenerateGaussianMixture(gen);
  ASSERT_TRUE(data.ok());

  std::vector<Clustering> inputs;
  for (std::size_t k = 2; k <= 10; ++k) {
    KMeansOptions options;
    options.k = k;
    options.seed = k;
    Result<KMeansResult> r = KMeans(data->points, options);
    ASSERT_TRUE(r.ok());
    inputs.push_back(std::move(r->clustering));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  ASSERT_TRUE(set.ok());
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  Result<AggregationResult> result = Aggregate(*set, options);
  ASSERT_TRUE(result.ok());

  // Exactly 3 large clusters despite no input having exactly 3 good ones.
  std::size_t large = 0;
  for (std::size_t s : result->clustering.ClusterSizes()) {
    if (s >= 40) ++large;
  }
  EXPECT_EQ(large, 3u);
}

// Section 5.2 pipeline: categorical table -> attribute clusterings ->
// aggregation -> evaluation against class labels and the lower bound.
TEST(IntegrationTest, CategoricalPipeline) {
  Result<SyntheticCategoricalData> data = MakeVotesLike(11);
  ASSERT_TRUE(data.ok());
  Result<ClusteringSet> input = AttributeClusterings(data->table);
  ASSERT_TRUE(input.ok());

  const double lower_bound =
      CorrelationInstance::DisagreementBound(*input).value();
  ASSERT_GT(lower_bound, 0.0);

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  Result<AggregationResult> result = Aggregate(*input, options);
  ASSERT_TRUE(result.ok());
  // The solution respects the lower bound and achieves a small
  // classification error with very few clusters.
  EXPECT_GE(result->total_disagreements, lower_bound - 1e-6);
  EXPECT_LE(result->clustering.NumClusters(), 6u);
  Result<double> error = ClassificationError(result->clustering,
                                             data->table.class_labels());
  ASSERT_TRUE(error.ok());
  EXPECT_LT(*error, 0.25);

  // The class-label clustering itself scores worse on E_D than the
  // aggregation objective's winner (it optimizes purity, not agreement).
  const Clustering class_clustering([&] {
    std::vector<Clustering::Label> labels(data->table.num_rows());
    for (std::size_t r = 0; r < labels.size(); ++r) {
      labels[r] = data->table.class_labels()[r];
    }
    return labels;
  }());
  Result<double> class_ed = input->TotalDisagreements(class_clustering);
  ASSERT_TRUE(class_ed.ok());
  EXPECT_LE(result->total_disagreements, *class_ed + 1e-6);
}

// Section 4.1 pipeline: SAMPLING on a large synthetic dataset preserves
// the clusters found by the slow path on a subsample.
TEST(IntegrationTest, SamplingScalesTheCategoricalPipeline) {
  Result<SyntheticCategoricalData> data = MakeCensusLike(3, 4000);
  ASSERT_TRUE(data.ok());
  Result<ClusteringSet> input = AttributeClusterings(data->table);
  ASSERT_TRUE(input.ok());

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kFurthest;
  options.sampling_size = 400;
  options.sampling.seed = 9;
  Result<AggregationResult> result = Aggregate(*input, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.size(), 4000u);
  EXPECT_FALSE(result->clustering.HasMissing());
  EXPECT_GT(result->clustering.NumClusters(), 5u);

  Result<double> error = ClassificationError(result->clustering,
                                             data->table.class_labels());
  ASSERT_TRUE(error.ok());
  EXPECT_LT(*error, 0.40);
}

// Missing values end to end: both policies produce complete clusterings
// and reasonable structure on data with many missing cells.
TEST(IntegrationTest, MissingValuePoliciesEndToEnd) {
  SyntheticCategoricalOptions gen;
  gen.num_rows = 300;
  gen.cardinalities = {3, 3, 3, 3, 3, 3};
  gen.num_latent_groups = 3;
  gen.attribute_noise = 0.05;
  gen.missing_cells = 400;  // ~22% of cells
  gen.seed = 21;
  Result<SyntheticCategoricalData> data = GenerateCategorical(gen);
  ASSERT_TRUE(data.ok());
  Result<ClusteringSet> input = AttributeClusterings(data->table);
  ASSERT_TRUE(input.ok());
  ASSERT_TRUE(input->HasMissing());

  for (MissingValuePolicy policy :
       {MissingValuePolicy::kRandomCoin, MissingValuePolicy::kIgnore}) {
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kAgglomerative;
    options.missing.policy = policy;
    Result<AggregationResult> result = Aggregate(*input, options);
    ASSERT_TRUE(result.ok());
    Result<double> error = ClassificationError(result->clustering,
                                               data->table.class_labels());
    ASSERT_TRUE(error.ok());
    EXPECT_LT(*error, 0.15);
  }
}

}  // namespace
}  // namespace clustagg
