// Finding the correct number of clusters and the outliers (Section 2,
// Figure 4): aggregate nine k-means runs with k = 2..10 on a mixture of
// five Gaussian clusters plus 20% uniform noise. None of the inputs has
// the right structure — small k merges clusters, large k splits them —
// yet the aggregate settles on the correct five clusters and isolates
// the noise points in small clusters, with no k parameter anywhere.

#include <cstdio>

#include "clustagg/clustagg.h"
#include "common/check.h"

int main() {
  using namespace clustagg;

  GaussianMixtureOptions generator;
  generator.num_clusters = 5;
  generator.points_per_cluster = 100;
  generator.noise_fraction = 0.2;
  generator.seed = 11;
  Result<Dataset2D> data = GenerateGaussianMixture(generator);
  CLUSTAGG_CHECK_OK(data.status());
  std::printf("Dataset: 5 Gaussian clusters x 100 points + %zu noise "
              "points\n\n", data->size() - 500);

  std::vector<Clustering> inputs;
  for (std::size_t k = 2; k <= 10; ++k) {
    KMeansOptions options;
    options.k = k;
    options.seed = k;
    Result<KMeansResult> r = KMeans(data->points, options);
    CLUSTAGG_CHECK_OK(r.status());
    inputs.push_back(std::move(r->clustering));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  CLUSTAGG_CHECK_OK(set.status());

  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  Result<AggregationResult> aggregated = Aggregate(*set, options);
  CLUSTAGG_CHECK_OK(aggregated.status());
  const auto clusters = aggregated->clustering.Clusters();

  // Large clusters should be the true ones; small clusters should hold
  // background noise.
  std::size_t large = 0;
  std::size_t noise_in_small = 0;
  std::size_t small_total = 0;
  std::printf("Aggregated clustering: %zu clusters\n", clusters.size());
  for (const auto& members : clusters) {
    if (members.size() >= 50) {
      ++large;
      continue;
    }
    small_total += members.size();
    for (std::size_t v : members) {
      if (data->ground_truth[v] < 0) ++noise_in_small;
    }
  }
  std::printf("  large clusters (>= 50 points): %zu  <- the true "
              "clusters\n", large);
  std::printf("  points in small clusters: %zu, of which noise: %zu  <- "
              "the outliers\n", small_total, noise_in_small);

  // Quantify the outlier story with per-object assignment margins: the
  // objects the consensus is least sure about should be noise points.
  {
    const CorrelationInstance instance =
        CorrelationInstance::Build(*set).value();
    Result<std::vector<std::size_t>> ambiguous =
        MostAmbiguousObjects(instance, aggregated->clustering, 20);
    CLUSTAGG_CHECK_OK(ambiguous.status());
    std::size_t ambiguous_noise = 0;
    for (std::size_t v : *ambiguous) {
      if (data->ground_truth[v] < 0) ++ambiguous_noise;
    }
    std::printf("  of the 20 lowest-confidence points, %zu are noise\n",
                ambiguous_noise);
  }

  const Clustering truth([&] {
    std::vector<Clustering::Label> labels(data->size());
    for (std::size_t i = 0; i < data->size(); ++i) {
      // Treat every noise point as its own singleton for scoring.
      labels[i] = data->ground_truth[i] >= 0
                      ? data->ground_truth[i]
                      : static_cast<Clustering::Label>(100 + i);
    }
    return labels;
  }());
  Result<double> ari = AdjustedRandIndex(aggregated->clustering, truth);
  CLUSTAGG_CHECK_OK(ari.status());
  std::printf("  adjusted Rand index vs planted structure: %.3f\n", *ari);
  return 0;
}
