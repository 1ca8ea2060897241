// Handling large datasets (Section 4.1): the SAMPLING meta-algorithm
// aggregates a logarithmic sample with the expensive quadratic machinery
// and places everything else with a linear assignment pass. This example
// clusters 50,000 points from nine k-means inputs in seconds — the full
// O(n^2) instance would need ~5 GB just for the matrix.

#include <cstdio>

#include "clustagg/clustagg.h"
#include "common/check.h"

int main() {
  using namespace clustagg;

  GaussianMixtureOptions generator;
  generator.num_clusters = 5;
  generator.points_per_cluster = 10000 / 5 * 4;  // 40k clustered points
  generator.noise_fraction = 0.25;               // +10k noise
  generator.seed = 17;
  Result<Dataset2D> data = GenerateGaussianMixture(generator);
  CLUSTAGG_CHECK_OK(data.status());
  std::printf("Dataset: %zu points\n", data->size());

  KMeansEnsembleOptions sweep;  // k = 2..10
  sweep.seed = 0;
  Result<ClusteringSet> set = KMeansEnsemble(data->points, sweep);
  CLUSTAGG_CHECK_OK(set.status());

  SamplingOptions sampling;
  sampling.sample_size = 1000;  // the paper's Figure 5 (right) setting
  sampling.seed = 99;
  SamplingStats stats;
  const AgglomerativeClusterer base;
  Result<Clustering> result = SamplingAggregate(*set, base, sampling,
                                                &stats);
  CLUSTAGG_CHECK_OK(result.status());

  std::printf("sample size: %zu\n", stats.sample_size);
  std::printf("phase seconds: sample=%.2f assign=%.2f recluster=%.2f\n",
              stats.sample_phase_seconds, stats.assign_phase_seconds,
              stats.recluster_phase_seconds);

  // The five true clusters should come out as the five big clusters.
  std::size_t large = 0;
  for (const auto& members : result->Clusters()) {
    if (members.size() >= data->size() / 20) ++large;
  }
  std::printf("clusters found: %zu (of which large: %zu — expected 5)\n",
              result->NumClusters(), large);
  return 0;
}
