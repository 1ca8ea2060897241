// Clustering heterogeneous data (Section 2): tuples defined over
// incomparable attributes — here, 2D spatial coordinates (numerical)
// plus categorical attributes — cannot be fed to one distance function.
// The aggregation recipe: partition the attributes vertically into
// homogeneous sets, cluster each set with the appropriate algorithm
// (k-means for the numeric block, attribute-induced clusterings for the
// categorical block), then aggregate.

#include <cstdio>

#include "clustagg/clustagg.h"
#include "common/check.h"

int main() {
  using namespace clustagg;

  // Build a mixed dataset with a shared latent structure: 4 groups, each
  // with a spatial location and preferred categorical values.
  const std::size_t kGroups = 4;
  const std::size_t kPerGroup = 150;
  Rng rng(31);
  const Point2D centers[kGroups] = {
      {0.2, 0.2}, {0.8, 0.25}, {0.25, 0.8}, {0.75, 0.75}};

  std::vector<Point2D> points;
  std::vector<std::vector<std::int32_t>> rows;
  std::vector<std::int32_t> truth;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t i = 0; i < kPerGroup; ++i) {
      points.push_back({centers[g].x + 0.06 * rng.NextGaussian(),
                        centers[g].y + 0.06 * rng.NextGaussian()});
      // Three categorical attributes, noisy around group-preferred
      // values.
      std::vector<std::int32_t> row(3);
      for (std::size_t a = 0; a < 3; ++a) {
        row[a] = static_cast<std::int32_t>(
            rng.NextBernoulli(0.15) ? rng.NextBounded(5) : (g + a) % 5);
      }
      rows.push_back(std::move(row));
      truth.push_back(static_cast<std::int32_t>(g));
    }
  }
  Result<CategoricalTable> table =
      CategoricalTable::Create(std::move(rows), truth);
  CLUSTAGG_CHECK_OK(table.status());
  std::printf("Mixed dataset: %zu tuples, 2 numeric + 3 categorical "
              "attributes\n\n", points.size());

  // Homogeneous block 1: the numeric attributes, clustered with k-means
  // at a few plausible k (no single k needs to be right).
  KMeansEnsembleOptions sweep;
  sweep.k_min = 3;
  sweep.k_max = 5;
  sweep.seed = 7;
  Result<ClusteringSet> numeric = KMeansEnsemble(points, sweep);
  CLUSTAGG_CHECK_OK(numeric.status());
  std::vector<Clustering> inputs = numeric->clusterings();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::printf("numeric block, k-means k=%zu: %zu clusters\n",
                sweep.k_min + i, inputs[i].NumClusters());
  }
  // Homogeneous block 2: each categorical attribute is a clustering.
  for (std::size_t a = 0; a < table->num_attributes(); ++a) {
    Result<Clustering> c = AttributeClustering(*table, a);
    CLUSTAGG_CHECK_OK(c.status());
    std::printf("categorical attribute %zu: %zu value-clusters\n", a,
                c->NumClusters());
    inputs.push_back(std::move(*c));
  }

  Result<ClusteringSet> set = ClusteringSet::Create(std::move(inputs));
  CLUSTAGG_CHECK_OK(set.status());
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kLocalSearch;
  Result<AggregationResult> result = Aggregate(*set, options);
  CLUSTAGG_CHECK_OK(result.status());

  const Clustering truth_clustering(
      std::vector<Clustering::Label>(truth.begin(), truth.end()));
  Result<double> ari =
      AdjustedRandIndex(result->clustering, truth_clustering);
  CLUSTAGG_CHECK_OK(ari.status());
  std::printf("\naggregate: %zu clusters, ARI vs latent groups = %.3f\n",
              result->clustering.NumClusters(), *ari);
  std::printf("(no attribute block could see the whole structure; the "
              "aggregate can)\n");
  return 0;
}
