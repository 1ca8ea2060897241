// Weighted aggregation (extension): when some input clusterings are more
// trustworthy than others, per-clustering weights generalize the
// objective to sum_i w_i d(C_i, C). Here the weights come from each
// input's own agreement with the rest of the ensemble — a simple
// self-weighting scheme — and rescue the aggregate from a majority of
// bad inputs. Assignment-confidence margins then show which objects the
// weighted consensus is still unsure about.

#include <cstdio>

#include "clustagg/clustagg.h"
#include "common/check.h"

int main() {
  using namespace clustagg;

  // Ground truth: 4 groups of 50 objects.
  const std::size_t n = 200;
  std::vector<Clustering::Label> planted(n);
  for (std::size_t v = 0; v < n; ++v) {
    planted[v] = static_cast<Clustering::Label>(v / 50);
  }
  const Clustering truth(planted);

  // Two careful inputs (5% noise) against five sloppy ones (40% noise).
  Rng rng(23);
  std::vector<Clustering> inputs;
  std::vector<double> noise_levels = {0.05, 0.05, 0.40, 0.40,
                                      0.40, 0.40, 0.40};
  for (double noise : noise_levels) {
    std::vector<Clustering::Label> labels(planted);
    for (auto& l : labels) {
      if (rng.NextBernoulli(noise)) {
        l = static_cast<Clustering::Label>(rng.NextBounded(4));
      }
    }
    inputs.emplace_back(std::move(labels));
  }

  // Self-weighting: weight each input by its average Rand index with the
  // other inputs (no ground truth needed).
  std::vector<double> weights(inputs.size(), 0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (i == j) continue;
      weights[i] += *RandIndex(inputs[i], inputs[j]);
    }
    weights[i] /= static_cast<double>(inputs.size() - 1);
    // Sharpen: reliability differences grow with the 8th power.
    double sharpened = 1.0;
    for (int p = 0; p < 8; ++p) sharpened *= weights[i];
    weights[i] = sharpened;
  }
  std::printf("self-assessed weights: ");
  for (double w : weights) std::printf("%.2f ", w);
  std::printf("\n(first two inputs are the careful ones)\n\n");

  auto aggregate = [&](std::vector<double> use_weights) {
    Result<ClusteringSet> set =
        ClusteringSet::Create(inputs, std::move(use_weights));
    CLUSTAGG_CHECK_OK(set.status());
    AggregatorOptions options;
    options.algorithm = AggregationAlgorithm::kAgglomerative;
    options.refine_with_local_search = true;
    Result<AggregationResult> result = Aggregate(*set, options);
    CLUSTAGG_CHECK_OK(result.status());
    return *std::move(result);
  };

  const AggregationResult unweighted = aggregate({});
  const AggregationResult weighted = aggregate(weights);
  std::printf("unweighted aggregate: k=%zu  ARI=%.3f\n",
              unweighted.clustering.NumClusters(),
              *AdjustedRandIndex(unweighted.clustering, truth));
  std::printf("weighted aggregate:   k=%zu  ARI=%.3f\n",
              weighted.clustering.NumClusters(),
              *AdjustedRandIndex(weighted.clustering, truth));

  // Where is the weighted consensus still unsure?
  Result<ClusteringSet> weighted_set =
      ClusteringSet::Create(inputs, weights);
  CLUSTAGG_CHECK_OK(weighted_set.status());
  const CorrelationInstance instance =
      CorrelationInstance::Build(*weighted_set).value();
  Result<std::vector<double>> margins =
      AssignmentMargins(instance, weighted.clustering);
  CLUSTAGG_CHECK_OK(margins.status());
  double min_margin = 1e300;
  double max_margin = -1e300;
  for (double m : *margins) {
    min_margin = std::min(min_margin, m);
    max_margin = std::max(max_margin, m);
  }
  std::printf("\nassignment margins: min=%.2f max=%.2f "
              "(higher = more confident)\n", min_margin, max_margin);
  return 0;
}
