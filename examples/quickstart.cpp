// Quickstart: the worked example of Figures 1 and 2 of the paper.
//
// Six objects v1..v6, three input clusterings; the optimal aggregate
// C = {{v1,v3},{v2,v4},{v5,v6}} disagrees with the inputs on exactly 5
// pairs. This example builds the instance, runs every aggregation
// algorithm, and verifies the optimum with the exact solver.

#include <cstdio>

#include "clustagg/clustagg.h"
#include "common/check.h"

int main() {
  using namespace clustagg;

  // The three clusterings from Figure 1 (labels are per-column cluster
  // ids; object order v1..v6).
  const Clustering c1({0, 0, 1, 1, 2, 2});
  const Clustering c2({0, 1, 0, 1, 2, 3});
  const Clustering c3({0, 1, 0, 1, 2, 2});

  Result<ClusteringSet> input = ClusteringSet::Create({c1, c2, c3});
  CLUSTAGG_CHECK_OK(input.status());

  // The correlation-clustering instance of Figure 2: X_uv = fraction of
  // clusterings separating u and v (solid = 1/3, dashed = 2/3,
  // dotted = 1).
  const CorrelationInstance instance =
      CorrelationInstance::Build(*input).value();
  std::printf("Correlation instance (Figure 2), X_uv as thirds:\n    ");
  for (int v = 1; v <= 6; ++v) std::printf("  v%d", v);
  std::printf("\n");
  for (std::size_t u = 0; u < 6; ++u) {
    std::printf("  v%zu ", u + 1);
    for (std::size_t v = 0; v < 6; ++v) {
      std::printf(" %d/3", static_cast<int>(instance.distance(u, v) * 3 + .5));
    }
    std::printf("\n");
  }

  // Aggregate with each algorithm.
  std::printf("\n%-16s %-22s %s\n", "algorithm", "clusters", "D(C)");
  for (AggregationAlgorithm algorithm :
       {AggregationAlgorithm::kBestClustering, AggregationAlgorithm::kBalls,
        AggregationAlgorithm::kAgglomerative,
        AggregationAlgorithm::kFurthest, AggregationAlgorithm::kLocalSearch,
        AggregationAlgorithm::kExact}) {
    AggregatorOptions options;
    options.algorithm = algorithm;
    // The paper's practical BALLS setting (alpha = 1/4 is the theory
    // constant but tends to produce singletons; Section 4).
    options.balls.alpha = 0.4;
    Result<AggregationResult> result = Aggregate(*input, options);
    CLUSTAGG_CHECK_OK(result.status());

    std::string clusters;
    for (const auto& members : result->clustering.Clusters()) {
      clusters += "{";
      for (std::size_t i = 0; i < members.size(); ++i) {
        clusters += "v";
        clusters += std::to_string(members[i] + 1);
        if (i + 1 < members.size()) clusters += ",";
      }
      clusters += "}";
    }
    std::printf("%-16s %-22s %.0f\n", AggregationAlgorithmName(algorithm),
                clusters.c_str(), result->total_disagreements);
  }

  std::printf(
      "\nThe optimum C = {v1,v3}{v2,v4}{v5,v6} has 5 disagreements:\n"
      "one with C2 on (v5,v6) and four with C1 — exactly as in the "
      "paper.\n");
  return 0;
}
