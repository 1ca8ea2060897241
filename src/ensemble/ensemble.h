#ifndef CLUSTAGG_ENSEMBLE_ENSEMBLE_H_
#define CLUSTAGG_ENSEMBLE_ENSEMBLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/clustering_set.h"
#include "vanilla/dataset2d.h"

namespace clustagg {

/// The k-means sweep that generates *diverse* input clusterings of a
/// point set: the raw material of the paper's meta-clustering
/// application ("improving clustering robustness", Section 2) and its
/// Figures 4 and 5.

/// Options for the k-means ensemble.
struct KMeansEnsembleOptions {
  /// k sweep (inclusive); the paper's Figures 4/5 use 2..10.
  std::size_t k_min = 2;
  std::size_t k_max = 10;
  std::size_t max_iterations = 100;
  std::uint64_t seed = 1;
};

/// One k-means clustering per k in [k_min, k_max], the run for k seeded
/// with seed + k.
Result<ClusteringSet> KMeansEnsemble(const std::vector<Point2D>& points,
                                     const KMeansEnsembleOptions& options);

}  // namespace clustagg

#endif  // CLUSTAGG_ENSEMBLE_ENSEMBLE_H_
