#include "ensemble/ensemble.h"

#include <utility>
#include <vector>

#include "vanilla/kmeans.h"

namespace clustagg {

Result<ClusteringSet> KMeansEnsemble(const std::vector<Point2D>& points,
                                     const KMeansEnsembleOptions& options) {
  if (options.k_min < 1 || options.k_min > options.k_max) {
    return Status::InvalidArgument("need 1 <= k_min <= k_max");
  }
  std::vector<Clustering> members;
  for (std::size_t k = options.k_min; k <= options.k_max; ++k) {
    KMeansOptions km;
    km.k = k;
    km.max_iterations = options.max_iterations;
    km.seed = options.seed + k;
    Result<KMeansResult> r = KMeans(points, km);
    if (!r.ok()) return r.status();
    members.push_back(std::move(r->clustering));
  }
  return ClusteringSet::Create(std::move(members));
}

}  // namespace clustagg
