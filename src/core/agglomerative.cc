#include "core/agglomerative.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace clustagg {

Result<ClustererRun> AgglomerativeClusterer::RunControlled(
    const CorrelationInstance& instance, const RunContext& run) const {
  const std::size_t n = instance.size();
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};

  // The Lance-Williams updates mutate a double matrix in place
  // (average-linkage accumulates weighted means), so agglomeration is
  // inherently O(n^2) memory whatever the instance backend.
  if (n > 1 &&
      run.SimulateAllocationFailure(n * (n - 1) / 2 * sizeof(double))) {
    return Status::ResourceExhausted(
        "simulated allocation failure for the agglomerative working "
        "matrix (" + std::to_string(n) + " objects)");
  }
  Result<SymmetricMatrix<double>> working_result =
      SymmetricMatrix<double>::Create(n);
  if (!working_result.ok()) return working_result.status();
  SymmetricMatrix<double> working = std::move(working_result).value();
  bool materialized = true;
  if (const SymmetricMatrix<float>* dense = instance.dense_matrix()) {
    // Widen the packed float matrix to double. Cheap (one pass over the
    // triangle), so no polling needed.
    const auto& packed = dense->packed();
    auto& out = working.packed();
    for (std::size_t i = 0; i < packed.size(); ++i) {
      out[i] = static_cast<double>(packed[i]);
    }
  } else {
    // Materialize the lazy rows in parallel; each row of the triangle is
    // a disjoint slice of the packed store. This is the O(n^2 m) part,
    // so it polls.
    double* out = working.packed().data();
    materialized = instance.ForEachUpperRow(
        run, [&](std::size_t u, auto tail) {
          std::copy(tail, tail + (n - u - 1),
                    out + working.PackedIndex(u, u + 1));
        });
  }
  if (!materialized) {
    // A half-filled working matrix would merge on garbage distances;
    // the pre-merge state (all singletons) is the valid best-so-far.
    return ClustererRun{Clustering::AllSingletons(n),
                        run.InterruptOutcome()};
  }

  RunOutcome outcome = RunOutcome::kConverged;
  // Folded instances seed the merge sizes with the fold multiplicities,
  // so average linkage weighs each folded object by the originals it
  // stands for (empty = all singletons of size 1, the unfolded case).
  Result<Dendrogram> dendrogram = AgglomerateFull(
      std::move(working), Linkage::kAverage, instance.multiplicities(), run,
      &outcome);
  if (!dendrogram.ok()) return dendrogram.status();

  if (options_.target_clusters > 0) {
    // On a partial dendrogram the requested k may be unreachable; cut as
    // deep as the performed merges allow.
    const std::size_t min_k =
        dendrogram->num_leaves - dendrogram->merges.size();
    Result<Clustering> cut =
        dendrogram->CutAtK(std::max(options_.target_clusters, min_k));
    if (!cut.ok()) return cut.status();
    return ClustererRun{cut->Normalized(), outcome};
  }
  return ClustererRun{
      dendrogram->CutAtHeight(options_.merge_threshold).Normalized(),
      outcome};
}

}  // namespace clustagg
