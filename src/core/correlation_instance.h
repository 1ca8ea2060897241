#ifndef CLUSTAGG_CORE_CORRELATION_INSTANCE_H_
#define CLUSTAGG_CORE_CORRELATION_INSTANCE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/symmetric_matrix.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/distance_source.h"
#include "core/signature_index.h"

namespace clustagg {

/// An instance of the correlation-clustering problem (Problem 2): n
/// objects and pairwise distances X_uv in [0, 1]. The cost of a candidate
/// partition C is
///   d(C) = sum_{u<v, C(u)=C(v)} X_uv + sum_{u<v, C(u)!=C(v)} (1 - X_uv).
///
/// Instances built from a ClusteringSet additionally satisfy the triangle
/// inequality on X, the property the BALLS analysis relies on.
///
/// The instance is a thin owner over a pluggable DistanceSource: dense
/// (packed float matrix, O(n^2/2) memory, O(1) queries) or lazy (O(n*m)
/// memory, O(m) queries). Both backends answer bit-identically, so every
/// algorithm produces the same output whichever one carries the data.
/// Whole-instance passes (Cost, LowerBound, TotalIncidentWeights and the
/// clusterers' own row scans) go through ForEachRow / ForEachUpperRow:
/// row-parallel, with a deterministic, thread-count-independent
/// summation.
class CorrelationInstance {
 public:
  CorrelationInstance() = default;

  /// Validating factory: every entry must lie in [0, 1].
  static Result<CorrelationInstance> FromDistances(
      SymmetricMatrix<float> distances);

  /// Builds the instance summarizing a set of input clusterings:
  /// X_uv = (expected) fraction of clusterings separating u and v under
  /// the missing-value policy, carried by the backend chosen in
  /// `options`. Dense construction is O(m n^2 / threads) and fails with
  /// ResourceExhausted when the triangle cannot be allocated; lazy
  /// construction is O(n m). Both fail with InvalidArgument when
  /// `missing` fails MissingValueOptions::Validate.
  static Result<CorrelationInstance> Build(
      const ClusteringSet& input, const MissingValueOptions& missing = {},
      const DistanceSourceOptions& options = {});

  /// Build(input.Restrict(subset), ...); kept for existing callers.
  static Result<CorrelationInstance> BuildSubset(
      const ClusteringSet& input, const std::vector<std::size_t>& subset,
      const MissingValueOptions& missing = {},
      const DistanceSourceOptions& options = {});

  /// The folded instance of `input`: Build over the input restricted to
  /// fold.representatives(), carrying fold.multiplicities() (see
  /// FromSource). `fold` must group exactly `input`'s objects. Object g
  /// of the result is signature g; SignatureIndex::Fold and Expand map
  /// clusterings into and out of this space. A trivial() fold (the
  /// identity) returns exactly Build(input, missing, options): no
  /// restricted copy and no multiplicities, so folded() is false.
  static Result<CorrelationInstance> BuildFolded(
      const ClusteringSet& input, const SignatureIndex& fold,
      const MissingValueOptions& missing = {},
      const DistanceSourceOptions& options = {});

  /// Wraps an already-built source. num_threads seeds the parallel
  /// reductions (0 = one per hardware core). A non-empty `multiplicities`
  /// (one entry per object, each >= 1) marks a *folded* instance — object
  /// v stands for multiplicities[v] identical originals — and weights
  /// every pair (u, v) by multiplicities[u] * multiplicities[v] in Cost /
  /// LowerBound and every column by multiplicities[v] in
  /// TotalIncidentWeights, so optimizing the folded instance optimizes
  /// the original objective over partitions that keep every group
  /// together. Pairs inside one group are not counted: Cost and
  /// LowerBound omit the constant sum of C(mult_g, 2) * X_gg, which is
  /// nonzero only for a signature with a missing label under
  /// kRandomCoin (see SignatureIndex). An unfolded instance runs the
  /// same weighted arithmetic with weights of exactly 1.0, so its sums
  /// are those of the plain unweighted formula (multiplying by 1.0 is
  /// exact).
  static CorrelationInstance FromSource(
      std::shared_ptr<const DistanceSource> source,
      std::size_t num_threads = 0, std::vector<double> multiplicities = {});

  std::size_t size() const { return source_ ? source_->size() : 0; }

  /// X_uv (0 when u == v). Inlined O(1) matrix read under the dense
  /// backend, O(m) recomputation under the lazy one.
  double distance(std::size_t u, std::size_t v) const {
    if (dense_ != nullptr) return (*dense_)(u, v);
    return source_->distance(u, v);
  }

  /// Bulk query: writes X_uv into row[v] for every v in [0, n).
  void FillRow(std::size_t u, std::span<double> row) const {
    source_->FillRow(u, row);
  }

  /// Calls fn(u, row) for every object u, where `row` (a
  /// std::span<const double> of n entries) holds X_u* as FillRow writes
  /// it. The row is a per-thread scratch buffer, valid during the call
  /// only. Rows run in parallel on this instance's threads under `run`,
  /// with the contract of ParallelForRows: fn's writes must be disjoint
  /// per row, and false is returned when `run` interrupted the pass.
  template <typename Fn>
  bool ForEachRow(const RunContext& run, Fn&& fn) const {
    const std::size_t n = size();
    std::vector<std::vector<double>> rows(RowThreads(),
                                          std::vector<double>(n));
    return ParallelForRows(
        n, rows.size(), run, [&](std::size_t u, std::size_t tid) {
          source_->FillRow(u, rows[tid]);
          fn(u, std::span<const double>(rows[tid]));
        });
  }

  /// Calls fn(u, tail) for every u < n - 1, where tail[i] = X_{u,u+1+i}
  /// for i < n - u - 1: row u of the strict upper triangle. A dense
  /// instance hands out its packed `const float*` tail in place; other
  /// backends hand out `const double*` into a FillRow scratch row. Write
  /// fn with an `auto tail` parameter to serve both. Same parallel and
  /// interrupt contract as ForEachRow.
  template <typename Fn>
  bool ForEachUpperRow(const RunContext& run, Fn&& fn) const {
    const std::size_t n = size();
    if (dense_ != nullptr) {
      const float* packed = dense_->packed().data();
      return ParallelForRows(
          n, RowThreads(), run, [&](std::size_t u, std::size_t) {
            if (u + 1 < n) fn(u, packed + dense_->PackedIndex(u, u + 1));
          });
    }
    std::vector<std::vector<double>> rows(RowThreads(),
                                          std::vector<double>(n));
    return ParallelForRows(
        n, rows.size(), run, [&](std::size_t u, std::size_t tid) {
          if (u + 1 >= n) return;
          source_->FillRow(u, rows[tid]);
          fn(u, static_cast<const double*>(rows[tid].data() + u + 1));
        });
  }

  /// Correlation-clustering cost of a complete candidate partition.
  /// O(n^2 / threads) dense, O(m n^2 / threads) lazy; identical result
  /// for every backend and thread count. The budgeted overload polls
  /// `run` per row chunk; a partial sum is useless, so an interrupt
  /// abandons the reduction with a Cancelled/DeadlineExceeded status.
  Result<double> Cost(const Clustering& candidate) const {
    return Cost(candidate, RunContext());
  }
  Result<double> Cost(const Clustering& candidate,
                      const RunContext& run) const;

  /// Per-pair lower bound on the optimal cost: every unordered pair
  /// contributes at least min(X_uv, 1 - X_uv) whatever the partition does
  /// with it. This is the "Lower bound" row of Tables 2 and 3 (up to the
  /// factor m relating d(C) and D(C)). On a folded instance it is a
  /// bound on the folded Cost, which omits the intra-group pairs, so it
  /// sits below the per-pair bound over the unfolded objects whenever a
  /// group has X_gg > 0. The budgeted overload abandons with an
  /// interrupt status like Cost.
  double LowerBound() const;
  Result<double> LowerBound(const RunContext& run) const;

  /// The per-pair lower bound on D(C) over `input`: LowerBound() of the
  /// unfolded lazy instance, times input.total_weight() to turn d into D.
  /// Every pair counts, intra-group ones included. Fails like Build.
  static Result<double> DisagreementBound(
      const ClusteringSet& input, const MissingValueOptions& missing = {},
      std::size_t num_threads = 0);

  /// Total incident weight sum_v X_uv of each vertex; the BALLS algorithm
  /// sorts vertices by this. O(n^2 / threads) dense. The budgeted
  /// overload abandons with an interrupt status like Cost.
  std::vector<double> TotalIncidentWeights() const;
  Result<std::vector<double>> TotalIncidentWeights(
      const RunContext& run) const;

  /// Exhaustively verifies X_uw <= X_uv + X_vw for all triples, within
  /// `tolerance`. O(n^3) — test helper for small instances.
  bool SatisfiesTriangleInequality(double tolerance = 1e-6) const;

  /// The backing source (nullptr for a default-constructed instance).
  const DistanceSource* source() const { return source_.get(); }
  std::shared_ptr<const DistanceSource> shared_source() const {
    return source_;
  }

  /// The packed matrix when the backend is dense, nullptr otherwise.
  const SymmetricMatrix<float>* dense_matrix() const { return dense_; }

  /// "dense" or "lazy".
  const char* backend_name() const {
    return source_ ? source_->name() : "dense";
  }

  /// True when this instance carries fold multiplicities (see
  /// FromSource). Folded instances must be scored with the weighted
  /// reductions; clusterers read `multiplicity` to weight their own
  /// internal sums.
  bool folded() const { return !multiplicities_.empty(); }

  /// Number of original objects represented by folded object v (1.0 for
  /// unfolded instances).
  double multiplicity(std::size_t v) const {
    return multiplicities_.empty() ? 1.0 : multiplicities_[v];
  }

  /// The raw multiplicity vector; empty for unfolded instances.
  const std::vector<double>& multiplicities() const {
    return multiplicities_;
  }

 private:
  /// Threads worth using for one pass over the n rows.
  std::size_t RowThreads() const {
    return EffectiveRowThreads(size(), ResolveThreadCount(num_threads_));
  }

  /// The per-object weights of the reductions: the multiplicities, or n
  /// exact 1.0s when the instance is unfolded.
  std::vector<double> Weights() const;

  CorrelationInstance(std::shared_ptr<const DistanceSource> source,
                      std::size_t num_threads,
                      std::vector<double> multiplicities = {})
      : source_(std::move(source)),
        dense_(source_ ? source_->dense_matrix() : nullptr),
        num_threads_(num_threads),
        multiplicities_(std::move(multiplicities)) {}

  std::shared_ptr<const DistanceSource> source_;
  /// Borrowed from source_ when dense: devirtualized hot-path reads.
  const SymmetricMatrix<float>* dense_ = nullptr;
  /// Thread knob of the row walks (0 = one per hardware core).
  std::size_t num_threads_ = 0;
  /// Fold multiplicities (empty = every object counts once).
  std::vector<double> multiplicities_;
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_CORRELATION_INSTANCE_H_
