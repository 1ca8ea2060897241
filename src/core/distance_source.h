#ifndef CLUSTAGG_CORE_DISTANCE_SOURCE_H_
#define CLUSTAGG_CORE_DISTANCE_SOURCE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "common/symmetric_matrix.h"
#include "core/clustering_set.h"

namespace clustagg {

namespace internal {
struct DistanceColumns;
}  // namespace internal

/// Which representation backs the pairwise distances X_uv of a
/// correlation-clustering instance.
enum class DistanceBackend {
  /// Packed O(n^2/2) float matrix, built once (in parallel) and then
  /// answering every query in O(1). The right choice whenever it fits in
  /// memory: every algorithm makes many passes over the same pairs.
  kDense,
  /// O(n*m) label columns; every query recomputes X_uv from the m input
  /// clusterings in O(m). Removes the quadratic memory floor, so full
  /// (non-sampled) runs become possible at n = 50K+ where a dense matrix
  /// would need gigabytes.
  kLazy,
};

/// Stable lowercase name ("dense" / "lazy") for CLI flags and reports.
const char* DistanceBackendName(DistanceBackend backend);

/// Knobs shared by every distance-source builder.
struct DistanceSourceOptions {
  DistanceBackend backend = DistanceBackend::kDense;
  /// Threads for parallel construction and for the parallel reductions of
  /// the owning instance. 0 means one per hardware core.
  std::size_t num_threads = 0;
  /// Budget for the O(m n^2) dense build: the parallel fill polls this
  /// and, when it fires, construction aborts with a Cancelled /
  /// DeadlineExceeded status (a half-built matrix is useless). Also
  /// carries the fault-injection hooks that can force the allocation to
  /// "fail" in tests. Default: unlimited.
  RunContext run;
};

/// Query access to the pairwise distances X_uv in [0, 1] of a
/// correlation-clustering instance (Problem 2). Algorithms only ever need
/// this interface — not a materialized matrix — which is what lets the
/// dense and lazy backends be swapped freely.
///
/// Implementations must be deep-const: `distance` and `FillRow` are called
/// concurrently from row-parallel loops.
class DistanceSource {
 public:
  virtual ~DistanceSource() = default;

  /// Number of objects n.
  virtual std::size_t size() const = 0;

  /// X_uv (0 when u == v).
  virtual double distance(std::size_t u, std::size_t v) const = 0;

  /// Bulk query: writes X_uv into row[v] for every v in [0, n). row must
  /// have at least n entries. Backends override this with batched
  /// implementations; the default loops over `distance`.
  virtual void FillRow(std::size_t u, std::span<double> row) const;

  /// Bulk threshold query for the agreement-graph consumers (shard
  /// decompose): agree[v] != 0 iff X_uv < 1/2, for every v in [0, n)
  /// (u itself agrees with itself). Exactly equivalent to comparing
  /// FillRow output against 0.5, but backends can answer it without
  /// materializing distances — the lazy backend's packed kernel decides
  /// it with an integer compare per pair. The default loops `distance`.
  virtual void AgreementRow(std::size_t u, std::span<char> agree) const;

  /// The packed matrix when this source is dense, nullptr otherwise.
  /// CorrelationInstance (distance() and ForEachUpperRow) and
  /// AGGLOMERATIVE's widen read it directly instead of going through
  /// the virtual calls.
  virtual const SymmetricMatrix<float>* dense_matrix() const {
    return nullptr;
  }

  /// Stable backend name for reports ("dense" / "lazy").
  virtual const char* name() const = 0;
};

/// Dense backend: the packed symmetric float matrix. X values derived
/// from m clusterings are multiples of 1/m (m small), so float is ample,
/// and the Mushrooms-scale instance (n = 8124) fits in ~130 MB.
/// Construction partitions rows of the triangle across threads.
class DenseDistanceSource final : public DistanceSource {
 public:
  /// Wraps an existing matrix (entries assumed validated by the caller).
  explicit DenseDistanceSource(SymmetricMatrix<float> distances)
      : distances_(std::move(distances)) {}

  /// Builds the matrix summarizing a set of input clusterings:
  /// X_uv = (expected) fraction of clusterings separating u and v under
  /// the missing-value policy. O(m n^2 / threads) time; fails with
  /// ResourceExhausted when the packed triangle cannot be allocated (or
  /// when `run`'s fault hooks say it should), with Cancelled /
  /// DeadlineExceeded when `run` fires mid-fill, and with InvalidArgument
  /// when `missing` fails MissingValueOptions::Validate.
  static Result<std::shared_ptr<const DenseDistanceSource>> Build(
      const ClusteringSet& input, const MissingValueOptions& missing = {},
      std::size_t num_threads = 0, const RunContext& run = RunContext());

  std::size_t size() const override { return distances_.size(); }
  double distance(std::size_t u, std::size_t v) const override {
    return distances_(u, v);
  }
  void FillRow(std::size_t u, std::span<double> row) const override;
  void AgreementRow(std::size_t u, std::span<char> agree) const override;
  const SymmetricMatrix<float>* dense_matrix() const override {
    return &distances_;
  }
  const char* name() const override { return "dense"; }

 private:
  SymmetricMatrix<float> distances_;
};

/// Lazy backend: keeps only the per-clustering label columns (O(n*m)) and
/// recomputes X_uv on demand, honoring both missing-value policies. Every
/// query rounds through float exactly like the dense matrix does, so both
/// backends return bit-identical distances.
class LazyDistanceSource final : public DistanceSource {
 public:
  ~LazyDistanceSource() override;

  /// O(n m). Fails only with InvalidArgument, when `missing` fails
  /// MissingValueOptions::Validate.
  static Result<std::shared_ptr<const LazyDistanceSource>> Build(
      const ClusteringSet& input, const MissingValueOptions& missing = {});

  /// Build(input.Restrict(subset), missing); kept for existing callers.
  static Result<std::shared_ptr<const LazyDistanceSource>> BuildSubset(
      const ClusteringSet& input, const std::vector<std::size_t>& subset,
      const MissingValueOptions& missing = {});

  std::size_t size() const override;
  double distance(std::size_t u, std::size_t v) const override;
  void FillRow(std::size_t u, std::span<double> row) const override;
  void AgreementRow(std::size_t u, std::span<char> agree) const override;
  const char* name() const override { return "lazy"; }

  /// True when this source carries the bit-packed label representation
  /// (plain instance: no missing label, unit weights).
  /// Introspection for tests and benches; queries answer bit-identically
  /// either way.
  bool uses_packed_labels() const;

 private:
  explicit LazyDistanceSource(
      std::unique_ptr<internal::DistanceColumns> columns);

  std::unique_ptr<internal::DistanceColumns> columns_;
};

/// Backend-dispatching builder: the one entry point most callers want.
/// A sub-instance is built over ClusteringSet::Restrict.
Result<std::shared_ptr<const DistanceSource>> BuildDistanceSource(
    const ClusteringSet& input, const MissingValueOptions& missing = {},
    const DistanceSourceOptions& options = {});

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_DISTANCE_SOURCE_H_
