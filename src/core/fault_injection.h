#ifndef CLUSTAGG_CORE_FAULT_INJECTION_H_
#define CLUSTAGG_CORE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/run_context.h"
#include "core/distance_source.h"

namespace clustagg {

/// Test-only DistanceSource decorator that counts queries and fires a
/// deterministic failure schedule keyed by the query count: when the
/// counter crosses `cancel_at_query`, RequestCancel() is invoked on the
/// associated RunContext, so an algorithm is interrupted at exactly the
/// same point in its query stream on every run — independent of wall
/// clock, machine speed, or sanitizer slowdown. A FillRow counts as one
/// query (it is one backend access however many entries it fills).
///
/// The wrapper deliberately hides the inner source's dense matrix:
/// CorrelationInstance reads the packed matrix directly when
/// dense_matrix() is available (inline distance() and the in-place
/// tails of ForEachUpperRow), and so does AGGLOMERATIVE's widen; both
/// would bypass the wrapper and stop the counting. Wrapped instances
/// therefore always exercise the virtual FillRow/distance paths.
class FaultInjectingDistanceSource final : public DistanceSource {
 public:
  /// `cancel_at_query` = 0 disables the trigger (pure counting wrapper).
  /// `run` must not be unlimited when a trigger is set.
  FaultInjectingDistanceSource(std::shared_ptr<const DistanceSource> inner,
                               RunContext run,
                               std::uint64_t cancel_at_query = 0)
      : inner_(std::move(inner)),
        run_(std::move(run)),
        cancel_at_query_(cancel_at_query) {
    CLUSTAGG_CHECK(inner_ != nullptr);
    if (cancel_at_query_ != 0) CLUSTAGG_CHECK(!run_.unlimited());
  }

  std::size_t size() const override { return inner_->size(); }

  double distance(std::size_t u, std::size_t v) const override {
    Charge();
    return inner_->distance(u, v);
  }

  void FillRow(std::size_t u, std::span<double> row) const override {
    Charge();
    inner_->FillRow(u, row);
  }

  /// Keeps the inner backend's name so reports stay truthful about which
  /// representation answered the queries.
  const char* name() const override { return inner_->name(); }

  /// Total queries (distance + FillRow calls) observed so far.
  std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  void Charge() const {
    const std::uint64_t count =
        queries_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cancel_at_query_ != 0 && count == cancel_at_query_) {
      run_.RequestCancel();
    }
  }

  std::shared_ptr<const DistanceSource> inner_;
  RunContext run_;
  std::uint64_t cancel_at_query_;
  mutable std::atomic<std::uint64_t> queries_{0};
};

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_FAULT_INJECTION_H_
