#ifndef CLUSTAGG_COMMON_RUN_CONTEXT_H_
#define CLUSTAGG_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/check.h"
#include "common/status.h"

namespace clustagg {

class Telemetry;

/// How a budgeted run ended. Every run-control-aware entry point returns
/// a valid, complete clustering whatever the outcome; the tag tells the
/// caller how much trust to place in it.
enum class RunOutcome {
  /// The algorithm reached its natural fixed point (or exhausted its own
  /// option-bounded work) without hitting any externally imposed limit.
  kConverged,
  /// The wall-clock deadline or iteration budget of the RunContext was
  /// hit; the result is the best clustering found up to that point.
  kDeadlineExceeded,
  /// RequestCancel() was observed; the result is the best clustering
  /// found up to that point.
  kCancelled,
  /// A degradation fallback was taken (dense→lazy backend, exact→BALLS +
  /// LOCALSEARCH, ...) and the fallback path then ran to completion.
  kFellBack,
};

/// Stable lowercase name ("converged", "deadline_exceeded", "cancelled",
/// "fell_back") for reports and the CLI.
const char* RunOutcomeName(RunOutcome outcome);

/// Picks the more severe of two outcomes (cancelled > deadline_exceeded >
/// fell_back > converged), used when combining phases of a pipeline.
RunOutcome MergeOutcomes(RunOutcome a, RunOutcome b);

/// Test-only fault-injection hooks carried by a RunContext. Production
/// callers leave these empty; the fault-injection test suite uses them to
/// drive every degradation path deterministically.
struct FaultHooks {
  /// Consulted immediately before large allocations (the dense distance
  /// triangle, the agglomerative working matrix). Returning true makes
  /// the caller behave exactly as if the allocation had failed
  /// (ResourceExhausted), without actually exhausting memory. May be
  /// called from worker threads; must be thread-safe.
  std::function<bool(std::size_t bytes)> fail_allocation;
};

/// Cooperative run-control handle: wall-clock deadline, iteration budget,
/// cancellation flag, and fault-injection hooks, shared by every copy of
/// the context. Long-running loops poll the context at bounded intervals
/// (per pass, per row chunk, per few thousand search nodes) and wind down
/// with their best-so-far result when it fires.
///
/// A default-constructed RunContext is *unlimited*: polling is a single
/// null check and never stops a run. Controllable contexts are created
/// with the factories below; all methods on them are thread-safe, so a
/// watchdog thread may cancel a run while worker threads poll it.
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unlimited context: never expires, cannot be cancelled.
  RunContext() = default;

  /// A cancellable context with no deadline or budget; combine with the
  /// setters below to add limits.
  static RunContext Cancellable();

  /// A context expiring `budget` from now.
  static RunContext WithDeadline(std::chrono::nanoseconds budget);

  /// A context expiring at the given instant.
  static RunContext WithDeadlineAt(Clock::time_point deadline);

  /// A context allowing at most `iterations` charged work units (see
  /// ChargeIterations); exceeding the budget reads as kDeadlineExceeded.
  static RunContext WithIterationBudget(std::uint64_t iterations);

  /// True when this is the unlimited (default-constructed) context.
  bool unlimited() const { return state_ == nullptr; }

  /// Setters for controllable contexts (CHECK-fail on the unlimited
  /// context — create one with a factory first).
  void set_deadline(Clock::time_point deadline) const;
  void set_iteration_budget(std::uint64_t iterations) const;
  void set_fault_hooks(FaultHooks hooks) const;

  /// Requests cooperative cancellation; the run stops at its next poll
  /// and returns its best-so-far result tagged kCancelled. CHECK-fails on
  /// the unlimited context. Thread-safe; idempotent.
  void RequestCancel() const;

  bool cancel_requested() const;
  bool deadline_expired() const;

  /// Adds `amount` to the consumed iteration counter. A no-op without an
  /// iteration budget. Thread-safe.
  void ChargeIterations(std::uint64_t amount) const;

  /// The heart of cooperative control: kConverged while the run may
  /// continue, otherwise the outcome (kCancelled wins over
  /// kDeadlineExceeded) the caller should tag its best-so-far result
  /// with. Cost: a null check on unlimited contexts; one relaxed atomic
  /// load plus (with a deadline) one clock read otherwise.
  RunOutcome Poll() const;

  /// Shorthand for Poll() != kConverged.
  bool ShouldStop() const { return Poll() != RunOutcome::kConverged; }

  /// Status equivalent of a non-converged Poll, for paths that must
  /// abandon instead of degrade (e.g. a half-built dense matrix is not a
  /// usable partial result). CHECK-fails on kConverged/kFellBack.
  Status StopStatus(RunOutcome outcome) const;

  /// The outcome to tag a best-so-far answer with after a loop reported
  /// an interrupt: Poll(), except that kConverged reads as
  /// kDeadlineExceeded. Limits only tighten on their own, but a setter
  /// may have lifted the one that fired; the loop still stopped early,
  /// so the answer is never tagged converged.
  RunOutcome InterruptOutcome() const;

  /// StopStatus(InterruptOutcome()): the status of a pass that must be
  /// abandoned after its loop reported an interrupt.
  Status InterruptStatus() const { return StopStatus(InterruptOutcome()); }

  /// True when `status` is the interrupt of a budgeted run (kCancelled /
  /// kDeadlineExceeded) rather than a real error.
  static bool IsInterrupt(const Status& status) {
    return status.code() == StatusCode::kCancelled ||
           status.code() == StatusCode::kDeadlineExceeded;
  }

  /// The outcome a StopStatus round-trips back to.
  static RunOutcome OutcomeFromInterrupt(const Status& status);

  /// Consults the fail_allocation fault hook (false when unset): true
  /// means the caller should report ResourceExhausted as if the
  /// allocation of `bytes` had failed.
  bool SimulateAllocationFailure(std::size_t bytes) const;

  /// Returns a copy of this context carrying `telemetry` as its metrics
  /// sink; every layer the copy reaches (clusterers, the aggregator
  /// degradation chain, sampling, parallel helpers) records spans,
  /// counters, and convergence traces into it. The caller owns the
  /// Telemetry and must keep it alive for the duration of every run the
  /// copy is handed to. Works on the unlimited context too — telemetry
  /// is independent of run limits.
  RunContext WithTelemetry(Telemetry* telemetry) const {
    RunContext copy = *this;
    copy.telemetry_ = telemetry;
    return copy;
  }

  /// The attached metrics sink, or null (the default) when none is. The
  /// instrumentation helpers accept null and do nothing, so callers pass
  /// this through unconditionally.
  Telemetry* telemetry() const { return telemetry_; }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::atomic<std::uint64_t> iterations_used{0};
    std::uint64_t iteration_budget = 0;  // 0 = no budget
    FaultHooks faults;
  };

  explicit RunContext(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  /// Null for the unlimited context. The pointed-to state is shared by
  /// every copy, which is what lets one thread cancel a run another
  /// thread is polling.
  std::shared_ptr<State> state_;

  /// Borrowed metrics sink (see WithTelemetry); independent of state_ so
  /// even unlimited contexts can carry one at no polling cost.
  Telemetry* telemetry_ = nullptr;
};

}  // namespace clustagg

#endif  // CLUSTAGG_COMMON_RUN_CONTEXT_H_
