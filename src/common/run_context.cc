#include "common/run_context.h"

#include <utility>

namespace clustagg {

const char* RunOutcomeName(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kConverged:
      return "converged";
    case RunOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case RunOutcome::kCancelled:
      return "cancelled";
    case RunOutcome::kFellBack:
      return "fell_back";
  }
  return "unknown";
}

RunOutcome MergeOutcomes(RunOutcome a, RunOutcome b) {
  auto severity = [](RunOutcome o) {
    switch (o) {
      case RunOutcome::kConverged:
        return 0;
      case RunOutcome::kFellBack:
        return 1;
      case RunOutcome::kDeadlineExceeded:
        return 2;
      case RunOutcome::kCancelled:
        return 3;
    }
    return 0;
  };
  return severity(a) >= severity(b) ? a : b;
}

RunContext RunContext::Cancellable() {
  return RunContext(std::make_shared<State>());
}

RunContext RunContext::WithDeadline(std::chrono::nanoseconds budget) {
  return WithDeadlineAt(Clock::now() + budget);
}

RunContext RunContext::WithDeadlineAt(Clock::time_point deadline) {
  RunContext context = Cancellable();
  context.set_deadline(deadline);
  return context;
}

RunContext RunContext::WithIterationBudget(std::uint64_t iterations) {
  RunContext context = Cancellable();
  context.set_iteration_budget(iterations);
  return context;
}

void RunContext::set_deadline(Clock::time_point deadline) const {
  CLUSTAGG_CHECK(state_ != nullptr);
  state_->has_deadline = true;
  state_->deadline = deadline;
}

void RunContext::set_iteration_budget(std::uint64_t iterations) const {
  CLUSTAGG_CHECK(state_ != nullptr);
  state_->iteration_budget = iterations;
}

void RunContext::set_fault_hooks(FaultHooks hooks) const {
  CLUSTAGG_CHECK(state_ != nullptr);
  state_->faults = std::move(hooks);
}

void RunContext::RequestCancel() const {
  CLUSTAGG_CHECK(state_ != nullptr);
  state_->cancelled.store(true, std::memory_order_relaxed);
}

bool RunContext::cancel_requested() const {
  return state_ != nullptr &&
         state_->cancelled.load(std::memory_order_relaxed);
}

bool RunContext::deadline_expired() const {
  return state_ != nullptr && state_->has_deadline &&
         Clock::now() >= state_->deadline;
}

void RunContext::ChargeIterations(std::uint64_t amount) const {
  if (state_ == nullptr || state_->iteration_budget == 0) return;
  state_->iterations_used.fetch_add(amount, std::memory_order_relaxed);
}

RunOutcome RunContext::Poll() const {
  if (state_ == nullptr) return RunOutcome::kConverged;
  if (state_->cancelled.load(std::memory_order_relaxed)) {
    return RunOutcome::kCancelled;
  }
  if (state_->has_deadline && Clock::now() >= state_->deadline) {
    return RunOutcome::kDeadlineExceeded;
  }
  if (state_->iteration_budget != 0 &&
      state_->iterations_used.load(std::memory_order_relaxed) >=
          state_->iteration_budget) {
    return RunOutcome::kDeadlineExceeded;
  }
  return RunOutcome::kConverged;
}

RunOutcome RunContext::InterruptOutcome() const {
  const RunOutcome outcome = Poll();
  return outcome == RunOutcome::kConverged ? RunOutcome::kDeadlineExceeded
                                           : outcome;
}

Status RunContext::StopStatus(RunOutcome outcome) const {
  switch (outcome) {
    case RunOutcome::kCancelled:
      return Status::Cancelled("run cancelled");
    case RunOutcome::kDeadlineExceeded:
      return Status::DeadlineExceeded("run deadline exceeded");
    case RunOutcome::kConverged:
    case RunOutcome::kFellBack:
      break;
  }
  CLUSTAGG_CHECK(false);
  return Status::Internal("not a stop outcome");
}

RunOutcome RunContext::OutcomeFromInterrupt(const Status& status) {
  CLUSTAGG_CHECK(IsInterrupt(status));
  return status.code() == StatusCode::kCancelled
             ? RunOutcome::kCancelled
             : RunOutcome::kDeadlineExceeded;
}

bool RunContext::SimulateAllocationFailure(std::size_t bytes) const {
  if (state_ == nullptr || !state_->faults.fail_allocation) return false;
  return state_->faults.fail_allocation(bytes);
}

}  // namespace clustagg
