#include "core/annealing.h"

#include <cmath>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/instrumentation.h"
#include "core/internal/move_state.h"

namespace clustagg {

Result<ClustererRun> AnnealingClusterer::RunControlled(
    const CorrelationInstance& instance, const RunContext& run) const {
  if (options_.cooling <= 0.0 || options_.cooling >= 1.0) {
    return Status::InvalidArgument("cooling must lie in (0, 1)");
  }
  if (options_.moves_per_temperature == 0) {
    return Status::InvalidArgument("moves_per_temperature must be >= 1");
  }
  const std::size_t n = instance.size();
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};
  if (n == 1) {
    return ClustererRun{Clustering::SingleCluster(1), RunOutcome::kConverged};
  }

  Rng rng(options_.seed);
  bool state_built = false;
  internal::MoveState state(instance, Clustering::AllSingletons(n), run,
                            &state_built);
  if (!state_built) {
    return ClustererRun{Clustering::AllSingletons(n),
                        run.InterruptOutcome()};
  }

  // Propose: relocate a random object to a random other cluster or to a
  // fresh singleton.
  auto propose = [&](std::size_t* v, std::size_t* target) {
    *v = rng.NextBounded(n);
    const std::size_t k = state.num_clusters();
    // k candidate targets: the k-1 other clusters plus a fresh
    // singleton (index k-1 after skipping the current slot).
    std::size_t pick = rng.NextBounded(k);
    if (pick == state.cluster_of(*v)) pick = k;  // remap self to fresh
    *target = pick == k ? internal::MoveState::kSingletonTarget : pick;
  };

  // Warm-up walk to scale the initial temperature to the move deltas of
  // this instance.
  double mean_abs_delta = 0.0;
  {
    const std::size_t warmup = std::min<std::size_t>(200, 10 * n);
    for (std::size_t i = 0; i < warmup; ++i) {
      std::size_t v;
      std::size_t target;
      propose(&v, &target);
      mean_abs_delta += std::fabs(state.MoveDelta(v, target));
    }
    mean_abs_delta /= static_cast<double>(warmup);
    if (mean_abs_delta <= 0.0) mean_abs_delta = 1.0;
  }
  double temperature =
      options_.initial_temperature_factor * mean_abs_delta;

  Telemetry* telemetry = run.telemetry();
  RunOutcome outcome = RunOutcome::kConverged;
  double cumulative_delta = 0.0;
  for (std::size_t level = 0; level < options_.max_levels; ++level) {
    if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < options_.moves_per_temperature; ++i) {
      if (i % 64 == 63) {
        run.ChargeIterations(64);
        if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
      }
      std::size_t v;
      std::size_t target;
      propose(&v, &target);
      const double delta = state.MoveDelta(v, target);
      if (delta <= 0.0 ||
          rng.NextDouble() < std::exp(-delta / temperature)) {
        state.Apply(v, target);
        cumulative_delta += delta;
        ++accepted;
      }
    }
    // Convergence sample per temperature level: cumulative cost change
    // of all accepted moves (negative = net improvement) and how many
    // proposals this level accepted.
    TelemetryTracePoint(telemetry, "annealing", level, cumulative_delta,
                        accepted);
    TelemetryCount(telemetry, "annealing.levels");
    TelemetryCount(telemetry, "annealing.accepted_moves", accepted);
    if (outcome != RunOutcome::kConverged) break;
    const double rate =
        static_cast<double>(accepted) /
        static_cast<double>(options_.moves_per_temperature);
    if (rate < options_.min_acceptance_rate) break;
    temperature *= options_.cooling;
  }

  if (options_.final_descent && outcome == RunOutcome::kConverged) {
    // Greedy polish: the annealed state is usually one short descent
    // away from its local optimum. Each applied move only lowers the
    // cost, so stopping mid-descent is safe.
    bool any_move = true;
    std::size_t passes = 0;
    while (any_move && passes < 100) {
      if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
      any_move = false;
      for (std::size_t v = 0; v < n; ++v) {
        if (v % 64 == 63) {
          run.ChargeIterations(64);
          if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
        }
        if (state.TryImproveBest(v, 1e-7)) {
          any_move = true;
          TelemetryCount(telemetry, "annealing.descent_moves");
        }
      }
      if (outcome != RunOutcome::kConverged) break;
      ++passes;
    }
  }
  return ClustererRun{state.ToClustering(), outcome};
}

}  // namespace clustagg
