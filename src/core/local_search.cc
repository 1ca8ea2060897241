#include "core/local_search.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/instrumentation.h"
#include "core/internal/move_state.h"

namespace clustagg {

Result<ClustererRun> LocalSearchClusterer::RunControlled(
    const CorrelationInstance& instance, const RunContext& run) const {
  const std::size_t n = instance.size();
  Clustering initial;
  switch (options_.init) {
    case LocalSearchOptions::Init::kSingletons:
      initial = Clustering::AllSingletons(n);
      break;
    case LocalSearchOptions::Init::kSingleCluster:
      initial = Clustering::SingleCluster(n);
      break;
    case LocalSearchOptions::Init::kRandom: {
      std::size_t k = options_.random_clusters;
      if (k == 0) {
        k = std::max<std::size_t>(
            2, static_cast<std::size_t>(std::llround(std::sqrt(
                   static_cast<double>(n)))));
      }
      Rng rng(options_.seed);
      std::vector<Clustering::Label> labels(n);
      for (std::size_t v = 0; v < n; ++v) {
        labels[v] = static_cast<Clustering::Label>(rng.NextBounded(k));
      }
      initial = Clustering(std::move(labels));
      break;
    }
  }
  return RunFromControlled(instance, initial, run);
}

Result<Clustering> LocalSearchClusterer::RunFrom(
    const CorrelationInstance& instance, const Clustering& initial) const {
  Result<ClustererRun> run =
      RunFromControlled(instance, initial, RunContext());
  if (!run.ok()) return run.status();
  return std::move(run->clustering);
}

Result<ClustererRun> LocalSearchClusterer::RunFromControlled(
    const CorrelationInstance& instance, const Clustering& initial,
    const RunContext& run) const {
  const std::size_t n = instance.size();
  if (initial.size() != n) {
    return Status::InvalidArgument(
        "initial clustering covers " + std::to_string(initial.size()) +
        " objects, expected " + std::to_string(n));
  }
  if (initial.HasMissing()) {
    return Status::InvalidArgument(
        "local search requires a complete starting clustering");
  }
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};

  bool state_built = false;
  internal::MoveState state(instance, initial, run, &state_built);
  if (!state_built) {
    // The M table is partial and unusable; the starting partition is the
    // best valid answer available.
    return ClustererRun{initial.Normalized(), run.InterruptOutcome()};
  }
  Rng rng(options_.seed);
  std::vector<std::size_t> order(n);
  for (std::size_t v = 0; v < n; ++v) order[v] = v;

  Telemetry* telemetry = run.telemetry();
  RunOutcome outcome = RunOutcome::kConverged;
  double cumulative_improvement = 0.0;
  for (std::size_t pass = 0; pass < options_.max_passes; ++pass) {
    if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
    if (options_.shuffle_order) order = rng.Permutation(n);
    std::size_t moves_this_pass = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 64 == 63) {
        run.ChargeIterations(64);
        if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
      }
      if (state.TryImproveBest(order[i], options_.min_improvement,
                               &cumulative_improvement,
                               options_.max_cluster_size)) {
        ++moves_this_pass;
      }
    }
    // The block charge above only fires at i % 64 == 63, so a pass whose
    // n is not a multiple of 64 still owes its tail objects. Charging
    // them here keeps the deterministic budget an exact per-object count
    // (n per completed pass).
    if (outcome == RunOutcome::kConverged && n % 64 != 0) {
      run.ChargeIterations(n % 64);
    }
    // Convergence sample per pass: cumulative cost decrease since the
    // starting partition, plus how many objects moved this pass.
    TelemetryTracePoint(telemetry, "localsearch", pass,
                        cumulative_improvement, moves_this_pass);
    TelemetryCount(telemetry, "localsearch.passes");
    TelemetryCount(telemetry, "localsearch.moves", moves_this_pass);
    if (outcome != RunOutcome::kConverged) break;
    if (moves_this_pass == 0) break;
  }
  // Every applied move lowered the cost, so the state is valid and at
  // least as good as `initial` wherever the sweep stopped.
  return ClustererRun{state.ToClustering(), outcome};
}

}  // namespace clustagg
