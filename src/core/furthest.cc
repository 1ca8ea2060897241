#include "core/furthest.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

/// Assigns every object to the nearest center (ties to the earliest
/// center) and returns the resulting clustering with labels = center
/// ranks. center_rows[c] is the cached distance row of the c-th center,
/// so no backend queries happen here.
Clustering AssignToCenters(
    std::size_t n, const std::vector<std::vector<double>>& center_rows) {
  std::vector<Clustering::Label> labels(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < center_rows.size(); ++c) {
      const double d = center_rows[c][v];
      if (d < best_dist) {
        best_dist = d;
        best = c;
      }
    }
    labels[v] = static_cast<Clustering::Label>(best);
  }
  return Clustering(std::move(labels));
}

/// The lexicographically-first pair (u, v), u < v, maximizing X_uv.
/// Row-parallel: each row keeps its first-maximizing column, and the rows
/// are combined in ascending u with a strict comparison, reproducing the
/// serial scan whatever the thread count. Sets *completed false (and
/// returns a meaningless pair) when `run` fires mid-scan.
std::pair<std::size_t, std::size_t> FurthestPair(
    const CorrelationInstance& instance, const RunContext& run,
    bool* completed) {
  const std::size_t n = instance.size();
  std::vector<double> row_max(n, -1.0);
  std::vector<std::size_t> row_arg(n, 0);
  *completed = instance.ForEachUpperRow(run, [&](std::size_t u, auto tail) {
    double best = -1.0;
    std::size_t arg = u + 1;
    for (std::size_t v = u + 1; v < n; ++v) {
      const double x = tail[v - u - 1];
      if (x > best) {
        best = x;
        arg = v;
      }
    }
    row_max[u] = best;
    row_arg[u] = arg;
  });
  std::size_t c1 = 0;
  std::size_t c2 = 1;
  double max_dist = -1.0;
  for (std::size_t u = 0; u + 1 < n; ++u) {
    if (row_max[u] > max_dist) {
      max_dist = row_max[u];
      c1 = u;
      c2 = row_arg[u];
    }
  }
  return {c1, c2};
}

}  // namespace

Result<ClustererRun> FurthestClusterer::RunControlled(
    const CorrelationInstance& instance, const RunContext& run) const {
  const std::size_t n = instance.size();
  if (n == 0) return ClustererRun{Clustering(), RunOutcome::kConverged};

  const std::size_t max_centers =
      options_.max_centers == 0 ? n
                                : std::min(options_.max_centers, n);

  // k = 1: everything in one cluster. This is the floor the traversal can
  // always fall back to, so even an immediate interrupt returns a valid
  // partition (its cost is then unknown, which is fine — nothing else got
  // scored either).
  Clustering best_clustering = Clustering::SingleCluster(n);
  Result<double> best_cost = instance.Cost(best_clustering, run);
  if (!best_cost.ok()) {
    if (RunContext::IsInterrupt(best_cost.status())) {
      return ClustererRun{std::move(best_clustering),
                          RunContext::OutcomeFromInterrupt(best_cost.status())};
    }
    return best_cost.status();
  }

  if (n == 1 || max_centers < 2) {
    return ClustererRun{std::move(best_clustering), RunOutcome::kConverged};
  }

  // Seed with the furthest pair.
  bool seed_completed = false;
  const auto [c1, c2] = FurthestPair(instance, run, &seed_completed);
  if (!seed_completed) {
    return ClustererRun{std::move(best_clustering), run.InterruptOutcome()};
  }
  std::vector<std::size_t> centers = {c1, c2};
  // One bulk row query per promoted center; every later pass (assignment,
  // furthest-first updates) reads the cache instead of the backend.
  std::vector<std::vector<double>> center_rows(2, std::vector<double>(n));
  instance.FillRow(c1, center_rows[0]);
  instance.FillRow(c2, center_rows[1]);
  // min distance from each object to the current center set, for the
  // furthest-first traversal.
  std::vector<double> min_dist(n);
  std::vector<bool> is_center(n, false);
  is_center[c1] = is_center[c2] = true;
  for (std::size_t v = 0; v < n; ++v) {
    min_dist[v] = std::min(center_rows[0][v], center_rows[1][v]);
  }

  RunOutcome outcome = RunOutcome::kConverged;
  for (;;) {
    run.ChargeIterations(1);
    if ((outcome = run.Poll()) != RunOutcome::kConverged) break;
    Clustering candidate = AssignToCenters(n, center_rows);
    Result<double> cost = instance.Cost(candidate, run);
    if (!cost.ok()) {
      if (RunContext::IsInterrupt(cost.status())) {
        outcome = RunContext::OutcomeFromInterrupt(cost.status());
        break;  // unscored candidate is discarded; best so far stands
      }
      return cost.status();
    }
    // Convergence sample per traversal step: (centers tried, candidate
    // cost, 1 when the candidate became the new best).
    TelemetryTracePoint(run.telemetry(), "furthest", centers.size(), *cost,
                        *cost < *best_cost ? 1 : 0);
    TelemetryCount(run.telemetry(), "furthest.candidates");
    if (*cost < *best_cost) {
      best_cost = *cost;
      best_clustering = std::move(candidate);
    } else {
      // Adding the last center stopped helping: output the previous
      // (best) solution.
      break;
    }
    if (centers.size() >= max_centers) break;

    // Promote the object furthest from the current centers.
    std::size_t next = n;
    double next_dist = -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (is_center[v]) continue;
      if (min_dist[v] > next_dist) {
        next_dist = min_dist[v];
        next = v;
      }
    }
    if (next == n) break;  // every object is a center
    centers.push_back(next);
    is_center[next] = true;
    center_rows.emplace_back(n);
    instance.FillRow(next, center_rows.back());
    const std::vector<double>& next_row = center_rows.back();
    for (std::size_t v = 0; v < n; ++v) {
      min_dist[v] = std::min(min_dist[v], next_row[v]);
    }
  }
  return ClustererRun{best_clustering.Normalized(), outcome};
}

}  // namespace clustagg
