// Warm-repair regret: replays one churning event log — adds, explicit
// removals, and sliding-window evictions — under two flush regimes
// (warm LOCALSEARCH repair, and a full rebuild at every flush) and
// records, in BENCH_online.json, the warm repair's per-flush cost regret
// against the rebuild-always trajectory, the offline-optimum proxy. The
// numbers behind docs/streaming.md's repair guidance, diffed by later
// PRs like every BENCH_*.json.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"

namespace clustagg {
namespace {

using bench::JsonObject;

/// Churn log: an opening block of clusterings over `initial_objects`,
/// then `batches` flush-delimited batches mixing AddClustering,
/// AddObject, and RemoveClustering / RemoveObject events. The alive-id
/// bookkeeping mirrors the aggregator exactly (ids are 0-based and
/// never reused; the window evicts the oldest clustering after every
/// add), so every emitted removal names an id alive at apply time.
std::vector<StreamRecord> MakeChurnLog(std::size_t initial_objects,
                                       std::size_t initial_clusterings,
                                       std::size_t batches,
                                       std::size_t events_per_batch,
                                       std::size_t window, Rng* rng) {
  std::vector<StreamRecord> records;
  std::vector<std::uint64_t> clusterings;
  std::vector<std::uint64_t> objects;
  std::uint64_t next_clustering = 0;
  std::uint64_t next_object = 0;
  for (std::size_t v = 0; v < initial_objects; ++v) {
    objects.push_back(next_object++);
  }
  const auto clustering = [&]() {
    AddClusteringEvent event;
    event.labels.resize(objects.size());
    for (Clustering::Label& label : event.labels) {
      label = static_cast<Clustering::Label>(rng->NextBounded(8));
    }
    records.emplace_back(std::move(event));
    clusterings.push_back(next_clustering++);
    if (window > 0 && clusterings.size() > window) {
      clusterings.erase(clusterings.begin());
    }
  };
  const auto object = [&]() {
    AddObjectEvent event;
    event.labels.resize(clusterings.size());
    for (Clustering::Label& label : event.labels) {
      label = static_cast<Clustering::Label>(rng->NextBounded(8));
    }
    records.emplace_back(std::move(event));
    objects.push_back(next_object++);
  };
  for (std::size_t i = 0; i < initial_clusterings; ++i) clustering();
  records.emplace_back(FlushMarker{});
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t e = 0; e < events_per_batch; ++e) {
      const double draw = rng->NextDouble();
      if (draw < 0.15 && clusterings.size() > 2) {
        const std::size_t at = rng->NextBounded(clusterings.size());
        records.emplace_back(RemoveClusteringEvent{clusterings[at]});
        clusterings.erase(clusterings.begin() +
                          static_cast<std::ptrdiff_t>(at));
      } else if (draw < 0.25 && objects.size() > initial_objects / 2) {
        const std::size_t at = rng->NextBounded(objects.size());
        records.emplace_back(RemoveObjectEvent{objects[at]});
        objects.erase(objects.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (draw < 0.6) {
        object();
      } else {
        clustering();
      }
    }
    records.emplace_back(FlushMarker{});
  }
  return records;
}

struct RegimeStats {
  std::size_t events = 0;
  std::size_t flushes = 0;
  std::size_t repairs = 0;
  std::size_t rebuilds = 0;
  std::uint64_t evictions = 0;
  double total_seconds = 0.0;
  double final_cost = 0.0;
  std::vector<double> flush_costs;
  double mean_regret = 0.0;
  double max_regret = 0.0;
};

/// Replays the log under one repair regime, recording the solution cost
/// after every flush so the trajectories are comparable point by point.
RegimeStats Replay(const std::vector<StreamRecord>& records,
                   std::size_t window, double rebuild_threshold) {
  StreamAggregatorOptions options;
  options.window = window;
  options.rebuild_threshold = rebuild_threshold;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  StreamAggregator stream(options);

  RegimeStats stats;
  Stopwatch watch;
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) {
      Result<StreamFlushReport> report = stream.Flush();
      CLUSTAGG_CHECK_OK(report.status());
      ++stats.flushes;
      if (report->rebuilt) ++stats.rebuilds;
      if (report->repaired) ++stats.repairs;
      stats.flush_costs.push_back(stream.cost());
    } else {
      CLUSTAGG_CHECK_OK(stream.Ingest(ToStreamEvent(record)));
      ++stats.events;
    }
  }
  stats.total_seconds = watch.ElapsedSeconds();
  stats.evictions = stream.evictions();
  stats.final_cost = stream.cost();
  return stats;
}

/// Per-flush regret against the rebuild-always trajectory. Positive =
/// the policy's standing solution is worse than a from-scratch
/// re-cluster of the same surviving inputs.
void ComputeRegret(const RegimeStats& baseline, RegimeStats* stats) {
  stats->mean_regret = 0.0;
  stats->max_regret = 0.0;
  const std::size_t flushes =
      std::min(stats->flush_costs.size(), baseline.flush_costs.size());
  for (std::size_t i = 0; i < flushes; ++i) {
    const double regret = stats->flush_costs[i] - baseline.flush_costs[i];
    stats->mean_regret += regret;
    stats->max_regret = std::max(stats->max_regret, regret);
  }
  if (flushes > 0) stats->mean_regret /= static_cast<double>(flushes);
}

JsonObject ToJson(const RegimeStats& stats) {
  JsonObject json;
  json.Set("events", stats.events)
      .Set("flushes", stats.flushes)
      .Set("repairs", stats.repairs)
      .Set("rebuilds", stats.rebuilds)
      .Set("evictions", static_cast<std::size_t>(stats.evictions))
      .Set("total_seconds", stats.total_seconds)
      .Set("final_cost", stats.final_cost)
      .Set("mean_regret", stats.mean_regret)
      .Set("max_regret", stats.max_regret);
  return json;
}

void Report(const char* regime, const RegimeStats& stats) {
  std::printf(
      "%-8s  %6zu events  %3zu flushes (%zu repairs, %zu rebuilds, "
      "%llu evictions)  total %7.3fs  cost %.1f  regret mean %+.2f "
      "max %+.2f\n",
      regime, stats.events, stats.flushes, stats.repairs, stats.rebuilds,
      static_cast<unsigned long long>(stats.evictions),
      stats.total_seconds, stats.final_cost, stats.mean_regret,
      stats.max_regret);
}

int Run() {
  const std::size_t initial_objects = 300;
  const std::size_t initial_clusterings = 6;
  const std::size_t batches = 12;
  const std::size_t events_per_batch = 10;
  const std::size_t window = 8;
  Rng rng(19);
  const std::vector<StreamRecord> records =
      MakeChurnLog(initial_objects, initial_clusterings, batches,
                   events_per_batch, window, &rng);

  std::printf("=== warm repair regret (n0 = %zu, m0 = %zu, %zu batches "
              "x %zu events, window %zu) ===\n",
              initial_objects, initial_clusterings, batches,
              events_per_batch, window);
  // Rebuild-always is the offline-optimum proxy: every flush re-runs
  // the full batch pipeline over exactly the surviving inputs. Warm runs
  // under an unreachable threshold so every flush after the first takes
  // the repair path under measurement.
  RegimeStats rebuild = Replay(records, window, 0.0);
  RegimeStats warm = Replay(records, window, 1e18);
  ComputeRegret(rebuild, &rebuild);
  ComputeRegret(rebuild, &warm);
  Report("rebuild", rebuild);
  Report("warm", warm);

  JsonObject config;
  config.Set("initial_objects", initial_objects)
      .Set("initial_clusterings", initial_clusterings)
      .Set("batches", batches)
      .Set("events_per_batch", events_per_batch)
      .Set("window", window)
      .Set("seed", static_cast<std::size_t>(19));
  JsonObject json;
  json.Set("config", config);
  json.Set("rebuild", ToJson(rebuild));
  json.Set("warm", ToJson(warm));
  bench::WriteBenchJson("BENCH_online.json", json);
  return 0;
}

}  // namespace
}  // namespace clustagg

int main() { return clustagg::Run(); }
