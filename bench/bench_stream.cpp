// Streaming aggregation trajectory: replays a synthetic event log
// through StreamAggregator under the two repair regimes and records, in
// BENCH_stream.json, the delta-batched ingest throughput (events/sec)
// and the per-flush wall time of warm LOCALSEARCH repair vs. the full
// Aggregate rebuild — the numbers behind docs/streaming.md's "repair
// beats rebuild" claim, diffed by later PRs like every BENCH_*.json.

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

/// Synthetic event log: an opening block of clusterings over
/// `initial_objects`, then `batches` flush-delimited batches of mixed
/// AddClustering / AddObject events (50/50).
std::vector<StreamRecord> MakeLog(std::size_t initial_objects,
                                  std::size_t initial_clusterings,
                                  std::size_t batches,
                                  std::size_t events_per_batch, Rng* rng) {
  std::vector<StreamRecord> records;
  std::size_t n = initial_objects;
  std::size_t m = 0;
  const auto clustering = [&]() {
    AddClusteringEvent event;
    event.labels.resize(n);
    for (Clustering::Label& label : event.labels) {
      label = static_cast<Clustering::Label>(rng->NextBounded(8));
    }
    ++m;
    records.emplace_back(std::move(event));
  };
  const auto object = [&]() {
    AddObjectEvent event;
    event.labels.resize(m);
    for (Clustering::Label& label : event.labels) {
      label = static_cast<Clustering::Label>(rng->NextBounded(8));
    }
    ++n;
    records.emplace_back(std::move(event));
  };
  for (std::size_t i = 0; i < initial_clusterings; ++i) clustering();
  records.emplace_back(FlushMarker{});
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t e = 0; e < events_per_batch; ++e) {
      if (rng->NextBernoulli(0.5)) {
        object();
      } else {
        clustering();
      }
    }
    records.emplace_back(FlushMarker{});
  }
  return records;
}

struct ReplayStats {
  std::size_t events = 0;
  std::size_t flushes = 0;
  std::size_t repairs = 0;
  std::size_t rebuilds = 0;
  double total_seconds = 0.0;
  double repair_seconds = 0.0;
  double rebuild_seconds = 0.0;
  double ingest_seconds = 0.0;  // counter maintenance only
  double final_cost = 0.0;
  std::size_t final_objects = 0;
  std::size_t final_clusterings = 0;
};

/// Replays the log, timing every flush separately so repair and rebuild
/// wall time land in their own buckets. The pure counter-maintenance
/// time comes from the stream.ingest.batch_nanos histogram when
/// telemetry is compiled in, else it is folded into total_seconds only.
ReplayStats Replay(const std::vector<StreamRecord>& records,
                   double rebuild_threshold) {
  StreamAggregatorOptions options;
  options.rebuild_threshold = rebuild_threshold;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  StreamAggregator stream(options);
  Telemetry telemetry;
  const RunContext run = RunContext().WithTelemetry(&telemetry);

  ReplayStats stats;
  for (const StreamRecord& record : records) {
    if (!std::holds_alternative<FlushMarker>(record)) {
      StreamEvent event =
          std::holds_alternative<AddClusteringEvent>(record)
              ? StreamEvent(std::get<AddClusteringEvent>(record))
              : StreamEvent(std::get<AddObjectEvent>(record));
      CLUSTAGG_CHECK_OK(stream.Ingest(std::move(event)));
      ++stats.events;
      continue;
    }
    Stopwatch watch;
    Result<StreamFlushReport> report = stream.Flush(run);
    const double seconds = watch.ElapsedSeconds();
    CLUSTAGG_CHECK_OK(report.status());
    ++stats.flushes;
    stats.total_seconds += seconds;
    if (report->rebuilt) {
      ++stats.rebuilds;
      stats.rebuild_seconds += seconds;
    } else if (report->repaired) {
      ++stats.repairs;
      stats.repair_seconds += seconds;
    }
  }
  if (const Histogram* ingest =
          telemetry.histogram("stream.ingest.batch_nanos")) {
    stats.ingest_seconds = static_cast<double>(ingest->sum()) * 1e-9;
  }
  stats.final_cost = stream.cost();
  stats.final_objects = stream.num_objects();
  stats.final_clusterings = stream.num_clusterings();
  bench::MaybeDumpStats("stream", telemetry);
  return stats;
}

JsonObject ToJson(const ReplayStats& stats) {
  JsonObject json;
  json.Set("events", stats.events)
      .Set("flushes", stats.flushes)
      .Set("repairs", stats.repairs)
      .Set("rebuilds", stats.rebuilds)
      .Set("total_seconds", stats.total_seconds)
      .Set("repair_seconds", stats.repair_seconds)
      .Set("rebuild_seconds", stats.rebuild_seconds)
      .Set("ingest_seconds", stats.ingest_seconds)
      .Set("ingest_events_per_sec",
           stats.ingest_seconds > 0.0
               ? static_cast<double>(stats.events) / stats.ingest_seconds
               : 0.0)
      .Set("final_cost", stats.final_cost)
      .Set("final_objects", stats.final_objects)
      .Set("final_clusterings", stats.final_clusterings);
  return json;
}

void Report(const char* regime, const ReplayStats& stats) {
  std::printf(
      "%-8s  %6zu events  %3zu flushes (%zu repairs, %zu rebuilds)  "
      "total %7.3fs  repair %7.3fs  rebuild %7.3fs  ingest %7.3fs  "
      "cost %.1f\n",
      regime, stats.events, stats.flushes, stats.repairs, stats.rebuilds,
      stats.total_seconds, stats.repair_seconds, stats.rebuild_seconds,
      stats.ingest_seconds, stats.final_cost);
}

int Run() {
  const std::size_t initial_objects = 400;
  const std::size_t initial_clusterings = 6;
  const std::size_t batches = 10;
  const std::size_t events_per_batch = 12;
  Rng rng(7);
  const std::vector<StreamRecord> records =
      MakeLog(initial_objects, initial_clusterings, batches,
              events_per_batch, &rng);

  std::printf("=== streaming aggregation (n0 = %zu, m0 = %zu, %zu batches "
              "x %zu events) ===\n",
              initial_objects, initial_clusterings, batches,
              events_per_batch);
  // Warm regime: unreachable threshold, so every flush after the first
  // repairs in place. Rebuild regime: threshold 0, so every flush that
  // touched a pair re-clusters from scratch — same log, same final
  // input, directly comparable wall time.
  const ReplayStats warm = Replay(records, 1e18);
  Report("warm", warm);
  const ReplayStats rebuild = Replay(records, 0.0);
  Report("rebuild", rebuild);

  JsonObject config;
  config.Set("initial_objects", initial_objects)
      .Set("initial_clusterings", initial_clusterings)
      .Set("batches", batches)
      .Set("events_per_batch", events_per_batch)
      .Set("seed", static_cast<std::size_t>(7));
  JsonObject json;
  json.Set("config", config);
  json.Set("warm", ToJson(warm));
  json.Set("rebuild", ToJson(rebuild));
  bench::WriteBenchJson("BENCH_stream.json", json);
  return 0;
}

}  // namespace
}  // namespace clustagg

int main() { return clustagg::Run(); }
