// Durability trajectory: what crash safety costs and what recovery
// buys. Records, in BENCH_recovery.json,
//   - the journal append overhead of a durable stream over a plain
//     in-memory one, swept across the group-fsync policy (fsync every
//     1 / 8 / 64 records, and never — Sync/Close only), and
//   - recovery wall time as a function of journal length, with and
//     without snapshots (a snapshot bounds replay to the suffix past
//     its cursor; without one, Open re-runs every flush in the log),
//     with the size of the snapshot each recovery read.
// Journal and snapshot files land in the working directory next to the
// BENCH json and are removed afterwards.

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"

namespace clustagg {
namespace {

using bench::JsonObject;

/// Synthetic event log: an opening block of clusterings, then
/// flush-delimited batches of mixed AddClustering / AddObject events.
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

StreamAggregatorOptions StreamOptions() {
  StreamAggregatorOptions options;
  // Warm regime: the flush cost is the repair, identical across the
  // durable and plain runs, so the measured delta is the journal.
  options.rebuild_threshold = 1e18;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  return options;
}

void RemoveDurableFiles(const std::string& journal) {
  FileSystem* fs = FileSystem::Real();
  CLUSTAGG_CHECK_OK(fs->RemoveFile(journal));
  CLUSTAGG_CHECK_OK(fs->RemoveFile(journal + ".snap"));
  CLUSTAGG_CHECK_OK(fs->RemoveFile(journal + ".snap.tmp"));
}

/// Replays the log through a plain in-memory stream: the durable runs'
/// baseline.
double ReplayPlain(const std::vector<StreamRecord>& records) {
  StreamAggregator stream(StreamOptions());
  Stopwatch watch;
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) {
      CLUSTAGG_CHECK_OK(stream.Flush().status());
    } else if (const auto* add = std::get_if<AddClusteringEvent>(&record)) {
      CLUSTAGG_CHECK_OK(stream.Ingest(*add));
    } else {
      CLUSTAGG_CHECK_OK(stream.Ingest(std::get<AddObjectEvent>(record)));
    }
  }
  return watch.ElapsedSeconds();
}

struct DurableRunStats {
  double seconds = 0.0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
};

/// Replays the log through a durable stream (fresh files), timing the
/// whole run including Close's final fsync.
DurableRunStats ReplayDurable(const std::vector<StreamRecord>& records,
                              const std::string& journal,
                              std::uint64_t fsync_every,
                              std::uint64_t snapshot_every) {
  RemoveDurableFiles(journal);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.fsync_every = fsync_every;
  durability.snapshot_every = snapshot_every;

  DurableRunStats stats;
  Stopwatch watch;
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(StreamOptions(), durability);
  CLUSTAGG_CHECK_OK(opened.status());
  std::unique_ptr<DurableStreamAggregator> durable = std::move(opened).value();
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) {
      CLUSTAGG_CHECK_OK(durable->Flush().status());
    } else if (const auto* add = std::get_if<AddClusteringEvent>(&record)) {
      CLUSTAGG_CHECK_OK(durable->Ingest(StreamEvent(*add)));
    } else {
      CLUSTAGG_CHECK_OK(
          durable->Ingest(StreamEvent(std::get<AddObjectEvent>(record))));
    }
  }
  stats.journal_records = durable->journal_records();
  CLUSTAGG_CHECK_OK(durable->Close());
  stats.seconds = watch.ElapsedSeconds();
  Result<std::uint64_t> size = FileSystem::Real()->FileSize(journal);
  CLUSTAGG_CHECK_OK(size.status());
  stats.journal_bytes = *size;
  return stats;
}

struct RecoveryStats {
  double open_seconds = 0.0;
  std::uint64_t journal_records = 0;
  std::uint64_t replayed_records = 0;
  bool from_snapshot = false;
  /// Size of the snapshot file recovery read (0 without one).
  std::uint64_t snapshot_bytes = 0;
};

/// Times DurableStreamAggregator::Open over the files a durable run
/// left behind.
RecoveryStats Recover(const std::string& journal) {
  DurabilityOptions durability;
  durability.journal_path = journal;
  Stopwatch watch;
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(StreamOptions(), durability);
  CLUSTAGG_CHECK_OK(opened.status());
  RecoveryStats stats;
  stats.open_seconds = watch.ElapsedSeconds();
  stats.journal_records = (*opened)->recovery().journal_records;
  stats.replayed_records = (*opened)->recovery().replayed_records;
  stats.from_snapshot = (*opened)->recovery().from_snapshot;
  CLUSTAGG_CHECK_OK((*opened)->Close());
  if (stats.from_snapshot) {
    Result<std::uint64_t> size =
        FileSystem::Real()->FileSize(EffectiveSnapshotPath(durability));
    CLUSTAGG_CHECK_OK(size.status());
    stats.snapshot_bytes = *size;
  }
  return stats;
}

JsonObject ToJson(const RecoveryStats& stats) {
  JsonObject json;
  json.Set("open_seconds", stats.open_seconds)
      .Set("journal_records", static_cast<std::size_t>(stats.journal_records))
      .Set("replayed_records",
           static_cast<std::size_t>(stats.replayed_records))
      .Set("from_snapshot", std::string(stats.from_snapshot ? "yes" : "no"))
      .Set("snapshot_bytes", static_cast<std::size_t>(stats.snapshot_bytes));
  return json;
}

int Run() {
  const std::string journal = "bench_recovery.journal";
  const std::size_t initial_objects = 250;
  const std::size_t initial_clusterings = 5;
  const std::size_t events_per_batch = 10;
  Rng rng(13);
  const std::vector<StreamRecord> records =
      MakeLog(initial_objects, initial_clusterings, /*batches=*/12,
              events_per_batch, &rng);

  std::printf("=== journal append overhead (n0 = %zu, %zu records) ===\n",
              initial_objects, records.size());
  const double baseline = ReplayPlain(records);
  std::printf("%-12s  %8.3fs  (plain in-memory stream)\n", "baseline",
              baseline);
  JsonObject append_overhead;
  append_overhead.Set("baseline_seconds", baseline);
  const struct {
    const char* name;
    std::uint64_t fsync_every;
  } policies[] = {
      {"fsync_1", 1}, {"fsync_8", 8}, {"fsync_64", 64}, {"fsync_never", 0}};
  for (const auto& policy : policies) {
    const DurableRunStats stats =
        ReplayDurable(records, journal, policy.fsync_every,
                      /*snapshot_every=*/0);
    std::printf("%-12s  %8.3fs  (%.2fx baseline, %llu bytes journaled)\n",
                policy.name, stats.seconds,
                baseline > 0.0 ? stats.seconds / baseline : 0.0,
                static_cast<unsigned long long>(stats.journal_bytes));
    JsonObject entry;
    entry.Set("seconds", stats.seconds)
        .Set("overhead_ratio",
             baseline > 0.0 ? stats.seconds / baseline : 0.0)
        .Set("journal_records",
             static_cast<std::size_t>(stats.journal_records))
        .Set("journal_bytes", static_cast<std::size_t>(stats.journal_bytes));
    append_overhead.Set(policy.name, entry);
  }

  // Recovery wall time vs journal length: the same stream shape at
  // three log lengths, recovered once from the bare journal (full
  // replay — every flush re-runs) and once with periodic snapshots
  // (replay bounded to the suffix past the newest cursor).
  std::printf("=== recovery wall time vs journal length ===\n");
  JsonObject recovery;
  for (const std::size_t batches : {std::size_t{4}, std::size_t{12},
                                    std::size_t{32}}) {
    Rng log_rng(17);
    const std::vector<StreamRecord> log =
        MakeLog(initial_objects, initial_clusterings, batches,
                events_per_batch, &log_rng);
    JsonObject entry;
    for (const std::uint64_t snapshot_every : {std::uint64_t{0},
                                               std::uint64_t{4}}) {
      (void)ReplayDurable(log, journal, /*fsync_every=*/8, snapshot_every);
      const RecoveryStats stats = Recover(journal);
      const char* mode = snapshot_every == 0 ? "journal_only" : "snapshotted";
      std::printf("%3zu batches  %-12s  open %8.4fs  (%llu of %llu records "
                  "replayed, %llu snapshot bytes)\n",
                  batches, mode, stats.open_seconds,
                  static_cast<unsigned long long>(stats.replayed_records),
                  static_cast<unsigned long long>(stats.journal_records),
                  static_cast<unsigned long long>(stats.snapshot_bytes));
      entry.Set(mode, ToJson(stats));
    }
    recovery.Set("batches_" + std::to_string(batches), entry);
  }
  RemoveDurableFiles(journal);

  JsonObject config;
  config.Set("initial_objects", initial_objects)
      .Set("initial_clusterings", initial_clusterings)
      .Set("events_per_batch", events_per_batch)
      .Set("seed", static_cast<std::size_t>(13));
  JsonObject json;
  json.Set("config", config);
  json.Set("append_overhead", append_overhead);
  json.Set("recovery", recovery);
  bench::WriteBenchJson("BENCH_recovery.json", json);
  return 0;
}

}  // namespace
}  // namespace clustagg

int main() { return clustagg::Run(); }
