// stream-churn: a durable, windowed stream under churn (the setting of
// Mathieu-Sankur-Schudy's online correlation clustering). An opening
// block of 8 clusterings over 2000 objects in 20 planted groups, then 40
// flush-delimited batches of {1 AddClustering, 10 AddObject, 5
// RemoveObject} with window = 8, so every batch evicts a clustering.
// Warm LOCALSEARCH repair, AGGLOMERATIVE + refine rebuild at the default
// drift threshold, group fsync every 64 records, a snapshot every 8
// flushes. One op is one durable Flush; a replay of the whole log is the
// throughput unit. The only workload that writes files.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "harness.h"

namespace e2e {

using namespace clustagg;

namespace {

struct ChurnShape {
  std::size_t initial_objects;
  std::size_t batches;
  std::uint64_t snapshot_every;
  std::size_t groups = 20;
  double noise = 0.15;
  std::size_t window = 8;
  std::size_t objects_added_per_batch = 10;
  std::size_t objects_removed_per_batch = 5;
};

ChurnShape Shape(const Args& args) {
  if (args.smoke) {
    return {.initial_objects = 100, .batches = 4, .snapshot_every = 2};
  }
  return {.initial_objects = 2000, .batches = 40, .snapshot_every = 8};
}

/// The generated event log: each object belongs to a planted group and
/// every clustering labels it with its group, or with a uniformly random
/// group at rate `noise`.
std::vector<StreamRecord> MakeChurnLog(const ChurnShape& shape,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> alive_ids;
  std::vector<std::size_t> alive_groups;
  std::uint64_t next_id = 0;
  std::size_t clusterings = 0;
  const auto label_of = [&](std::size_t group) {
    return static_cast<Clustering::Label>(
        rng.NextBernoulli(shape.noise) ? rng.NextBounded(shape.groups)
                                       : group);
  };
  std::vector<StreamRecord> log;
  const auto add_clustering = [&] {
    AddClusteringEvent event;
    for (std::size_t group : alive_groups) {
      event.labels.push_back(label_of(group));
    }
    ++clusterings;
    log.emplace_back(std::move(event));
  };
  for (std::size_t v = 0; v < shape.initial_objects; ++v) {
    alive_ids.push_back(next_id++);
    alive_groups.push_back(rng.NextBounded(shape.groups));
  }
  for (std::size_t i = 0; i < shape.window; ++i) add_clustering();
  log.emplace_back(FlushMarker{});
  for (std::size_t b = 0; b < shape.batches; ++b) {
    add_clustering();
    const std::size_t m = std::min(clusterings, shape.window);
    for (std::size_t a = 0; a < shape.objects_added_per_batch; ++a) {
      const std::size_t group = rng.NextBounded(shape.groups);
      AddObjectEvent event;
      for (std::size_t i = 0; i < m; ++i) {
        event.labels.push_back(label_of(group));
      }
      alive_ids.push_back(next_id++);
      alive_groups.push_back(group);
      log.emplace_back(std::move(event));
    }
    for (std::size_t r = 0; r < shape.objects_removed_per_batch; ++r) {
      const std::size_t pos = rng.NextBounded(alive_ids.size());
      log.emplace_back(RemoveObjectEvent{alive_ids[pos]});
      alive_ids.erase(alive_ids.begin() + static_cast<std::ptrdiff_t>(pos));
      alive_groups.erase(alive_groups.begin() +
                         static_cast<std::ptrdiff_t>(pos));
    }
    log.emplace_back(FlushMarker{});
  }
  return log;
}

StreamAggregatorOptions StreamOptions(const ChurnShape& shape,
                                      std::size_t threads) {
  StreamAggregatorOptions options;
  options.num_threads = threads;
  options.window = shape.window;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  return options;
}

DurabilityOptions Durability(const ChurnShape& shape,
                             const std::string& journal_path) {
  DurabilityOptions durability;
  durability.journal_path = journal_path;
  durability.fsync_every = 64;
  durability.snapshot_every = shape.snapshot_every;
  return durability;
}

void RemoveDurableFiles(const std::string& journal_path) {
  FileSystem* fs = FileSystem::Real();
  for (const std::string& path :
       {journal_path, journal_path + ".snap", journal_path + ".snap.tmp"}) {
    CLUSTAGG_CHECK_OK(fs->RemoveFile(path));
  }
}

struct Replay {
  double wall_s = 0.0;
  std::size_t events = 0;
  std::vector<double> flush_s;
  std::vector<double> repair_flush_s;
  std::vector<double> rebuild_flush_s;
  std::size_t pairs_touched = 0;
  std::size_t rebuilds = 0;
  std::size_t evictions = 0;
};

/// Ingests the whole log, flushing at every marker, through `stream`
/// (a DurableStreamAggregator or a plain StreamAggregator).
template <typename Stream>
Replay ReplayLog(Context& ctx, Stream& stream,
                 const std::vector<StreamRecord>& log) {
  Replay replay;
  const auto start = Clock::now();
  for (const StreamRecord& record : log) {
    if (!std::holds_alternative<FlushMarker>(record)) {
      Span span(ctx.tracer, "ingest");
      const Status status = stream.Ingest(ToStreamEvent(record));
      ctx.checks.Op(status.ok(), "Ingest");
      ++replay.events;
      continue;
    }
    Span span(ctx.tracer, "flush");
    const auto flush_start = Clock::now();
    Result<StreamFlushReport> report = stream.Flush();
    const double seconds = SecondsSince(flush_start);
    const bool ok = report.ok() && report->outcome == RunOutcome::kConverged;
    ctx.checks.Op(ok, "Flush");
    if (!ok) continue;
    replay.flush_s.push_back(seconds);
    (report->rebuilt ? replay.rebuild_flush_s : replay.repair_flush_s)
        .push_back(seconds);
    replay.pairs_touched += report->pairs_touched;
    replay.rebuilds += report->rebuilt ? 1 : 0;
    replay.evictions += report->evictions;
  }
  replay.wall_s = SecondsSince(start);
  return replay;
}

/// A durable stream over fresh, empty files at `journal_path`.
std::unique_ptr<DurableStreamAggregator> OpenEmpty(
    const ChurnShape& shape, const StreamAggregatorOptions& options,
    const std::string& journal_path) {
  RemoveDurableFiles(journal_path);
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(options, Durability(shape, journal_path));
  CLUSTAGG_CHECK_OK(opened.status());
  return std::move(opened).value();
}

/// Set-up product: the log and a durable stream opened on empty files.
struct Setup {
  std::vector<StreamRecord> log;
  std::unique_ptr<DurableStreamAggregator> durable;
};

}  // namespace

/// The opening block's clusterings (the stream's first flushed input).
ClusteringSet StreamInput(const Args& args) {
  const ChurnShape shape = Shape(args);
  std::vector<Clustering> opening;
  for (const StreamRecord& record : MakeChurnLog(shape, args.seed)) {
    const auto* add = std::get_if<AddClusteringEvent>(&record);
    if (add == nullptr) break;
    opening.emplace_back(add->labels);
  }
  Result<ClusteringSet> input = ClusteringSet::Create(std::move(opening));
  CLUSTAGG_CHECK_OK(input.status());
  return std::move(input).value();
}

void RunStreamChurn(Context& ctx) {
  const ChurnShape shape = Shape(ctx.args);
  const StreamAggregatorOptions options =
      StreamOptions(shape, ctx.args.threads);
  std::vector<std::string> journals;
  Setup setup = TimedSetup(ctx, [&] {
    journals.push_back(ctx.args.dir + "/churn-" +
                       std::to_string(journals.size()) + ".journal");
    return Setup{MakeChurnLog(shape, ctx.args.seed),
                 OpenEmpty(shape, options, journals.back())};
  });
  const std::string& journal = journals.back();

  // Every durable replay starts from empty files (the first one from the
  // set-up's) and must end in the same solution.
  bool fresh = true;
  Clustering labels;
  double cost = -1.0;
  const auto durable_replay = [&] {
    Span span(ctx.tracer, "replay");
    if (!fresh) {
      Span reopen(ctx.tracer, "reopen");
      CLUSTAGG_CHECK_OK(setup.durable->Close());
      setup.durable = OpenEmpty(shape, options, journal);
    }
    Replay replay = ReplayLog(ctx, *setup.durable, setup.log);
    const StreamAggregator& stream = setup.durable->stream();
    if (fresh) {
      labels = stream.labels();
      cost = stream.cost();
      fresh = false;
    }
    ctx.checks.Expect(stream.labels() == labels && stream.cost() == cost,
                      "durable replay ended in a different solution");
    return replay;
  };
  const auto untraced_replay = [&] {
    Replay replay;
    UntracedSeconds(ctx, [&] { replay = durable_replay(); });
    return replay;
  };

  if (ctx.tracer != nullptr) untraced_replay();  // warm-up
  std::vector<Replay> replays;
  std::vector<double> replay_s;
  const auto loop_start = Clock::now();
  while (KeepGoing(ctx, loop_start, replays.size())) {
    replays.push_back(durable_replay());
    replay_s.push_back(replays.back().wall_s);
  }
  const auto loop_end = Clock::now();
  // Traced runs: one more replay, untraced, is the reference for the
  // tracing overhead and for what durability costs.
  const Replay reference =
      ctx.tracer != nullptr ? untraced_replay() : Replay();
  if (ctx.tracer != nullptr) {
    SetTraceMetrics(ctx, loop_start, loop_end, replay_s.size(),
                    Median(replay_s), reference.wall_s);
  }

  Result<CorrelationInstance> instance = setup.durable->stream().Instance();
  CLUSTAGG_CHECK_OK(instance.status());
  const double lower_bound = instance->LowerBound();
  ctx.checks.Expect(cost >= lower_bound,
                    "cost below the lower bound");
  const std::uint64_t journal_records = setup.durable->journal_records();
  ctx.checks.Op(setup.durable->Close().ok(), "Close");
  setup.durable.reset();

  // Recovery from the files the last replay left must reproduce the
  // live solution bit for bit.
  std::vector<double> recovery_s;
  std::uint64_t replayed_records = 0;
  for (int i = 0; i < 5; ++i) {
    Span span(ctx.tracer, "recover");
    const auto start = Clock::now();
    Result<std::unique_ptr<DurableStreamAggregator>> opened =
        DurableStreamAggregator::Open(options, Durability(shape, journal));
    recovery_s.push_back(SecondsSince(start));
    ctx.checks.Op(opened.ok(), "recovery Open");
    if (!opened.ok()) continue;
    const RecoveryReport& report = (*opened)->recovery();
    replayed_records = report.replayed_records;
    ctx.checks.Expect(report.recovered &&
                          report.journal_records == journal_records,
                      "recovery did not see the whole journal");
    ctx.checks.Expect((*opened)->stream().labels() == labels &&
                          (*opened)->stream().cost() == cost,
                      "recovered stream differs from the live one");
    ctx.checks.Op((*opened)->Close().ok(), "Close after recovery");
  }
  FileSystem* fs = FileSystem::Real();
  const std::uint64_t journal_bytes = fs->FileSize(journal).value();
  const std::uint64_t snapshot_bytes =
      fs->FileSize(journal + ".snap").value();
  for (const std::string& path : journals) RemoveDurableFiles(path);

  std::vector<double> flush_s;
  std::size_t events = 0;
  double wall_s = 0.0;
  for (const Replay& r : replays) {
    flush_s.insert(flush_s.end(), r.flush_s.begin(), r.flush_s.end());
    events += r.events;
    wall_s += r.wall_s;
  }
  if (ctx.tracer == nullptr) {
    SetLatencyMetrics(ctx, flush_s, static_cast<double>(events) / wall_s);
    ctx.metrics.Set("cost_ratio", cost / lower_bound);
    return;
  }

  const auto layers = ctx.tracer->Layers();
  const Replay& first = replays[0];
  ctx.metrics.Set("stream.ingest_s", layers.at("ingest").self_s /
                                         static_cast<double>(replays.size()));
  ctx.metrics.Set("stream.flush_repair_ms",
                  1e3 * Median(first.repair_flush_s));
  ctx.metrics.Set("stream.flush_rebuild_ms",
                  1e3 * Median(first.rebuild_flush_s));
  ctx.metrics.Set("stream.flush_p90_ms", 1e3 * Percentile(flush_s, 0.9));
  ctx.metrics.Set("stream.pairs_touched",
                  static_cast<double>(first.pairs_touched));
  ctx.metrics.Set("stream.rebuilds", static_cast<double>(first.rebuilds));
  ctx.metrics.Set("stream.evictions", static_cast<double>(first.evictions));
  ctx.metrics.Set("durability.journal_bytes",
                  static_cast<double>(journal_bytes));
  ctx.metrics.Set("durability.snapshot_bytes",
                  static_cast<double>(snapshot_bytes));
  ctx.metrics.Set("durability.replayed_records",
                  static_cast<double>(replayed_records));
  ctx.metrics.Set("durability.recovery_s", Median(recovery_s));

  // What the journal and snapshots cost: the same log through a plain
  // in-memory stream, against the untraced durable replay.
  Tracer* tracer = std::exchange(ctx.tracer, nullptr);
  StreamAggregator plain(options);
  const Replay plain_replay = ReplayLog(ctx, plain, setup.log);
  ctx.tracer = tracer;
  ctx.checks.Expect(plain.labels() == labels,
                    "plain stream differs from the durable one");
  ctx.metrics.Set("durability.overhead_s",
                  reference.wall_s - plain_replay.wall_s);
}

}  // namespace e2e
