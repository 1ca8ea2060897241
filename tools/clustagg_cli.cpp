// clustagg — command-line front end for the clustering-aggregation
// library.
//
// Subcommands:
//   aggregate  aggregate label files (or a categorical CSV) into one
//              clustering
//   query      answer local cluster-membership questions from the
//              sublinear lazy CC-PIVOT oracle, without aggregating
//   eval       compare two label files (Rand, adjusted Rand, NMI,
//              disagreement distance)
//   gen        write one of the paper's synthetic datasets to disk
//   help       this text
//
// Examples:
//   clustagg aggregate --algorithm localsearch c1.labels c2.labels
//       c3.labels --out aggregate.labels
//   clustagg aggregate --csv mushrooms.csv --class-column class
//       --algorithm agglomerative --report
//   clustagg query --local --seed 7 --of 12 c1.labels c2.labels
//   clustagg query --local --pair 3,17 c1.labels c2.labels
//   clustagg eval truth.labels predicted.labels
//   clustagg gen votes --seed 7 --out votes.csv

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "clustagg/clustagg.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "io/clustering_io.h"
#include "io/csv.h"

namespace {

using namespace clustagg;

/// Minimal flag parser: --name value (or --name=value) pairs plus
/// positional arguments.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string name = arg.substr(2);
        if (const std::size_t eq = name.find('='); eq != std::string::npos) {
          flags_[name.substr(0, eq)] = name.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[name] = argv[++i];
        } else {
          flags_[name] = "";  // boolean flag
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::atof(it->second.c_str());
  }

  long long GetInt(const std::string& name, long long fallback) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : std::atoll(it->second.c_str());
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// All diagnostics go to stderr; stdout carries only results. The exit
/// code is the status code's mapping (see ExitCodeForStatus): 0 OK,
/// 2 invalid argument, 3 failed precondition, 4 resource exhausted,
/// 5 internal, 6 cancelled, 7 deadline exceeded, 8 data loss. Exit 9 is
/// the CLI's own graceful-shutdown code (see kSignalShutdownExit).
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeForStatus(status.code());
}

/// Exit code for a stream replay stopped by SIGINT/SIGTERM after a
/// clean shutdown: the pending batch was flushed, the journal synced
/// and closed, and --stats emitted. Distinct from every
/// ExitCodeForStatus mapping so wrappers can tell "interrupted but
/// durable" from both success and failure (docs/robustness.md).
constexpr int kSignalShutdownExit = 9;

/// Set (to the signal number) by the SIGINT/SIGTERM handler; the
/// stream replay loop polls it between records. sig_atomic_t is the
/// only thing a handler may portably write.
volatile std::sig_atomic_t g_shutdown_signal = 0;

extern "C" void HandleShutdownSignal(int sig) { g_shutdown_signal = sig; }

/// Assembles the input ClusteringSet the way every instance-consuming
/// subcommand (aggregate, query) documents it: positional label files,
/// a categorical CSV with --csv/--class-column, or label files weighted
/// by --weights.
Result<ClusteringSet> ReadInputSet(const Args& args) {
  if (args.Has("csv")) {
    CsvOptions csv;
    csv.class_column = args.Get("class-column");
    if (args.Has("delimiter")) csv.delimiter = args.Get("delimiter")[0];
    if (args.Has("no-header")) csv.has_header = false;
    Result<CsvDataset> dataset = ReadCategoricalCsv(args.Get("csv"), csv);
    if (!dataset.ok()) return dataset.status();
    return AttributeClusterings(dataset->table);
  }
  if (args.Has("weights")) {
    // --weights w1,w2,... parallel to the label files.
    std::vector<Clustering> clusterings;
    for (const std::string& path : args.positional()) {
      Result<Clustering> c = ReadClusteringFile(path);
      if (!c.ok()) return c.status();
      clusterings.push_back(std::move(*c));
    }
    Result<std::vector<double>> weights = ParseWeights(args.Get("weights"));
    if (!weights.ok()) return weights.status();
    return ClusteringSet::Create(std::move(clusterings),
                                 std::move(*weights));
  }
  return ReadClusteringSet(args.positional());
}

/// Parses the missing-value flags shared by aggregate and query.
Result<MissingValueOptions> ParseMissingFlags(const Args& args) {
  MissingValueOptions missing;
  const std::string policy = args.Get("missing", "coin");
  if (policy == "ignore") {
    missing.policy = MissingValuePolicy::kIgnore;
  } else if (policy != "coin" && !policy.empty()) {
    return Status::InvalidArgument("--missing expects 'coin' or 'ignore', "
                                   "got '" + policy + "'");
  }
  missing.coin_together_probability = args.GetDouble("coin-p", 0.5);
  return missing;
}

/// Strictly parses a non-negative integer flag value (object ids for
/// query --of / --pair); anything but digits is rejected so a typo'd id
/// cannot silently query object 0.
Result<std::size_t> ParseObjectId(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("expected an object id, got ''");
  }
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("expected a non-negative object id, "
                                     "got '" + text + "'");
    }
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (value > (static_cast<std::size_t>(-1) - digit) / 10) {
      return Status::InvalidArgument("object id '" + text +
                                     "' does not fit in size_t");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<AggregationAlgorithm> ParseAlgorithm(const std::string& name) {
  static const std::map<std::string, AggregationAlgorithm> kNames = {
      {"best", AggregationAlgorithm::kBestClustering},
      {"balls", AggregationAlgorithm::kBalls},
      {"agglomerative", AggregationAlgorithm::kAgglomerative},
      {"furthest", AggregationAlgorithm::kFurthest},
      {"localsearch", AggregationAlgorithm::kLocalSearch},
      {"pivot", AggregationAlgorithm::kPivot},
      {"annealing", AggregationAlgorithm::kAnnealing},
      {"majority", AggregationAlgorithm::kMajority},
      {"exact", AggregationAlgorithm::kExact},
  };
  auto it = kNames.find(name);
  if (it == kNames.end()) return std::nullopt;
  return it->second;
}

/// `aggregate --stream <eventlog>`: replay a recorded event log through
/// the incremental StreamAggregator instead of one batch Aggregate. Each
/// `flush` directive in the log closes a batch: pending events apply to
/// the stream's label columns, then the solution is repaired in place
/// (warm LOCALSEARCH) or rebuilt from scratch when accumulated drift
/// exceeds --rebuild-threshold. --deadline-ms bounds each batch, not the
/// whole replay. Per-batch progress goes to stderr; the final labels go
/// to --out or stdout like a batch aggregate.
///
/// --journal=PATH makes the stream durable (docs/durability.md): every
/// event is written ahead to a CRC-framed journal (--fsync-every
/// controls group fsync) and --snapshot-every=N writes an atomic
/// snapshot after every N flushes. `aggregate --recover --journal=PATH`
/// restores the stream from the newest snapshot plus the journal
/// suffix (truncating a torn tail), optionally continues with a new
/// --stream log, and emits the recovered labels. SIGINT/SIGTERM shut
/// the replay down gracefully: the pending batch is flushed, the
/// journal synced and closed, stats emitted, exit kSignalShutdownExit.
int CmdStream(const Args& args) {
  const bool recover = args.Has("recover");
  const bool durable_mode = args.Has("journal");
  if (recover && !durable_mode) {
    return Fail(Status::InvalidArgument(
        "--recover restores durable state and needs --journal=PATH"));
  }
  if (!recover && !args.Has("stream")) {
    return Fail(Status::InvalidArgument(
        "--journal needs an event log to replay (--stream FILE) or "
        "--recover"));
  }
  std::vector<StreamRecord> records;
  std::vector<std::size_t> record_lines;
  if (args.Has("stream")) {
    Result<std::vector<StreamRecord>> parsed =
        ReadEventLogFile(args.Get("stream"), &record_lines);
    if (!parsed.ok()) return Fail(parsed.status());
    records = *std::move(parsed);
  }

  StreamAggregatorOptions options;
  const std::string algorithm = args.Get("algorithm", "agglomerative");
  if (auto parsed = ParseAlgorithm(algorithm)) {
    options.rebuild.algorithm = *parsed;
  } else {
    return Fail(Status::InvalidArgument(
        "unknown algorithm '" + algorithm +
        "' (expected best, balls, agglomerative, furthest, localsearch, "
        "pivot, annealing, majority, exact)"));
  }
  options.rebuild.refine_with_local_search = args.Has("refine");
  options.rebuild.balls.alpha = args.GetDouble("alpha", 0.4);
  if (args.Get("missing") == "ignore") {
    options.missing.policy = MissingValuePolicy::kIgnore;
  }
  options.missing.coin_together_probability =
      args.GetDouble("coin-p", 0.5);
  options.num_threads =
      static_cast<std::size_t>(args.GetInt("threads", 0));
  options.fold = args.Has("fold");
  if (args.Has("shards")) {
    // The drift-triggered full rebuild runs the batch Aggregate pipeline,
    // so it routes through sharding like any batch run; warm repair is
    // incremental and never shards.
    Result<ShardOptions> shards = ParseShardsFlag(args.Get("shards"));
    if (!shards.ok()) return Fail(shards.status());
    options.rebuild.shard = *shards;
  }
  if (args.Has("max-cluster-size")) {
    const long long cap = args.GetInt("max-cluster-size", 0);
    if (cap <= 0) {
      return Fail(Status::InvalidArgument(
          "--max-cluster-size expects a positive object count"));
    }
    options.rebuild.max_cluster_size = static_cast<std::size_t>(cap);
    options.repair.max_cluster_size = static_cast<std::size_t>(cap);
  }
  options.rebuild_threshold =
      args.GetDouble("rebuild-threshold", options.rebuild_threshold);
  if (options.rebuild_threshold < 0) {
    return Fail(Status::InvalidArgument(
        "--rebuild-threshold expects a non-negative drift bound"));
  }
  if (args.Has("window")) {
    const long long window = args.GetInt("window", 0);
    if (window <= 0) {
      return Fail(Status::InvalidArgument(
          "--window expects a positive clustering count"));
    }
    options.window = static_cast<std::size_t>(window);
  }

  long long deadline_ms = 0;
  if (args.Has("deadline-ms")) {
    deadline_ms = args.GetInt("deadline-ms", 0);
    if (deadline_ms <= 0) {
      return Fail(Status::InvalidArgument(
          "--deadline-ms expects a positive number of milliseconds"));
    }
  }

  const bool want_stats = args.Has("stats");
  std::string stats_mode = args.Get("stats");
  if (stats_mode.empty()) stats_mode = "table";
  if (want_stats && stats_mode != "json" && stats_mode != "table") {
    return Fail(Status::InvalidArgument("--stats expects 'json' or 'table', "
                                        "got '" + stats_mode + "'"));
  }
  FakeClock fake_clock(0, 1000);
  Telemetry telemetry(args.Has("fake-clock")
                          ? static_cast<const clustagg::Clock*>(&fake_clock)
                          : clustagg::Clock::Real());

  // Plain in-memory stream, or the same stream behind the write-ahead
  // journal when --journal is set. `view` is the read side either way.
  StreamAggregator plain(options);
  std::unique_ptr<DurableStreamAggregator> durable;
  if (durable_mode) {
    DurabilityOptions durability;
    durability.journal_path = args.Get("journal");
    durability.snapshot_path = args.Get("snapshot");
    const long long fsync_every = args.GetInt("fsync-every", 1);
    const long long snapshot_every = args.GetInt("snapshot-every", 0);
    if (fsync_every < 0 || snapshot_every < 0) {
      return Fail(Status::InvalidArgument(
          "--fsync-every and --snapshot-every expect non-negative counts"));
    }
    durability.fsync_every = static_cast<std::uint64_t>(fsync_every);
    durability.snapshot_every = static_cast<std::uint64_t>(snapshot_every);
    Result<std::unique_ptr<DurableStreamAggregator>> opened =
        DurableStreamAggregator::Open(options, std::move(durability),
                                      FileSystem::Real(),
                                      want_stats ? &telemetry : nullptr);
    if (!opened.ok()) return Fail(opened.status());
    durable = std::move(opened).value();
    const RecoveryReport& rec = durable->recovery();
    if (rec.recovered) {
      std::fprintf(stderr,
                   "recovered %llu journal records (%llu from snapshot, "
                   "%llu replayed)%s\n",
                   static_cast<unsigned long long>(rec.journal_records),
                   static_cast<unsigned long long>(rec.snapshot_records),
                   static_cast<unsigned long long>(rec.replayed_records),
                   rec.truncated_torn_tail ? ", truncated a torn tail" : "");
    }
  }
  const StreamAggregator& view = durable ? durable->stream() : plain;

  // Fresh context per batch: a deadline bounds each flush, not the log.
  const auto make_run = [&]() {
    RunContext run =
        deadline_ms > 0
            ? RunContext::WithDeadline(std::chrono::milliseconds(deadline_ms))
            : RunContext();
    return want_stats ? run.WithTelemetry(&telemetry) : run;
  };

  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::vector<StreamFlushReport> reports;
  RunOutcome overall = RunOutcome::kConverged;
  std::size_t rebuilds = 0;
  std::size_t repairs = 0;
  const auto flush = [&]() -> Status {
    const RunContext run = make_run();
    Result<StreamFlushReport> report =
        durable ? durable->Flush(run) : plain.Flush(run);
    if (!report.ok()) return report.status();
    overall = MergeOutcomes(overall, report->outcome);
    if (report->rebuilt) ++rebuilds;
    if (report->repaired) ++repairs;
    reports.push_back(*std::move(report));
    return Status::OK();
  };
  // The replay loop of ReplayEventLog, inlined so the journal sits
  // between validation and application and a shutdown signal can stop
  // cleanly between records.
  bool interrupted = false;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StreamRecord& record = records[r];
    if (g_shutdown_signal != 0) {
      interrupted = true;
      break;
    }
    if (std::holds_alternative<FlushMarker>(record)) {
      if (Status s = flush(); !s.ok()) return Fail(s);
      continue;
    }
    StreamEvent event = ToStreamEvent(record);
    Status status = durable ? durable->Ingest(std::move(event))
                            : plain.Ingest(std::move(event));
    if (!status.ok()) {
      // Attribute semantic rejections — a removal of a dead id, a label
      // count mismatch — to the offending line of the log, like parse
      // errors.
      if (status.code() == StatusCode::kInvalidArgument &&
          r < record_lines.size()) {
        status = Status::InvalidArgument(
            "event log line " + std::to_string(record_lines[r]) + ": " +
            std::string(status.message()));
      }
      return Fail(status);
    }
  }
  // A signal flushes what is already queued and stops; a normal run
  // also flushes once when no flush ever happened, so the final labels
  // exist (recover-only runs skip that: recovery already flushed at
  // every journaled marker).
  const bool need_final =
      interrupted ? view.pending_events() > 0
                  : view.pending_events() > 0 ||
                        (reports.empty() && !(recover && records.empty()));
  if (need_final) {
    if (Status s = flush(); !s.ok()) return Fail(s);
  }
  if (durable) {
    if (Status s = durable->Close(); !s.ok()) return Fail(s);
  }

  for (std::size_t i = 0; i < reports.size(); ++i) {
    const StreamFlushReport& report = reports[i];
    std::fprintf(stderr,
                 "batch %zu: %zu events, %zu pairs touched, drift %.4f, "
                 "%s, cost = %.1f (%s)\n",
                 i + 1, report.events_applied, report.pairs_touched,
                 report.drift,
                 report.rebuilt ? "rebuilt"
                                : (report.repaired ? "repaired" : "no-op"),
                 report.cost, RunOutcomeName(report.outcome));
  }
  std::fprintf(stderr,
               "streamed %zu clusterings of %zu objects in %zu batches "
               "(%zu rebuilds, %zu repairs): %zu clusters, cost = %.1f\n",
               view.num_clusterings(), view.num_objects(), reports.size(),
               rebuilds, repairs, view.labels().NumClusters(), view.cost());
  std::fprintf(stderr, "run outcome = %s\n", RunOutcomeName(overall));
  if (view.evictions() > 0) {
    std::fprintf(stderr,
                 "window %zu evicted %llu clusterings (%zu alive)\n",
                 options.window,
                 static_cast<unsigned long long>(view.evictions()),
                 view.num_clusterings());
  }
  if (options.fold) {
    std::fprintf(stderr, "folded %zu objects into %zu signatures\n",
                 view.num_objects(), view.fold_signatures());
  }
  if (interrupted) {
    std::fprintf(stderr,
                 "received signal %d: flushed the pending batch%s and "
                 "stopped before the remaining events\n",
                 static_cast<int>(g_shutdown_signal),
                 durable ? ", synced and closed the journal" : "");
  }
  if (want_stats) {
    if (stats_mode == "json") {
      std::fprintf(stderr, "%s\n", telemetry.ToJson().c_str());
    } else {
      std::ostringstream table;
      telemetry.PrintTable(table);
      std::fputs(table.str().c_str(), stderr);
    }
  }

  const std::string out = args.Get("out");
  if (!out.empty()) {
    if (Status s = WriteClusteringFile(out, view.labels()); !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  } else {
    std::fputs(FormatClustering(view.labels()).c_str(), stdout);
  }
  return interrupted ? kSignalShutdownExit : 0;
}

int CmdAggregate(const Args& args) {
  if (args.Has("stream") || args.Has("recover") || args.Has("journal")) {
    return CmdStream(args);
  }
  // Assemble the input clusterings.
  Result<ClusteringSet> input = ReadInputSet(args);
  if (!input.ok()) return Fail(input.status());

  AggregatorOptions options;
  const std::string algorithm = args.Get("algorithm", "agglomerative");
  if (auto parsed = ParseAlgorithm(algorithm)) {
    options.algorithm = *parsed;
  } else {
    return Fail(Status::InvalidArgument(
        "unknown algorithm '" + algorithm +
        "' (expected best, balls, agglomerative, furthest, localsearch, "
        "pivot, annealing, majority, exact)"));
  }
  options.balls.alpha = args.GetDouble("alpha", 0.4);
  options.refine_with_local_search = args.Has("refine");
  options.sampling_size =
      static_cast<std::size_t>(args.GetInt("sample", 0));
  options.sampling.seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  // --seed also pins the randomized clusterers, so `aggregate
  // --algorithm pivot --seed N` and `query --local --seed N` simulate
  // the same permutation stream (default 1 = the option defaults).
  options.pivot.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  options.annealing.seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (args.Has("pivot-repetitions")) {
    const long long reps = args.GetInt("pivot-repetitions", 0);
    if (reps <= 0) {
      return Fail(Status::InvalidArgument(
          "--pivot-repetitions expects a positive repetition count"));
    }
    options.pivot.repetitions = static_cast<std::size_t>(reps);
  }
  Result<MissingValueOptions> missing = ParseMissingFlags(args);
  if (!missing.ok()) return Fail(missing.status());
  options.missing = *missing;
  const std::string backend = args.Get("backend", "dense");
  if (backend == "lazy") {
    options.backend = DistanceBackend::kLazy;
  } else if (backend != "dense") {
    return Fail(Status::InvalidArgument("unknown backend '" + backend +
                                        "' (expected dense or lazy)"));
  }
  options.num_threads =
      static_cast<std::size_t>(args.GetInt("threads", 0));
  options.fold = args.Has("fold");
  if (args.Has("shards")) {
    Result<ShardOptions> shards = ParseShardsFlag(args.Get("shards"));
    if (!shards.ok()) return Fail(shards.status());
    options.shard = *shards;
  }
  if (args.Has("max-cluster-size")) {
    const long long cap = args.GetInt("max-cluster-size", 0);
    if (cap <= 0) {
      return Fail(Status::InvalidArgument(
          "--max-cluster-size expects a positive object count"));
    }
    options.max_cluster_size = static_cast<std::size_t>(cap);
  }
  if (args.Has("deadline-ms")) {
    const long long deadline_ms = args.GetInt("deadline-ms", 0);
    if (deadline_ms <= 0) {
      return Fail(Status::InvalidArgument(
          "--deadline-ms expects a positive number of milliseconds"));
    }
    options.run =
        RunContext::WithDeadline(std::chrono::milliseconds(deadline_ms));
  }
  options.allow_fallbacks = !args.Has("no-fallbacks");

  // --stats[=json|table] attaches a Telemetry sink to the run and dumps
  // it to stderr after the aggregation; --fake-clock swaps in the
  // deterministic FakeClock so the dump is byte-stable across runs
  // (used by the golden smoke test; see docs/observability.md).
  const bool want_stats = args.Has("stats");
  std::string stats_mode = args.Get("stats");
  if (stats_mode.empty()) stats_mode = "table";
  if (want_stats && stats_mode != "json" && stats_mode != "table") {
    return Fail(Status::InvalidArgument("--stats expects 'json' or 'table', "
                                        "got '" + stats_mode + "'"));
  }
  FakeClock fake_clock(0, 1000);
  Telemetry telemetry(args.Has("fake-clock")
                          ? static_cast<const clustagg::Clock*>(&fake_clock)
                          : clustagg::Clock::Real());
  if (want_stats) {
    options.run = options.run.WithTelemetry(&telemetry);
  }

  Result<AggregationResult> result = Aggregate(*input, options);
  if (!result.ok()) return Fail(result.status());

  std::fprintf(stderr,
               "aggregated %zu clusterings of %zu objects with %s: "
               "%zu clusters, D(C) = %.1f\n",
               input->num_clusterings(), input->num_objects(),
               AggregationAlgorithmName(options.algorithm),
               result->clustering.NumClusters(),
               result->total_disagreements);
  // The outcome tag and the degradations taken are part of the result's
  // meaning (a deadline-exceeded clustering is a best-so-far, not the
  // converged answer), so they are always reported, not only under
  // --report.
  std::fprintf(stderr, "run outcome = %s\n",
               RunOutcomeName(result->outcome));
  if (result->folded) {
    std::fprintf(stderr, "folded %zu objects into %zu signatures\n",
                 input->num_objects(), result->fold_signatures);
  }
  if (result->sharded) {
    std::fprintf(stderr,
                 "sharded: %zu shards over %zu agreement components, "
                 "stitch error bound = %.2f\n",
                 result->shard_count, result->shard_components,
                 result->stitch_error_bound);
  }
  for (const std::string& note : result->fallbacks) {
    std::fprintf(stderr, "fallback: %s\n", note.c_str());
  }
  if (args.Has("report")) {
    std::fprintf(stderr, "distance backend = %s, threads = %zu\n",
                 DistanceBackendName(options.backend),
                 ResolveThreadCount(options.num_threads));
    std::fprintf(stderr, "lower bound on D = %.1f\n",
                 DisagreementLowerBound(*input, options.missing));
    const auto sizes = result->clustering.ClusterSizes();
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      std::fprintf(stderr, "  cluster %zu: %zu objects\n", c, sizes[c]);
    }
  }
  if (want_stats) {
    if (stats_mode == "json") {
      std::fprintf(stderr, "%s\n", telemetry.ToJson().c_str());
    } else {
      std::ostringstream table;
      telemetry.PrintTable(table);
      std::fputs(table.str().c_str(), stderr);
    }
  }

  const std::string out = args.Get("out");
  if (!out.empty()) {
    if (Status s = WriteClusteringFile(out, result->clustering); !s.ok()) {
      return Fail(s);
    }
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  } else {
    std::fputs(FormatClustering(result->clustering).c_str(), stdout);
  }
  return 0;
}

/// `query --local ...`: serve cluster-membership queries from the
/// sublinear local CC-PIVOT oracle (src/local/, docs/local_queries.md)
/// without running a full aggregation. The oracle lazily simulates the
/// single global CC-PIVOT pass pinned by --seed/--threshold, so every
/// answer — and the full `--all` labeling — is bit-identical to
/// `aggregate --algorithm pivot --pivot-repetitions 1` with the same
/// seed over the same inputs. Exactly one of --of U, --pair U,V, --all
/// selects the query; inputs are read the same way aggregate reads them
/// (positional label files, --csv, --weights).
int CmdQuery(const Args& args) {
  if (!args.Has("local")) {
    return Fail(Status::InvalidArgument(
        "query serves local membership lookups; pass --local "
        "(see 'clustagg help')"));
  }
  const int selectors = static_cast<int>(args.Has("of")) +
                        static_cast<int>(args.Has("pair")) +
                        static_cast<int>(args.Has("all"));
  if (selectors != 1) {
    return Fail(Status::InvalidArgument(
        "query expects exactly one of --of U, --pair U,V, --all"));
  }

  Result<ClusteringSet> input = ReadInputSet(args);
  if (!input.ok()) return Fail(input.status());

  LocalOracleOptions options;
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  options.join_threshold = args.GetDouble("threshold", 0.5);
  if (args.Has("memo")) {
    const long long memo = args.GetInt("memo", -1);
    if (memo < 0) {
      return Fail(Status::InvalidArgument(
          "--memo expects a non-negative entry count (0 disables "
          "memoization)"));
    }
    options.memo_capacity = static_cast<std::size_t>(memo);
  }
  Result<MissingValueOptions> missing = ParseMissingFlags(args);
  if (!missing.ok()) return Fail(missing.status());

  // Backend: lazy is the natural serving substrate (O(n*m) memory, no
  // quadratic build before the first answer) and the only one that
  // composes with --fold; dense is offered for A/B checks since both
  // return bit-identical distances.
  const std::string backend = args.Get("backend", "lazy");
  const bool fold = args.Has("fold");
  Result<LocalMembershipOracle> oracle = [&]() -> Result<LocalMembershipOracle> {
    if (fold) {
      if (backend == "dense") {
        return Status::InvalidArgument(
            "--fold simulates over the lazy signature subset; drop "
            "--backend dense");
      }
      return LocalMembershipOracle::FromClusteringsFolded(*input, *missing,
                                                          options);
    }
    if (backend == "dense") {
      Result<std::shared_ptr<const DenseDistanceSource>> source =
          DenseDistanceSource::Build(*input, *missing);
      if (!source.ok()) return source.status();
      return LocalMembershipOracle::Create(*std::move(source), options);
    }
    if (backend != "lazy") {
      return Status::InvalidArgument("unknown backend '" + backend +
                                     "' (expected dense or lazy)");
    }
    return LocalMembershipOracle::FromClusterings(*input, *missing, options);
  }();
  if (!oracle.ok()) return Fail(oracle.status());

  RunContext run;
  if (args.Has("deadline-ms")) {
    const long long deadline_ms = args.GetInt("deadline-ms", 0);
    if (deadline_ms <= 0) {
      return Fail(Status::InvalidArgument(
          "--deadline-ms expects a positive number of milliseconds"));
    }
    run = RunContext::WithDeadline(std::chrono::milliseconds(deadline_ms));
  }
  const bool want_stats = args.Has("stats");
  std::string stats_mode = args.Get("stats");
  if (stats_mode.empty()) stats_mode = "table";
  if (want_stats && stats_mode != "json" && stats_mode != "table") {
    return Fail(Status::InvalidArgument("--stats expects 'json' or 'table', "
                                        "got '" + stats_mode + "'"));
  }
  FakeClock fake_clock(0, 1000);
  Telemetry telemetry(args.Has("fake-clock")
                          ? static_cast<const clustagg::Clock*>(&fake_clock)
                          : clustagg::Clock::Real());
  if (want_stats) run = run.WithTelemetry(&telemetry);

  std::fprintf(stderr,
               "local oracle over %zu clusterings of %zu objects "
               "(seed %llu, threshold %.3f%s)\n",
               input->num_clusterings(), input->num_objects(),
               static_cast<unsigned long long>(options.seed),
               options.join_threshold,
               oracle->folded()
                   ? (", folded to " + std::to_string(oracle->sim_size()) +
                      " signatures").c_str()
                   : "");

  int exit_code = 0;
  if (args.Has("of")) {
    Result<std::size_t> u = ParseObjectId(args.Get("of"));
    if (!u.ok()) return Fail(u.status());
    Result<MembershipAnswer> answer = oracle->ClusterOf(*u, run);
    if (!answer.ok()) return Fail(answer.status());
    // stdout carries just the canonical cluster id (the owning pivot's
    // object id); everything descriptive goes to stderr.
    std::fprintf(stdout, "%zu\n", answer->pivot);
    std::fprintf(stderr,
                 "object %zu -> pivot %zu (outcome = %s, "
                 "%llu pivot inspections, chain depth %llu, "
                 "%llu distance queries)\n",
                 *u, answer->pivot, RunOutcomeName(answer->outcome),
                 static_cast<unsigned long long>(answer->pivot_inspections),
                 static_cast<unsigned long long>(answer->chain_depth),
                 static_cast<unsigned long long>(answer->distance_queries));
  } else if (args.Has("pair")) {
    const std::string pair = args.Get("pair");
    const std::size_t comma = pair.find(',');
    if (comma == std::string::npos) {
      return Fail(Status::InvalidArgument(
          "--pair expects two comma-separated object ids, e.g. "
          "--pair 3,17"));
    }
    Result<std::size_t> u = ParseObjectId(pair.substr(0, comma));
    if (!u.ok()) return Fail(u.status());
    Result<std::size_t> v = ParseObjectId(pair.substr(comma + 1));
    if (!v.ok()) return Fail(v.status());
    Result<SameClusterAnswer> answer = oracle->SameCluster(*u, *v, run);
    if (!answer.ok()) return Fail(answer.status());
    std::fputs(answer->same ? "same\n" : "different\n", stdout);
    std::fprintf(stderr,
                 "objects %zu, %zu -> pivots %zu, %zu (outcome = %s)\n",
                 *u, *v, answer->pivot_u, answer->pivot_v,
                 RunOutcomeName(answer->outcome));
  } else {  // --all
    Result<Clustering> labels = oracle->MaterializeLabels(run);
    if (!labels.ok()) return Fail(labels.status());
    std::fprintf(stderr, "materialized %zu objects into %zu clusters\n",
                 labels->size(), labels->NumClusters());
    const std::string out = args.Get("out");
    if (!out.empty()) {
      if (Status s = WriteClusteringFile(out, *labels); !s.ok()) {
        return Fail(s);
      }
      std::fprintf(stderr, "wrote %s\n", out.c_str());
    } else {
      std::fputs(FormatClustering(*labels).c_str(), stdout);
    }
  }
  if (want_stats) {
    if (stats_mode == "json") {
      std::fprintf(stderr, "%s\n", telemetry.ToJson().c_str());
    } else {
      std::ostringstream table;
      telemetry.PrintTable(table);
      std::fputs(table.str().c_str(), stderr);
    }
  }
  return exit_code;
}

int CmdEval(const Args& args) {
  if (args.positional().size() != 2) {
    return Fail(Status::InvalidArgument(
        "usage: clustagg eval <truth.labels> <candidate.labels>"));
  }
  Result<Clustering> a = ReadClusteringFile(args.positional()[0]);
  if (!a.ok()) return Fail(a.status());
  Result<Clustering> b = ReadClusteringFile(args.positional()[1]);
  if (!b.ok()) return Fail(b.status());

  Result<std::uint64_t> d = DisagreementDistance(*a, *b);
  if (!d.ok()) return Fail(d.status());
  Result<double> rand = RandIndex(*a, *b);
  Result<double> ari = AdjustedRandIndex(*a, *b);
  Result<double> nmi = NormalizedMutualInformation(*a, *b);
  std::printf("objects:              %zu\n", a->size());
  std::printf("clusters:             %zu vs %zu\n", a->NumClusters(),
              b->NumClusters());
  std::printf("disagreement d(a,b):  %llu\n",
              static_cast<unsigned long long>(*d));
  std::printf("rand index:           %.4f\n", *rand);
  std::printf("adjusted rand index:  %.4f\n", *ari);
  std::printf("normalized MI:        %.4f\n", *nmi);
  return 0;
}

int CmdGen(const Args& args) {
  if (args.positional().empty()) {
    return Fail(Status::InvalidArgument(
        "usage: clustagg gen <votes|mushrooms|census|gaussian> "
        "[--seed N] [--rows N] [--out file]"));
  }
  const std::string kind = args.positional()[0];
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const std::string out = args.Get("out", kind + ".csv");

  Result<SyntheticCategoricalData> data = [&]() {
    if (kind == "votes") return MakeVotesLike(seed);
    if (kind == "mushrooms") return MakeMushroomsLike(seed);
    if (kind == "census") {
      return MakeCensusLike(
          seed, static_cast<std::size_t>(args.GetInt("rows", 32561)));
    }
    return Result<SyntheticCategoricalData>(Status::InvalidArgument(
        "unknown dataset '" + kind +
        "' (expected votes, mushrooms, census, gaussian)"));
  }();
  if (kind == "gaussian") {
    GaussianMixtureOptions gen;
    gen.num_clusters = static_cast<std::size_t>(args.GetInt("clusters", 5));
    gen.points_per_cluster =
        static_cast<std::size_t>(args.GetInt("rows", 500)) /
        gen.num_clusters;
    gen.seed = seed;
    Result<Dataset2D> points = GenerateGaussianMixture(gen);
    if (!points.ok()) return Fail(points.status());
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::InvalidArgument("cannot open " + out));
    }
    std::fprintf(f, "x,y,cluster\n");
    for (std::size_t i = 0; i < points->size(); ++i) {
      std::fprintf(f, "%.6f,%.6f,%d\n", points->points[i].x,
                   points->points[i].y, points->ground_truth[i]);
    }
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu points to %s\n", points->size(),
                 out.c_str());
    return 0;
  }
  if (!data.ok()) return Fail(data.status());

  // Serialize with plain numeric codes (the generators have no string
  // dictionaries).
  CsvDataset dataset;
  dataset.table = std::move(data->table);
  for (std::size_t a = 0; a < dataset.table.num_attributes(); ++a) {
    std::string col = "a";
    col += std::to_string(a);
    dataset.column_names.push_back(std::move(col));
  }
  for (std::size_t c = 0; c < dataset.table.num_classes(); ++c) {
    std::string cls = "class";
    cls += std::to_string(c);
    dataset.class_names.push_back(std::move(cls));
  }
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    return Fail(Status::InvalidArgument("cannot open " + out));
  }
  const std::string csv = FormatCategoricalCsv(dataset);
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu rows to %s\n",
               dataset.table.num_rows(), out.c_str());
  return 0;
}

int CmdHelp() {
  std::puts(
      "clustagg — clustering aggregation (Gionis, Mannila, Tsaparas; "
      "ICDE 2005)\n"
      "\n"
      "subcommands:\n"
      "  aggregate [files...] [--csv FILE [--class-column NAME]]\n"
      "            [--algorithm best|balls|agglomerative|furthest|\n"
      "             localsearch|pivot|annealing|majority|exact]\n"
      "            [--alpha X] [--refine] [--sample N] [--seed N]\n"
      "            [--pivot-repetitions N]\n"
      "            [--missing coin|ignore] [--coin-p P]\n"
      "            [--backend dense|lazy] [--threads N] [--fold]\n"
      "            [--shards auto|off|N] [--max-cluster-size N]\n"
      "            [--weights w1,w2,...] [--deadline-ms N]\n"
      "            [--no-fallbacks] [--out FILE] [--report]\n"
      "            [--stats[=json|table]] [--fake-clock]\n"
      "      aggregate label files (one clustering per file, labels\n"
      "      whitespace-separated, '?' = missing) or the attribute\n"
      "      clusterings of a categorical CSV. --backend dense (default)\n"
      "      materializes the O(n^2/2) distance matrix in parallel;\n"
      "      --backend lazy keeps O(n*m) memory and recomputes distances\n"
      "      on demand. --threads 0 (default) = one per hardware core.\n"
      "      --seed pins every randomized stage (sampling, pivot,\n"
      "      annealing); --pivot-repetitions overrides PIVOT's default 8\n"
      "      attempts (1 = the single run the local query oracle\n"
      "      simulates).\n"
      "      --fold clusters one weighted representative per distinct\n"
      "      label tuple and expands back — exact, and much faster when\n"
      "      objects repeat (see docs/performance.md).\n"
      "      --shards decomposes the agreement graph (pairs with\n"
      "      X_uv < 1/2) into connected components, solves each shard\n"
      "      independently in parallel, and stitches the results with an\n"
      "      exact error bound (see docs/sharding.md): 'auto' shards only\n"
      "      when the instance is large enough to pay off, N forces N\n"
      "      balanced shards, 'off' (default) disables sharding.\n"
      "      --max-cluster-size caps how many objects LOCALSEARCH may\n"
      "      gather into one cluster (size-constrained correlation\n"
      "      clustering); moves that would overflow the cap are skipped.\n"
      "      --deadline-ms bounds the wall clock: when it fires, the best\n"
      "      clustering found so far is returned (exit 0) and the report\n"
      "      line 'run outcome = deadline_exceeded' is printed instead of\n"
      "      'converged'. --no-fallbacks disables graceful degradation\n"
      "      (dense->lazy on allocation failure, exact->balls+localsearch\n"
      "      beyond EXACT's tractable size); degradations taken are\n"
      "      reported as 'fallback: ...' lines on stderr. --stats dumps\n"
      "      run telemetry (phase spans, counters, per-clusterer\n"
      "      convergence traces; see docs/observability.md) to stderr as\n"
      "      a table or JSON; --fake-clock substitutes a deterministic\n"
      "      clock so --stats=json output is byte-stable.\n"
      "  aggregate --stream FILE [--rebuild-threshold X] [--fold]\n"
      "            [--window N]\n"
      "            [--algorithm ...] [--missing coin|ignore] [--coin-p P]\n"
      "            [--shards auto|off|N] [--max-cluster-size N]\n"
      "            [--threads N] [--deadline-ms N] [--out FILE]\n"
      "            [--stats[=json|table]] [--fake-clock]\n"
      "            [--journal PATH [--fsync-every N] [--snapshot-every N]\n"
      "             [--snapshot PATH]] [--recover]\n"
      "      replay a recorded event log (directives: 'clustering\n"
      "      [weight=W] L1..Ln', 'object L1..Lm', 'remove_clustering ID',\n"
      "      'remove_object ID', 'flush', '#' comments, '?' = missing;\n"
      "      see docs/streaming.md) through the incremental\n"
      "      StreamAggregator. Each 'flush' closes a batch: events apply\n"
      "      to the stream's label columns, then the solution is\n"
      "      repaired in place (LOCALSEARCH from the previous labels)\n"
      "      or fully rebuilt with\n"
      "      --algorithm when accumulated drift exceeds\n"
      "      --rebuild-threshold (default 0.25). Clusterings and objects\n"
      "      get stable 0-based ids in arrival order (never reused);\n"
      "      remove_* directives evict by id, and --window N keeps only\n"
      "      the N newest clusterings, auto-evicting the oldest when an\n"
      "      add overflows the window (see docs/streaming.md).\n"
      "      --deadline-ms bounds each batch; an interrupted batch keeps\n"
      "      the remainder queued. Per-batch progress goes to stderr,\n"
      "      final labels to --out or stdout.\n"
      "      --journal writes every event ahead to a CRC-framed journal\n"
      "      before applying it, so a crash loses nothing durable;\n"
      "      --fsync-every N (default 1) group-fsyncs every N records\n"
      "      (0 = let the OS decide), --snapshot-every N writes an atomic\n"
      "      snapshot after every N flushes (to --snapshot PATH, default\n"
      "      JOURNAL.snap) to bound recovery replay. SIGINT/SIGTERM stop\n"
      "      the replay gracefully: the pending batch is flushed, the\n"
      "      journal synced and closed, stats emitted, exit 9.\n"
      "  aggregate --recover --journal PATH [--snapshot PATH]\n"
      "            [--stream FILE] [stream flags as above]\n"
      "      recover the durable stream: load the newest valid snapshot,\n"
      "      replay the journal suffix past its cursor (truncating a torn\n"
      "      final frame; corrupt snapshots and mid-file journal damage\n"
      "      fail with exit 8, never partial state), then optionally\n"
      "      continue with a new --stream log. Recovered state is\n"
      "      bit-identical to an uninterrupted run over the same durable\n"
      "      records (see docs/durability.md).\n"
      "  query --local (--of U | --pair U,V | --all) [files...]\n"
      "        [--csv FILE [--class-column NAME]] [--weights w1,w2,...]\n"
      "        [--seed N] [--threshold X] [--memo N] [--fold]\n"
      "        [--backend dense|lazy] [--missing coin|ignore]\n"
      "        [--coin-p P] [--deadline-ms N] [--out FILE]\n"
      "        [--stats[=json|table]] [--fake-clock]\n"
      "      answer cluster-membership questions from the sublinear\n"
      "      local CC-PIVOT oracle (docs/local_queries.md): lazily\n"
      "      simulate the single global CC-PIVOT run pinned by --seed\n"
      "      (default 1) and --threshold (default 0.5) instead of\n"
      "      aggregating. Every answer is bit-identical to, and mutually\n"
      "      consistent with, 'aggregate --algorithm pivot\n"
      "      --pivot-repetitions 1' under the same seed and inputs.\n"
      "      --of U prints U's canonical cluster id (the owning pivot's\n"
      "      object id) on stdout; --pair U,V prints 'same' or\n"
      "      'different'; --all materializes the full normalized\n"
      "      labeling (to --out or stdout) by querying every object.\n"
      "      --memo N caps the LRU memo of pivot adjudications\n"
      "      (0 disables it; answers are identical either way). --fold\n"
      "      simulates over one representative per distinct label tuple\n"
      "      and answers object-space queries through the grouping\n"
      "      (lazy backend only). --backend lazy (default) needs no\n"
      "      quadratic build before the first answer. --deadline-ms\n"
      "      bounds the query; an interrupted query degrades to a\n"
      "      tagged best-so-far singleton (exit 0, outcome on stderr).\n"
      "  eval <truth.labels> <candidate.labels>\n"
      "      rand / adjusted rand / NMI / disagreement distance.\n"
      "  gen <votes|mushrooms|census|gaussian> [--seed N] [--rows N]\n"
      "      [--out FILE]\n"
      "      write one of the paper's synthetic datasets.\n"
      "  help\n"
      "\n"
      "exit codes (diagnostics always go to stderr):\n"
      "  0  success (including deadline-exceeded best-so-far results)\n"
      "  2  invalid argument (bad flags, malformed input files)\n"
      "  3  failed precondition\n"
      "  4  resource exhausted (e.g. EXACT beyond its tractable size\n"
      "     with --no-fallbacks)\n"
      "  5  internal error\n"
      "  6  cancelled\n"
      "  7  deadline exceeded (only where no best-so-far result exists)\n"
      "  8  data loss (corrupt snapshot, mid-file journal corruption, or\n"
      "     a snapshot cursor past the journal; see docs/durability.md)\n"
      "  9  graceful signal shutdown (SIGINT/SIGTERM during a stream\n"
      "     replay: pending batch flushed, journal synced and closed)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return CmdHelp();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "aggregate") return CmdAggregate(args);
  if (command == "query") return CmdQuery(args);
  if (command == "eval") return CmdEval(args);
  if (command == "gen") return CmdGen(args);
  if (command == "help" || command == "--help") return CmdHelp();
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  CmdHelp();
  return ExitCodeForStatus(StatusCode::kInvalidArgument);
}
