// clustagg — command-line front end for the clustering-aggregation
// library.
//
// Subcommands:
//   aggregate  aggregate label files (or a categorical CSV) into one
//              clustering, or replay a stream event log
//   query      answer local cluster-membership questions from the
//              sublinear lazy CC-PIVOT oracle, without aggregating
//   eval       compare two label files (Rand, adjusted Rand, NMI,
//              disagreement distance)
//   gen        write one of the paper's synthetic datasets to disk
//   help       the usage text, printed from the flag table below
//
// Every flag is one row of kFlags: its kind decides how its value is
// parsed and checked, its modes decide which subcommands accept it, and
// `help` prints the same rows, so a flag cannot be documented without
// being parsed or parsed without being documented.
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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "clustagg/clustagg.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "io/clustering_io.h"
#include "io/csv.h"

namespace {

using namespace clustagg;

/// The modes a flag can belong to. `aggregate` runs in stream mode when
/// --stream, --recover or --journal is given and in batch mode
/// otherwise.
enum Mode : unsigned {
  kAggregate = 1,
  kStream = 2,
  kQuery = 4,
  kEval = 8,
  kGen = 16,
};

/// How a flag's value is parsed. kBool flags never take a value; kInt
/// is a non-negative integer and kPositive a positive one (0 would mean
/// "unset"), kNumber a finite double, kEnum one of the row's choices.
enum Kind { kBool, kInt, kPositive, kNumber, kString, kEnum };

struct FlagSpec {
  const char* name;
  Kind kind;
  unsigned modes;
  /// The value's placeholder in `help`; for kEnum the '|'-separated
  /// choices, listed in the order of the C++ enum they select.
  const char* value;
  const char* help;
  /// When set, a bare --name stands for this value and any other value
  /// is given only as --name=VALUE (the next argument is never taken).
  const char* bare = nullptr;
};

constexpr unsigned kInput = kAggregate | kQuery;
constexpr unsigned kSolve = kAggregate | kStream;
constexpr unsigned kRun = kAggregate | kStream | kQuery;

/// The one declaration of every flag the CLI accepts, in `help` order.
constexpr FlagSpec kFlags[] = {
    {"csv", kString, kInput, "FILE",
     "read the attribute clusterings of a categorical CSV"},
    {"class-column", kString, kInput, "NAME",
     "CSV class column, left out of the attributes (an index without header)"},
    {"delimiter", kString, kInput, "C",
     "CSV field separator, exactly one character (default ',')"},
    {"no-header", kBool, kInput, "", "the CSV has no header row"},
    {"weights", kString, kInput, "W1,W2,...", "one weight per label file"},
    {"stream", kString, kStream, "FILE",
     "event log to replay (directives in docs/streaming.md)"},
    {"rebuild-threshold", kNumber, kStream, "X",
     "drift above which a flush rebuilds instead of repairs (default 0.25)"},
    {"window", kPositive, kStream, "N",
     "keep the N newest clusterings; an add past N evicts the oldest"},
    {"journal", kString, kStream, "PATH",
     "write every event ahead to this CRC-framed journal"},
    {"fsync-every", kInt, kStream, "N",
     "fsync the journal every N records; 0 lets the OS decide (default 1)"},
    {"snapshot-every", kInt, kStream, "N",
     "write an atomic snapshot after every N flushes (default 0, never)"},
    {"snapshot", kString, kStream, "PATH",
     "snapshot file (default JOURNAL.snap)"},
    {"recover", kBool, kStream, "",
     "first restore the stream from --journal and its snapshot"},
    {"local", kBool, kQuery, "", "required: answer from the local oracle"},
    {"of", kInt, kQuery, "U",
     "print U's cluster id (the object id of its pivot) on stdout"},
    {"pair", kString, kQuery, "U,V", "print 'same' or 'different' on stdout"},
    {"all", kBool, kQuery, "", "materialize the whole normalized labeling"},
    {"algorithm", kEnum, kSolve,
     "best|balls|agglomerative|furthest|localsearch|pivot|annealing|"
     "majority|exact",
     "clusterer; a stream's full rebuilds run it (default agglomerative)"},
    {"alpha", kNumber, kSolve, "X", "BALLS threshold (default 0.4)"},
    {"refine", kBool, kSolve, "", "finish with a LOCALSEARCH pass"},
    {"sample", kInt, kAggregate, "N",
     "SAMPLING: cluster N sampled objects, assign the rest (default 0, off)"},
    {"seed", kInt, kAggregate | kQuery | kGen, "N",
     "seed of sampling, pivot, annealing and the generators (default 1)"},
    {"pivot-repetitions", kPositive, kAggregate, "N",
     "CC-PIVOT attempts (default 8; query --local simulates 1)"},
    {"threshold", kNumber, kQuery, "X",
     "join threshold of the simulated CC-PIVOT (default 0.5)"},
    {"missing", kEnum, kRun, "coin|ignore",
     "a missing label splits a pair by coin toss (default) or is skipped"},
    {"coin-p", kNumber, kRun, "P",
     "probability the coin puts a pair together (default 0.5)"},
    {"backend", kEnum, kInput, "dense|lazy",
     "O(n^2) matrix (aggregate's default) or O(n*m) on demand (query's)"},
    {"threads", kInt, kSolve, "N",
     "worker threads (default 0, one per hardware core)"},
    {"fold", kBool, kRun, "",
     "solve one weighted object per distinct label tuple"},
    {"shards", kString, kSolve, "auto|off|N",
     "solve agreement components in parallel (default off; docs/sharding.md)"},
    {"max-cluster-size", kPositive, kSolve, "N",
     "LOCALSEARCH never grows a cluster past N objects (not with --sample)"},
    {"deadline-ms", kPositive, kRun, "N",
     "budget of the run, of each stream batch or of the query; on expiry "
     "the best so far is returned, exit 0, 'run outcome = deadline_exceeded'"},
    {"no-fallbacks", kBool, kAggregate, "",
     "fail rather than degrade (dense to lazy, EXACT to BALLS+LOCALSEARCH)"},
    {"report", kBool, kAggregate, "",
     "print backend, threads, the lower bound on D and cluster sizes"},
    {"stats", kEnum, kRun, "table|json",
     "dump run telemetry to stderr (docs/observability.md)", "table"},
    {"fake-clock", kBool, kRun, "", "deterministic clock: byte-stable --stats"},
    {"rows", kInt, kGen, "N", "census rows (32561) or gaussian points (500)"},
    {"clusters", kPositive, kGen, "N", "gaussian components (default 5)"},
    {"out", kString, kRun | kGen, "FILE",
     "write the labels here, not to stdout (gen: the CSV, default KIND.csv)"},
};

const FlagSpec* FindFlag(std::string_view name) {
  for (const FlagSpec& flag : kFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// Position of `value` among the '|'-separated `choices`.
std::optional<std::size_t> ChoiceIndex(std::string_view choices,
                                       std::string_view value) {
  for (std::size_t index = 0;; ++index) {
    const std::size_t bar = choices.find('|');
    if (choices.substr(0, bar) == value) return index;
    if (bar == std::string_view::npos) return std::nullopt;
    choices.remove_prefix(bar + 1);
  }
}

/// Strictly parses a non-negative integer: anything but digits is
/// rejected, so a typo cannot silently read as 0.
Result<std::uint64_t> ParseUnsigned(const std::string& text) {
  const Status bad = Status::InvalidArgument(
      "expected a non-negative 64-bit integer, got '" + text + "'");
  if (text.empty()) return bad;
  std::uint64_t value = 0;
  for (char c : text) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || value > (UINT64_MAX - digit) / 10) return bad;
    value = value * 10 + digit;
  }
  return value;
}

/// Strictly parses a finite number; trailing garbage is rejected.
Result<double> ParseNumber(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return Status::InvalidArgument("expected a number, got '" + text + "'");
  }
  return value;
}

Status CheckValue(const FlagSpec& flag, const std::string& value) {
  Status status;
  if (flag.kind == kInt) {
    status = ParseUnsigned(value).status();
  } else if (flag.kind == kPositive) {
    Result<std::uint64_t> count = ParseUnsigned(value);
    status = count.ok() && *count == 0
                 ? Status::InvalidArgument("expected a positive integer, "
                                           "got '" + value + "'")
                 : count.status();
  } else if (flag.kind == kNumber) {
    status = ParseNumber(value).status();
  } else if (flag.kind == kEnum && !ChoiceIndex(flag.value, value)) {
    status = Status::InvalidArgument("expected one of " +
                                     std::string(flag.value) + ", got '" +
                                     value + "'");
  }
  if (status.ok()) return status;
  return Status::InvalidArgument("--" + std::string(flag.name) + ": " +
                                 std::string(status.message()));
}

/// The flags and positional arguments of one invocation. Every value
/// has been checked against its kFlags row, so the typed getters cannot
/// fail.
struct Flags {
  std::map<std::string, std::string, std::less<>> values;
  std::vector<std::string> positional;

  bool Has(std::string_view name) const { return values.contains(name); }

  std::string Get(std::string_view name, std::string fallback = "") const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }

  std::uint64_t Int(std::string_view name, std::uint64_t fallback) const {
    return Has(name) ? ParseUnsigned(Get(name)).value() : fallback;
  }

  double Number(std::string_view name, double fallback) const {
    return Has(name) ? ParseNumber(Get(name)).value() : fallback;
  }

  /// The enum a kEnum flag selects: its choice's position in the row.
  template <typename E>
  E Choice(std::string_view name, E fallback) const {
    if (!Has(name)) return fallback;
    return static_cast<E>(*ChoiceIndex(FindFlag(name)->value, Get(name)));
  }
};

/// Walks argv past the subcommand against kFlags: --name VALUE or
/// --name=VALUE for valued flags, a bare --name for booleans, anything
/// not starting with "--" positional. Unknown flags, missing values and
/// values that do not parse as the flag's kind are InvalidArgument.
Result<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0) {
      flags.positional.push_back(std::move(name));
      continue;
    }
    name.erase(0, 2);
    std::optional<std::string> value;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    const FlagSpec* flag = FindFlag(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     " (see 'clustagg help')");
    }
    if (flag->kind == kBool && value.has_value()) {
      return Status::InvalidArgument("--" + name + " takes no value");
    }
    if (flag->kind == kBool || flag->bare != nullptr) {
      if (!value.has_value()) value = flag->bare ? flag->bare : "";
    } else if (!value.has_value()) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        return Status::InvalidArgument("--" + name + " expects a value");
      }
      value = argv[++i];
    }
    if (Status s = CheckValue(*flag, *value); !s.ok()) return s;
    flags.values[name] = *std::move(value);
  }
  return flags;
}

/// One subcommand mode: its `help` section (the flags come from
/// kFlags) and the function that runs it.
struct ModeSpec {
  Mode mode;
  const char* name;
  int (*run)(const Flags& flags);
  const char* usage;
  const char* intro;
};

/// Rejects every flag the active mode does not use.
Status CheckMode(const Flags& flags, const ModeSpec& mode) {
  for (const auto& [name, value] : flags.values) {
    if ((FindFlag(name)->modes & mode.mode) == 0) {
      return Status::InvalidArgument("--" + name + " does not apply to " +
                                     mode.name + " (see 'clustagg help')");
    }
  }
  return Status::OK();
}

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
/// by --weights. The sources are exclusive, and a CSV-only flag without
/// --csv is an error rather than silently ignored.
Result<ClusteringSet> ReadInputSet(const Flags& flags) {
  if (!flags.Has("csv")) {
    for (std::string_view name : {"class-column", "delimiter", "no-header"}) {
      if (flags.Has(name)) {
        return Status::InvalidArgument("--" + std::string(name) +
                                       " applies only to --csv input");
      }
    }
  } else if (!flags.positional.empty() || flags.Has("weights")) {
    return Status::InvalidArgument(
        "--csv takes no label files and no --weights");
  }
  const std::string delimiter = flags.Get("delimiter", ",");
  if (delimiter.size() != 1) {
    return Status::InvalidArgument("--delimiter expects one character, "
                                   "got '" + delimiter + "'");
  }
  if (flags.Has("csv")) {
    CsvOptions csv;
    csv.class_column = flags.Get("class-column");
    csv.delimiter = delimiter[0];
    if (flags.Has("no-header")) csv.has_header = false;
    Result<CsvDataset> dataset = ReadCategoricalCsv(flags.Get("csv"), csv);
    if (!dataset.ok()) return dataset.status();
    return AttributeClusterings(dataset->table);
  }
  if (flags.Has("weights")) {
    // --weights w1,w2,... parallel to the label files.
    std::vector<Clustering> clusterings;
    for (const std::string& path : flags.positional) {
      Result<Clustering> c = ReadClusteringFile(path);
      if (!c.ok()) return c.status();
      clusterings.push_back(std::move(*c));
    }
    Result<std::vector<double>> weights = ParseWeights(flags.Get("weights"));
    if (!weights.ok()) return weights.status();
    return ClusteringSet::Create(std::move(clusterings),
                                 std::move(*weights));
  }
  return ReadClusteringSet(flags.positional);
}

/// The missing-value flags shared by aggregate, stream and query.
/// --coin-p is a probability: a value outside [0, 1] would make expected
/// disagreements negative, so it is InvalidArgument (exit 2).
Result<MissingValueOptions> ParseMissingFlags(const Flags& flags) {
  MissingValueOptions missing;
  missing.policy = flags.Choice("missing", MissingValuePolicy::kRandomCoin);
  missing.coin_together_probability = flags.Number("coin-p", 0.5);
  if (!missing.Validate().ok()) {
    return Status::InvalidArgument("--coin-p: expected a probability in "
                                   "[0, 1], got '" + flags.Get("coin-p") +
                                   "'");
  }
  return missing;
}

/// The AggregatorOptions of both aggregating modes. A flag the active
/// mode does not accept is absent and leaves its option at the default.
Result<AggregatorOptions> ParseAggregatorFlags(const Flags& flags) {
  AggregatorOptions options;
  options.algorithm =
      flags.Choice("algorithm", AggregationAlgorithm::kAgglomerative);
  options.balls.alpha = flags.Number("alpha", 0.4);
  options.refine_with_local_search = flags.Has("refine");
  options.sampling_size = flags.Int("sample", 0);
  // --seed also pins the randomized clusterers, so `aggregate
  // --algorithm pivot --seed N` and `query --local --seed N` simulate
  // the same permutation stream (default 1 = the option defaults).
  options.sampling.seed = flags.Int("seed", 1);
  options.pivot.seed = options.sampling.seed;
  options.annealing.seed = options.sampling.seed;
  options.pivot.repetitions =
      flags.Int("pivot-repetitions", options.pivot.repetitions);
  Result<MissingValueOptions> missing = ParseMissingFlags(flags);
  if (!missing.ok()) return missing.status();
  options.missing = *missing;
  options.backend = flags.Choice("backend", DistanceBackend::kDense);
  options.num_threads = flags.Int("threads", 0);
  options.fold = flags.Has("fold");
  options.max_cluster_size = flags.Int("max-cluster-size", 0);
  options.allow_fallbacks = !flags.Has("no-fallbacks");
  if (flags.Has("shards")) {
    Result<ShardOptions> shards = ParseShardsFlag(flags.Get("shards"));
    if (!shards.ok()) return shards.status();
    options.shard = *shards;
  }
  return options;
}

/// A fresh budget: --deadline-ms (when given) from now on.
RunContext WithinDeadline(std::uint64_t deadline_ms) {
  return deadline_ms > 0 ? RunContext::WithDeadline(
                               std::chrono::milliseconds(deadline_ms))
                         : RunContext();
}

/// --stats[=json|table] attaches a Telemetry sink to the run and dumps
/// it to stderr at the end; --fake-clock swaps in the deterministic
/// FakeClock so the dump is byte-stable across runs (used by the golden
/// smoke test; see docs/observability.md).
class StatsSink {
 public:
  explicit StatsSink(const Flags& flags)
      : enabled_(flags.Has("stats")),
        json_(flags.Get("stats") == "json"),
        telemetry_(flags.Has("fake-clock")
                       ? static_cast<const Clock*>(&fake_clock_)
                       : Clock::Real()) {}

  /// The sink, or null without --stats.
  Telemetry* get() { return enabled_ ? &telemetry_ : nullptr; }

  RunContext Attach(RunContext run) {
    return enabled_ ? run.WithTelemetry(&telemetry_) : run;
  }

  void Dump() const {
    if (!enabled_) return;
    if (json_) {
      std::fprintf(stderr, "%s\n", telemetry_.ToJson().c_str());
    } else {
      std::ostringstream table;
      telemetry_.PrintTable(table);
      std::fputs(table.str().c_str(), stderr);
    }
  }

 private:
  FakeClock fake_clock_{0, 1000};
  bool enabled_;
  bool json_;
  Telemetry telemetry_;
};

/// Writes the final labels to --out, or to stdout without it.
Status WriteLabels(const Flags& flags, const Clustering& labels) {
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::fputs(FormatClustering(labels).c_str(), stdout);
    return Status::OK();
  }
  if (Status s = WriteClusteringFile(out, labels); !s.ok()) return s;
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return Status::OK();
}

/// `aggregate --stream/--recover` (see its kModes intro): replay an
/// event log through the StreamAggregator, optionally behind the
/// write-ahead journal (docs/durability.md). A deadline bounds each
/// batch; SIGINT/SIGTERM stop with exit kSignalShutdownExit.
int CmdStream(const Flags& flags) {
  const bool recover = flags.Has("recover");
  const bool durable_mode = flags.Has("journal");
  if (recover && !durable_mode) {
    return Fail(Status::InvalidArgument(
        "--recover restores durable state and needs --journal=PATH"));
  }
  if (!recover && !flags.Has("stream")) {
    return Fail(Status::InvalidArgument(
        "--journal needs an event log to replay (--stream FILE) or "
        "--recover"));
  }
  if (!flags.positional.empty()) {
    return Fail(Status::InvalidArgument(
        "a stream reads its clusterings from the event log, not from '" +
        flags.positional[0] + "'"));
  }
  std::vector<StreamRecord> records;
  std::vector<std::size_t> record_lines;
  if (flags.Has("stream")) {
    Result<std::vector<StreamRecord>> parsed =
        ReadEventLogFile(flags.Get("stream"), &record_lines);
    if (!parsed.ok()) return Fail(parsed.status());
    records = *std::move(parsed);
  }

  Result<AggregatorOptions> rebuild = ParseAggregatorFlags(flags);
  if (!rebuild.ok()) return Fail(rebuild.status());
  // The drift-triggered full rebuild runs the batch Aggregate pipeline
  // (sharding included); warm repair is incremental and never shards.
  StreamAggregatorOptions options;
  options.rebuild = *rebuild;
  options.missing = rebuild->missing;
  options.num_threads = rebuild->num_threads;
  options.fold = rebuild->fold;
  options.repair.max_cluster_size = rebuild->max_cluster_size;
  options.rebuild_threshold =
      flags.Number("rebuild-threshold", options.rebuild_threshold);
  if (options.rebuild_threshold < 0) {
    return Fail(Status::InvalidArgument(
        "--rebuild-threshold expects a non-negative drift bound"));
  }
  options.window = flags.Int("window", 0);
  const std::uint64_t deadline_ms = flags.Int("deadline-ms", 0);
  StatsSink stats(flags);

  // Plain in-memory stream, or the same stream behind the write-ahead
  // journal when --journal is set. `view` is the read side either way.
  StreamAggregator plain(options);
  std::unique_ptr<DurableStreamAggregator> durable;
  if (durable_mode) {
    DurabilityOptions durability;
    durability.journal_path = flags.Get("journal");
    durability.snapshot_path = flags.Get("snapshot");
    durability.fsync_every = flags.Int("fsync-every", 1);
    durability.snapshot_every = flags.Int("snapshot-every", 0);
    Result<std::unique_ptr<DurableStreamAggregator>> opened =
        DurableStreamAggregator::Open(options, std::move(durability),
                                      FileSystem::Real(), stats.get());
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
    return stats.Attach(WithinDeadline(deadline_ms));
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
  stats.Dump();
  if (Status s = WriteLabels(flags, view.labels()); !s.ok()) return Fail(s);
  return interrupted ? kSignalShutdownExit : 0;
}

int CmdAggregate(const Flags& flags) {
  // Assemble the input clusterings.
  Result<ClusteringSet> input = ReadInputSet(flags);
  if (!input.ok()) return Fail(input.status());

  Result<AggregatorOptions> options = ParseAggregatorFlags(flags);
  if (!options.ok()) return Fail(options.status());
  StatsSink stats(flags);
  options->run = stats.Attach(WithinDeadline(flags.Int("deadline-ms", 0)));

  Result<AggregationResult> result = Aggregate(*input, *options);
  if (!result.ok()) return Fail(result.status());

  std::fprintf(stderr,
               "aggregated %zu clusterings of %zu objects with %s: "
               "%zu clusters, D(C) = %.1f\n",
               input->num_clusterings(), input->num_objects(),
               AggregationAlgorithmName(options->algorithm),
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
  if (flags.Has("report")) {
    std::fprintf(stderr, "distance backend = %s, threads = %zu\n",
                 DistanceBackendName(options->backend),
                 ResolveThreadCount(options->num_threads));
    Result<double> bound = CorrelationInstance::DisagreementBound(
        *input, options->missing, options->num_threads);
    if (!bound.ok()) return Fail(bound.status());
    std::fprintf(stderr, "lower bound on D = %.1f\n", *bound);
    const auto sizes = result->clustering.ClusterSizes();
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      std::fprintf(stderr, "  cluster %zu: %zu objects\n", c, sizes[c]);
    }
  }
  stats.Dump();
  if (Status s = WriteLabels(flags, result->clustering); !s.ok()) {
    return Fail(s);
  }
  return 0;
}

/// `query --local` (see its kModes intro): serve membership queries
/// from the sublinear local CC-PIVOT oracle (docs/local_queries.md)
/// without running a full aggregation.
int CmdQuery(const Flags& flags) {
  if (!flags.Has("local")) {
    return Fail(Status::InvalidArgument(
        "query serves local membership lookups; pass --local "
        "(see 'clustagg help')"));
  }
  if (flags.Has("of") + flags.Has("pair") + flags.Has("all") != 1) {
    return Fail(Status::InvalidArgument(
        "query expects exactly one of --of U, --pair U,V, --all"));
  }

  Result<ClusteringSet> input = ReadInputSet(flags);
  if (!input.ok()) return Fail(input.status());

  LocalOracleOptions options;
  options.seed = flags.Int("seed", 1);
  options.join_threshold = flags.Number("threshold", 0.5);
  const Result<MissingValueOptions> missing = ParseMissingFlags(flags);
  if (!missing.ok()) return Fail(missing.status());

  // Backend: lazy is the natural serving substrate (O(n*m) memory, no
  // quadratic build before the first answer) and the only one that
  // composes with --fold; dense is offered for A/B checks since both
  // return bit-identical distances.
  const DistanceBackend backend =
      flags.Choice("backend", DistanceBackend::kLazy);
  Result<LocalMembershipOracle> oracle = [&]() -> Result<LocalMembershipOracle> {
    if (backend == DistanceBackend::kDense) {
      if (flags.Has("fold")) {
        return Status::InvalidArgument(
            "--fold simulates over the lazy signature subset; drop "
            "--backend dense");
      }
      Result<std::shared_ptr<const DenseDistanceSource>> source =
          DenseDistanceSource::Build(*input, *missing);
      if (!source.ok()) return source.status();
      return LocalMembershipOracle::Create(*std::move(source), options);
    }
    if (flags.Has("fold")) {
      return LocalMembershipOracle::FromClusteringsFolded(*input, *missing,
                                                          options);
    }
    return LocalMembershipOracle::FromClusterings(*input, *missing, options);
  }();
  if (!oracle.ok()) return Fail(oracle.status());

  StatsSink stats(flags);
  const RunContext run =
      stats.Attach(WithinDeadline(flags.Int("deadline-ms", 0)));

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

  if (flags.Has("of")) {
    const std::size_t u = flags.Int("of", 0);
    Result<MembershipAnswer> answer = oracle->ClusterOf(u, run);
    if (!answer.ok()) return Fail(answer.status());
    // stdout carries just the canonical cluster id (the owning pivot's
    // object id); everything descriptive goes to stderr.
    std::fprintf(stdout, "%zu\n", answer->pivot);
    std::fprintf(stderr,
                 "object %zu -> pivot %zu (outcome = %s, "
                 "%llu pivot inspections, chain depth %llu, "
                 "%llu distance queries)\n",
                 u, answer->pivot, RunOutcomeName(answer->outcome),
                 static_cast<unsigned long long>(answer->pivot_inspections),
                 static_cast<unsigned long long>(answer->chain_depth),
                 static_cast<unsigned long long>(answer->distance_queries));
  } else if (flags.Has("pair")) {
    const std::string pair = flags.Get("pair");
    const std::size_t comma = pair.find(',');
    if (comma == std::string::npos) {
      return Fail(Status::InvalidArgument(
          "--pair expects two comma-separated object ids, e.g. "
          "--pair 3,17"));
    }
    Result<std::uint64_t> u = ParseUnsigned(pair.substr(0, comma));
    Result<std::uint64_t> v = ParseUnsigned(pair.substr(comma + 1));
    if (!u.ok() || !v.ok()) {
      return Fail(Status::InvalidArgument(
          "--pair: " + std::string((u.ok() ? v : u).status().message())));
    }
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
    if (Status s = WriteLabels(flags, *labels); !s.ok()) return Fail(s);
  }
  stats.Dump();
  return 0;
}

int CmdEval(const Flags& flags) {
  if (flags.positional.size() != 2) {
    return Fail(Status::InvalidArgument(
        "usage: clustagg eval <truth.labels> <candidate.labels>"));
  }
  Result<Clustering> a = ReadClusteringFile(flags.positional[0]);
  if (!a.ok()) return Fail(a.status());
  Result<Clustering> b = ReadClusteringFile(flags.positional[1]);
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

int CmdGen(const Flags& flags) {
  if (flags.positional.size() != 1) {
    return Fail(Status::InvalidArgument(
        "usage: clustagg gen <votes|mushrooms|census|gaussian> "
        "[--seed N] [--rows N] [--out file]"));
  }
  const std::string kind = flags.positional[0];
  const std::uint64_t seed = flags.Int("seed", 1);
  const std::string out = flags.Get("out", kind + ".csv");
  // The mode mask admits --rows and --clusters for every dataset; only
  // census and gaussian have a size, and only gaussian has components.
  if (flags.Has("rows") && (kind == "votes" || kind == "mushrooms")) {
    return Fail(Status::InvalidArgument(
        "--rows does not apply to gen " + kind + " (its size is fixed)"));
  }
  if (flags.Has("clusters") && kind != "gaussian") {
    return Fail(Status::InvalidArgument(
        "--clusters applies only to gen gaussian"));
  }

  Result<SyntheticCategoricalData> data = [&]() {
    if (kind == "votes") return MakeVotesLike(seed);
    if (kind == "mushrooms") return MakeMushroomsLike(seed);
    if (kind == "census") {
      return MakeCensusLike(seed, flags.Int("rows", 32561));
    }
    return Result<SyntheticCategoricalData>(Status::InvalidArgument(
        "unknown dataset '" + kind +
        "' (expected votes, mushrooms, census, gaussian)"));
  }();
  if (kind == "gaussian") {
    GaussianMixtureOptions gen;
    gen.num_clusters = flags.Int("clusters", 5);
    gen.points_per_cluster = flags.Int("rows", 500) / gen.num_clusters;
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
    dataset.column_names.push_back("a" + std::to_string(a));
  }
  for (std::size_t c = 0; c < dataset.table.num_classes(); ++c) {
    dataset.class_names.push_back("class" + std::to_string(c));
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

constexpr ModeSpec kModes[] = {
    {kAggregate, "aggregate", CmdAggregate, "aggregate [FILE...] [flags]",
     "Aggregate label files (one clustering per file, labels "
     "whitespace-separated, '?' = missing) or the attribute clusterings "
     "of a categorical CSV into one clustering, written to --out or "
     "stdout; the summary goes to stderr."},
    {kStream, "aggregate --stream/--recover", CmdStream,
     "aggregate (--stream FILE | --recover --journal PATH) [flags]",
     "Replay an event log through the incremental StreamAggregator. "
     "Clusterings and objects get stable 0-based ids in arrival order. "
     "Each 'flush' closes a batch: its events apply to the label "
     "columns, then the solution is repaired in place (LOCALSEARCH from "
     "the previous labels) or rebuilt with --algorithm once drift "
     "exceeds --rebuild-threshold. Batch progress goes to stderr, the "
     "final labels to --out or stdout. --recover loads the newest valid "
     "snapshot and replays the journal suffix, truncating a torn final "
     "frame; damage anywhere else exits 8, never partial state. "
     "SIGINT/SIGTERM flush the pending batch, sync and close the "
     "journal and exit 9."},
    {kQuery, "query", CmdQuery,
     "query --local (--of U | --pair U,V | --all) [FILE...] [flags]",
     "Answer cluster-membership questions by lazily simulating the "
     "single CC-PIVOT run pinned by --seed and --threshold "
     "(docs/local_queries.md). Every answer is bit-identical to "
     "'aggregate --algorithm pivot --pivot-repetitions 1' under the "
     "same seed and inputs. Inputs are read like aggregate's."},
    {kEval, "eval", CmdEval, "eval TRUTH.labels CANDIDATE.labels",
     "Rand index, adjusted Rand index, NMI and disagreement distance."},
    {kGen, "gen", CmdGen, "gen votes|mushrooms|census|gaussian [flags]",
     "Write one of the paper's synthetic datasets as CSV."},
};
static_assert(kModes[1].mode == kStream);

/// Prints `text` word-wrapped to 79 columns, continuing a line already
/// `column` wide and indenting every further line by `indent`.
void PrintWrapped(std::string_view text, std::size_t indent,
                  std::size_t column) {
  while (!text.empty()) {
    const std::string_view word = text.substr(0, text.find(' '));
    text.remove_prefix(std::min(text.size(), word.size() + 1));
    if (column > indent && column + 1 + word.size() > 79) {
      std::printf("\n%*s", static_cast<int>(indent), "");
      column = indent;
    } else if (column > indent) {
      std::putchar(' ');
      ++column;
    }
    std::fwrite(word.data(), 1, word.size(), stdout);
    column += word.size();
  }
  std::putchar('\n');
}

/// `help`: every mode's usage and intro, then its rows of kFlags.
int CmdHelp() {
  std::puts("clustagg — clustering aggregation (Gionis, Mannila, Tsaparas; "
            "ICDE 2005)\n\nFlags take --name VALUE or --name=VALUE; a flag "
            "a mode does not use is an error.");
  for (const ModeSpec& mode : kModes) {
    std::printf("\n%s\n      ", mode.usage);
    PrintWrapped(mode.intro, 6, 6);
    for (const FlagSpec& flag : kFlags) {
      if ((flag.modes & mode.mode) == 0) continue;
      std::string label = std::string("--") + flag.name;
      if (flag.bare != nullptr) {
        label += std::string("[=") + flag.value + "]";
      } else if (flag.kind != kBool) {
        label += std::string(" ") + flag.value;
      }
      if (label.size() > 26) {
        std::printf("  %s\n%30s", label.c_str(), "");
      } else {
        std::printf("  %-26s  ", label.c_str());
      }
      PrintWrapped(flag.help, 30, 30);
    }
  }
  std::puts(
      "\nexit codes (diagnostics always go to stderr):\n"
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
      "     replay: pending batch flushed, journal synced and closed)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "help" : argv[1];
  if (command == "help" || command == "--help") return CmdHelp();
  const ModeSpec* mode = nullptr;
  for (const ModeSpec& spec : kModes) {
    if (command == spec.name) mode = &spec;
  }
  if (mode == nullptr) {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    CmdHelp();
    return ExitCodeForStatus(StatusCode::kInvalidArgument);
  }
  Result<Flags> flags = ParseFlags(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  if (mode->mode == kAggregate &&
      (flags->Has("stream") || flags->Has("recover") ||
       flags->Has("journal"))) {
    mode = &kModes[1];
  }
  if (Status s = CheckMode(*flags, *mode); !s.ok()) return Fail(s);
  return mode->run(*flags);
}
