#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Shared plumbing of the end-to-end benchmark (bench_e2e.cpp):
// command-line options, the metric registry both run modes report
// against, correctness checks, latency statistics, and the bench-side
// span tracer whose self times give the per-layer numbers.
//
// Every workload drives the library only through its public API and
// records spans *around* those calls, from this directory's code; the
// library's own telemetry sink is never attached, so a traced run
// exercises exactly the code an untraced run does.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clustagg/clustagg.h"

namespace e2e {

/// Options of one bench_e2e invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; ops repeat until it has elapsed (at
  /// least one op always runs).
  double seconds = 10.0;
  /// Traced run: write the span tree here and report per-layer metrics
  /// instead of end-to-end ones. Empty = untraced.
  std::string trace_path;
  /// Directory for the files the stream workload writes.
  std::string dir = ".";
  /// Toy sizes (about n/20) and a single op, with every check still on.
  bool smoke = false;
  /// Worker and client threads: min(4, CPUs this process may run on).
  std::size_t threads = 1;

  bool traced() const { return !trace_path.empty(); }
};

/// min(4, CPUs in this process's affinity mask).
std::size_t ThreadsUsed();
/// CPUs in this process's affinity mask (cgroup/taskset aware, unlike
/// std::thread::hardware_concurrency).
std::size_t AffinityCpus();

/// Peak resident set size of this process, in MB (ru_maxrss).
double PeakRssMb();

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Percentile q in [0, 1] of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample. Takes a copy to reorder.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// One metric name with its unit, as BENCHMARK.json lists it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, and the per-layer
/// metrics every traced run reports (layers a workload does not exercise
/// read 0). The kernel-tier metrics are measured by run.py in separate
/// processes and merged there.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Metric values of one run, keyed by registry name.
class Metrics {
 public:
  void Set(std::string_view name, double value);
  /// Prints every metric of `specs` to stderr, one per line with its
  /// unit, and renders them as {"name": {"value": v, "unit": u}, ...}.
  /// Unset metrics read 0 when `zero_default`, and are a fatal bug
  /// otherwise (an end-to-end metric must always be measured).
  std::string Report(const std::vector<MetricSpec>& specs,
                     bool zero_default) const;

 private:
  std::map<std::string, double, std::less<>> values_;
};

/// Correctness verdict plus the op tally of the result line.
class Checks {
 public:
  /// Records one check; a failure is printed to stderr and makes the
  /// run incorrect.
  void Expect(bool ok, const std::string& what);
  /// Records one attempted op; `ok` false counts it as failed (non-OK
  /// status, or an outcome other than converged).
  void Op(bool ok, const std::string& what);
  void Ops(std::uint64_t attempted) { attempted_ += attempted; }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Bench-side span tracer. A null tracer (untraced run) makes every
/// span a no-op, so workload code is written once for both modes.
class Tracer {
 public:
  clustagg::Telemetry* sink() { return &telemetry_; }

  /// Per-name span statistics: self time is a span's duration minus the
  /// durations of its direct children.
  struct Layer {
    double self_s = 0.0;
    double total_s = 0.0;
    std::size_t count = 0;
    std::vector<double> durations_s;
  };
  std::map<std::string, Layer> Layers() const;
  /// Sum of the self times of every span inside [start, end] (= the
  /// total duration of the root spans there).
  double SelfTimeIn(Clock::time_point start, Clock::time_point end) const;

  /// Writes Telemetry::ToJson to `path` and a self-time table to stderr.
  bool Write(const std::string& path) const;

 private:
  clustagg::Telemetry telemetry_;
};

/// RAII span on an optional tracer.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name)
      : span_(tracer != nullptr ? tracer->sink() : nullptr, name) {}

 private:
  clustagg::ScopedSpan span_;
};

/// Everything a workload reads and writes.
struct Context {
  const Args& args;
  Metrics& metrics;
  Checks& checks;
  /// Null in untraced runs.
  Tracer* tracer;
};

/// Pins the calling thread to one CPU while it lives, then restores the
/// thread's previous affinity mask.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(int cpu);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool restore_ = false;
};

/// The CPUs in this process's affinity mask, ascending.
std::vector<int> AffinityCpuList();

/// Runs `setup` at least 3 times, and more while the set-ups total under
/// a second (up to 100). Set-up i runs pinned to CPU i of the affinity
/// mask, round robin. On a host shared with other tenants a single
/// thread can run 1.7x slower on one CPU than on another at the same
/// moment, and which CPUs are slow changes from minute to minute. So
/// setup_s is the median set-up time on the CPU where that median is
/// lowest. Returns the last set-up's product. A traced run sets up once.
template <typename SetupFn>
auto TimedSetup(Context& ctx, SetupFn setup) {
  const std::vector<int> cpus = AffinityCpuList();
  std::vector<std::vector<double>> times(cpus.size());
  double total_s = 0.0;
  const auto timed = [&](std::size_t i) {
    const PinnedToCpu pin(cpus[i % cpus.size()]);
    const auto start = Clock::now();
    auto made = setup();
    times[i % cpus.size()].push_back(SecondsSince(start));
    total_s += times[i % cpus.size()].back();
    return made;
  };
  auto product = timed(0);
  for (std::size_t i = 1; !ctx.args.traced() &&
                          (i < 3 || (total_s < 1.0 && i < 100));
       ++i) {
    auto next = timed(i);
    product = std::move(next);
  }
  if (!ctx.args.traced()) {
    double fastest = std::numeric_limits<double>::infinity();
    for (const std::vector<double>& on_cpu : times) {
      if (!on_cpu.empty()) fastest = std::min(fastest, Median(on_cpu));
    }
    ctx.metrics.Set("setup_s", fastest);
  }
  return product;
}

/// True while the measured phase should run another op.
inline bool KeepGoing(const Context& ctx, Clock::time_point start,
                      std::size_t ops_done) {
  if (ops_done == 0) return true;
  if (ctx.args.smoke) return false;
  return SecondsSince(start) < ctx.args.seconds;
}

/// Records the end-to-end latency and throughput every workload reports:
/// the median time of its unit op, and its work rate.
void SetLatencyMetrics(Context& ctx, const std::vector<double>& latencies_s,
                       double throughput_per_s);

/// Median duration of the spans called `name`; 0 when there are none
/// (the layer did not run).
double SpanMedian(const std::map<std::string, Tracer::Layer>& layers,
                  const std::string& name);

/// Wall time of `op` run with tracing off. A traced run runs one
/// untraced op before its traced loop (warm-up, and the reference its
/// cross-checks compare with) and times one after it.
template <typename Op>
double UntracedSeconds(Context& ctx, Op op) {
  Tracer* tracer = std::exchange(ctx.tracer, nullptr);
  const auto start = Clock::now();
  op();
  const double seconds = SecondsSince(start);
  ctx.tracer = tracer;
  return seconds;
}

/// Records the trace.* metrics of a traced measured loop that ran `ops`
/// ops from `loop_start` to `loop_end`: the ops, the share of its wall
/// time its root spans cover (checked to be at least 95%), and a traced
/// op's time against the same op timed untraced after the loop.
void SetTraceMetrics(Context& ctx, Clock::time_point loop_start,
                     Clock::time_point loop_end, std::size_t ops,
                     double traced_op_s, double untraced_op_s);

/// The inputs restricted to `objects`: object i of the result is
/// objects[i].
clustagg::ClusteringSet Restricted(const clustagg::ClusteringSet& input,
                                   const std::vector<std::size_t>& objects);

/// Lower bound of the aggregation objective (D units: per-pair bound
/// times the inputs' total weight) computed over the signature fold of
/// `input`, which is exact because duplicates have distance 0.
double FoldedLowerBound(const clustagg::ClusteringSet& input,
                        clustagg::DistanceBackend backend,
                        std::size_t threads);

/// The five workloads, and the input clustering set each generates from
/// its seed (what the kernel-tier probe measures on).
void RunMushroomsTable3(Context& ctx);
void RunFig5Sampling(Context& ctx);
void RunPlantedShard(Context& ctx);
void RunStreamChurn(Context& ctx);
void RunLocalQueries(Context& ctx);
clustagg::ClusteringSet MushroomsInput(const Args& args);
clustagg::ClusteringSet Fig5Input(const Args& args);
clustagg::ClusteringSet ShardInput(const Args& args);
clustagg::ClusteringSet StreamInput(const Args& args);
clustagg::ClusteringSet LocalInput(const Args& args);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
