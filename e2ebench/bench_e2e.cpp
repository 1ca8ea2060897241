// bench_e2e: the repository's end-to-end benchmark.
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--trace FILE]
//             [--dir DIR] [--smoke]
//       Generates the workload's inputs from the seed, measures it for T
//       seconds through the public API, checks the outputs, prints every
//       metric with its unit to stderr, and prints the result as one JSON
//       line on stdout: {"correct", "attempted", "failed", "metrics"}.
//       Untraced runs report the end-to-end metrics; --trace runs the
//       workload with bench-side spans around each layer's calls, writes
//       the span tree to FILE, and reports the per-layer metrics.
//   bench_e2e --workload NAME --seed S --kernel-probe
//       Times the distance kernels on the workload's input under the
//       active kernel tier (CLUSTAGG_KERNEL) and prints one JSON line.
//   bench_e2e --host
//       Prints the host stamp that decides whether two runs compare.
//
// run.py builds this program and is the entry point BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/internal/packed_labels.h"
#include "harness.h"

namespace e2e {
namespace {

using namespace clustagg;

struct Workload {
  const char* name;
  void (*run)(Context&);
  ClusteringSet (*input)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"mushrooms-table3", RunMushroomsTable3, MushroomsInput},
    {"fig5-sampling-1m", RunFig5Sampling, Fig5Input},
    {"planted-shard-100k", RunPlantedShard, ShardInput},
    {"stream-churn", RunStreamChurn, StreamInput},
    {"local-queries", RunLocalQueries, LocalInput},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME --seed S [--seconds T] "
               "[--trace FILE] [--dir DIR] [--smoke] [--kernel-probe]\n"
               "       bench_e2e --host\n"
               "workloads:",
               message);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Everything that decides whether two runs' numbers compare: the
/// repository benches' host record (hardware, compiler, build, kernel
/// tier), plus the CPUs this process may use, the threads the benchmark
/// uses, and whether telemetry is compiled in.
int PrintHost() {
#if defined(CLUSTAGG_TELEMETRY_ENABLED)
  const std::size_t telemetry = 1;
#else
  const std::size_t telemetry = 0;
#endif
  bench::JsonObject host = bench::HostJson();
  host.Set("affinity_cpus", AffinityCpus());
  host.Set("threads_used", ThreadsUsed());
  host.Set("telemetry", telemetry);
  std::printf("%s\n", host.ToString().c_str());
  return 0;
}

/// Nanoseconds per pair of `per_round` pairs, repeating `round` until at
/// least 0.5 s has been measured.
template <typename Round>
double NanosPerPair(std::size_t per_round, Round round) {
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    round();
    ++rounds;
  } while (SecondsSince(start) < 0.5);
  return 1e9 * SecondsSince(start) /
         static_cast<double>(rounds * per_round);
}

/// Lazy point queries over a fixed buffer of 64K random pairs, bulk
/// FillRow and AgreementRow (over the fold-space source, as the shard
/// scan uses it), all on the workload's input.
int KernelProbe(const Workload& workload, const Args& args) {
  const ClusteringSet input = workload.input(args);
  const std::size_t n = input.num_objects();
  Result<std::shared_ptr<const LazyDistanceSource>> lazy =
      LazyDistanceSource::Build(input);
  CLUSTAGG_CHECK_OK(lazy.status());
  Rng rng(args.seed);
  std::vector<std::pair<std::size_t, std::size_t>> pairs(1 << 16);
  for (auto& [u, v] : pairs) {
    u = rng.NextBounded(n);
    v = rng.NextBounded(n);
  }
  double sink = 0.0;
  const double query_ns = NanosPerPair(pairs.size(), [&] {
    for (const auto& [u, v] : pairs) sink += (*lazy)->distance(u, v);
  });
  std::vector<double> row(n);
  std::size_t next_row = 0;
  const double fill_ns = NanosPerPair(n, [&] {
    (*lazy)->FillRow(pairs[next_row++ % pairs.size()].first, row);
    sink += row[n / 2];
  });
  const SignatureIndex fold = SignatureIndex::Build(input);
  Result<std::shared_ptr<const LazyDistanceSource>> folded =
      LazyDistanceSource::BuildSubset(input, fold.representatives());
  CLUSTAGG_CHECK_OK(folded.status());
  const std::size_t s = fold.num_signatures();
  std::vector<char> agree(s);
  const double agree_ns = NanosPerPair(s, [&] {
    (*folded)->AgreementRow(rng.NextBounded(s), agree);
    sink += agree[s / 2];
  });
  std::printf(
      "{\"tier\": \"%s\", \"packed\": %d, \"lazy_query_ns\": %.17g, "
      "\"fill_row_ns\": %.17g, \"agreement_row_ns\": %.17g, "
      "\"checksum\": %.17g}\n",
      internal::PackedKernelTierName(internal::ActivePackedKernelTier()),
      (*lazy)->uses_packed_labels() ? 1 : 0, query_ns, fill_ns, agree_ns,
      sink);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  bool probe = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--host") return PrintHost();
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--kernel-probe") {
      probe = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace_path = argv[++i];
    } else if (flag == "--dir" && has_value) {
      args.dir = argv[++i];
    } else {
      return Usage(("bad argument " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (!(args.seconds >= 0.0)) return Usage("--seconds must be >= 0");
  args.threads = ThreadsUsed();
  if (probe) return KernelProbe(*workload, args);

  std::fprintf(stderr, "%s seed=%llu seconds=%g threads=%zu%s%s\n",
               workload->name, static_cast<unsigned long long>(args.seed),
               args.seconds, args.threads, args.smoke ? " smoke" : "",
               args.traced() ? " traced" : "");
  Metrics metrics;
  Checks checks;
  Tracer tracer;
  Context ctx{args, metrics, checks, args.traced() ? &tracer : nullptr};
  workload->run(ctx);

  std::string rendered;
  if (args.traced()) {
    checks.Expect(tracer.Write(args.trace_path),
                  "could not write the trace to " + args.trace_path);
    rendered = metrics.Report(PerLayerMetrics(), /*zero_default=*/true);
  } else {
    metrics.Set("peak_rss_mb", PeakRssMb());
    rendered = metrics.Report(EndToEndMetrics(), /*zero_default=*/false);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      checks.correct() ? "true" : "false",
      static_cast<unsigned long long>(checks.attempted()),
      static_cast<unsigned long long>(checks.failed()), rendered.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
