#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace e2e {

using namespace clustagg;

std::size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<std::size_t>(count) : 1;
}

std::size_t ThreadsUsed() { return std::min<std::size_t>(4, AffinityCpus()); }

std::vector<int> AffinityCpuList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: never pin
  return cpus;
}

PinnedToCpu::PinnedToCpu(int cpu) {
  if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  restore_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedToCpu::~PinnedToCpu() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0) return *lo_it;
  const double hi = *std::min_element(lo_it + 1, values.end());
  return *lo_it + frac * (hi - *lo_it);
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"cost_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.build_s", "s"},
      {"core.build_s_1t", "s"},
      {"core.build_s_2t", "s"},
      {"core.cluster_s.best", "s"},
      {"core.cluster_s.agglomerative", "s"},
      {"core.cluster_s.furthest", "s"},
      {"core.cluster_s.balls", "s"},
      {"core.cluster_s.localsearch", "s"},
      {"core.score_s", "s"},
      {"core.fold_s", "s"},
      {"core.fold_ratio", "ratio"},
      {"sampling.sample_s", "s"},
      {"sampling.assign_s", "s"},
      {"sampling.recluster_s", "s"},
      {"sampling.singleton_share", "ratio"},
      {"shard.decompose_s", "s"},
      {"shard.solve_sum_s", "s"},
      {"shard.solve_max_s", "s"},
      {"shard.imbalance", "ratio"},
      {"shard.count", "count"},
      {"shard.components", "count"},
      {"stream.ingest_s", "s"},
      {"stream.flush_repair_ms", "ms"},
      {"stream.flush_rebuild_ms", "ms"},
      {"stream.flush_p90_ms", "ms"},
      {"stream.pairs_touched", "count"},
      {"stream.rebuilds", "count"},
      {"stream.evictions", "count"},
      {"durability.overhead_s", "s"},
      {"durability.journal_bytes", "B"},
      {"durability.snapshot_bytes", "B"},
      {"durability.replayed_records", "count"},
      {"durability.recovery_s", "s"},
      {"local.create_s", "s"},
      {"local.distance_queries_per_query", "count"},
      {"local.chain_depth_p99", "count"},
      {"local.memo_hit_ratio", "ratio"},
      {"local.query_p99_us", "us"},
      {"local.qps_1client", "1/s"},
      {"local.client_scaling", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.self_time_share", "ratio"},
      {"trace.ops", "count"},
  };
  return specs;
}

namespace {

std::string FormatNumber(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  CLUSTAGG_CHECK(ec == std::errc());
  return std::string(buf, end);
}

}  // namespace

void Metrics::Set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

std::string Metrics::Report(const std::vector<MetricSpec>& specs,
                            bool zero_default) const {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values_.find(specs[i].name);
    if (it == values_.end() && !zero_default) {
      std::fprintf(stderr, "metric %s was never measured\n", specs[i].name);
      std::abort();
    }
    const double value = it == values_.end() ? 0.0 : it->second;
    std::fprintf(stderr, "  %-36s %14.6g %s\n", specs[i].name, value,
                 specs[i].unit);
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           FormatNumber(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Checks::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "op failed: %s\n", what.c_str());
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  const std::vector<clustagg::Span> spans = telemetry_.Spans();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const clustagg::Span& span : spans) {
    if (span.parent != clustagg::Span::kNoParent) {
      child_s[span.parent] += 1e-9 * static_cast<double>(span.end_nanos -
                                                         span.start_nanos);
    }
  }
  std::map<std::string, Layer> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration =
        1e-9 * static_cast<double>(spans[i].end_nanos - spans[i].start_nanos);
    Layer& layer = layers[spans[i].name];
    layer.self_s += duration - child_s[i];
    layer.total_s += duration;
    ++layer.count;
    layer.durations_s.push_back(duration);
  }
  return layers;
}

double Tracer::SelfTimeIn(Clock::time_point start,
                          Clock::time_point end) const {
  const auto nanos = [](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  };
  double sum = 0.0;
  for (const clustagg::Span& span : telemetry_.Spans()) {
    if (span.parent == clustagg::Span::kNoParent &&
        span.start_nanos >= nanos(start) && span.end_nanos <= nanos(end)) {
      sum += 1e-9 * static_cast<double>(span.end_nanos - span.start_nanos);
    }
  }
  return sum;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  out << telemetry_.ToJson() << "\n";
  std::fprintf(stderr, "  %-28s %8s %12s %12s\n", "span", "count", "self_s",
               "total_s");
  for (const auto& [name, layer] : Layers()) {
    std::fprintf(stderr, "  %-28s %8zu %12.6f %12.6f\n", name.c_str(),
                 layer.count, layer.self_s, layer.total_s);
  }
  return static_cast<bool>(out);
}

void SetLatencyMetrics(Context& ctx, const std::vector<double>& latencies_s,
                       double throughput_per_s) {
  ctx.metrics.Set("latency_p50_ms", 1e3 * Median(latencies_s));
  ctx.metrics.Set("throughput_per_s", throughput_per_s);
}

double SpanMedian(const std::map<std::string, Tracer::Layer>& layers,
                  const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : Median(it->second.durations_s);
}

void SetTraceMetrics(Context& ctx, Clock::time_point loop_start,
                     Clock::time_point loop_end, std::size_t ops,
                     double traced_op_s, double untraced_op_s) {
  const double wall_s =
      std::chrono::duration<double>(loop_end - loop_start).count();
  const double share = ctx.tracer->SelfTimeIn(loop_start, loop_end) / wall_s;
  ctx.checks.Expect(share >= 0.95 && share <= 1.0,
                    "span self times cover " + std::to_string(share) +
                        " of the traced wall time");
  ctx.metrics.Set("trace.ops", static_cast<double>(ops));
  ctx.metrics.Set("trace.self_time_share", share);
  ctx.metrics.Set("trace.overhead_ratio", traced_op_s / untraced_op_s);
}

ClusteringSet Restricted(const ClusteringSet& input,
                         const std::vector<std::size_t>& objects) {
  std::vector<Clustering> restricted;
  for (const Clustering& c : input.clusterings()) {
    restricted.push_back(c.Restrict(objects));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(restricted));
  CLUSTAGG_CHECK_OK(set.status());
  return std::move(set).value();
}

double FoldedLowerBound(const ClusteringSet& input, DistanceBackend backend,
                        std::size_t threads) {
  const SignatureIndex fold = SignatureIndex::Build(input);
  DistanceSourceOptions options;
  options.backend = backend;
  options.num_threads = threads;
  Result<CorrelationInstance> built = CorrelationInstance::BuildSubset(
      input, fold.representatives(), {}, options);
  CLUSTAGG_CHECK_OK(built.status());
  const CorrelationInstance folded = CorrelationInstance::FromSource(
      built->shared_source(), threads, fold.multiplicities());
  return folded.LowerBound() * input.total_weight();
}

}  // namespace e2e
