// planted-shard-100k: n = 10^5 objects in 32 label-disjoint planted
// groups, aggregated by AGGLOMERATIVE on the lazy backend with folding
// and shards=auto. The input has no missing labels, so the packed
// kernel runs the agreement scan of the decomposition; the parallel
// per-shard solves follow, and the slowest shard sets their time.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace e2e {

using namespace clustagg;

namespace {

constexpr std::size_t kGroups = 32;
/// Layer probes a traced run makes after its measured loop.
constexpr int kProbes = 3;

AggregatorOptions ShardedOptions(std::size_t threads) {
  AggregatorOptions options;
  options.algorithm = AggregationAlgorithm::kAgglomerative;
  options.backend = DistanceBackend::kLazy;
  options.fold = true;
  options.shard.mode = ShardingMode::kAuto;
  options.num_threads = threads;
  return options;
}

struct Solve {
  Clustering labels;
  double disagreements = -1.0;
  std::size_t shards = 0;
  std::size_t components = 0;
  double stitch_error_bound = -1.0;
};

/// One op: the sharded pipeline through the Aggregate facade.
Solve AggregateSolve(Context& ctx, const ClusteringSet& input) {
  Span span(ctx.tracer, "solve");
  Result<AggregationResult> result =
      Aggregate(input, ShardedOptions(ctx.args.threads));
  const bool ok = result.ok() && result->outcome == RunOutcome::kConverged;
  ctx.checks.Op(ok, "Aggregate shards=auto");
  if (!ok) return {};
  ctx.checks.Expect(result->sharded, "Aggregate did not shard");
  return {std::move(result->clustering), result->total_disagreements,
          result->shard_count, result->shard_components,
          result->stitch_error_bound};
}

/// What one layer probe measured.
struct Probe {
  std::size_t shards = 0;
  std::size_t components = 0;
  double solve_sum_s = 0.0;
  double solve_max_s = 0.0;
};

/// The layer calls of the sharded pipeline, one at a time: fold, the
/// lazy scan source plus DecomposeAgreementGraph, then each shard's
/// Aggregate on its restricted input with 1 thread (the share of the
/// timed run's outer split each shard gets), and the scoring of `labels`.
Probe ProbeLayers(Context& ctx, const ClusteringSet& input,
                  const Clustering& labels) {
  Span probe_span(ctx.tracer, "probe");
  const AggregatorOptions options = ShardedOptions(ctx.args.threads);
  const SignatureIndex fold = [&] {
    Span span(ctx.tracer, "fold");
    return SignatureIndex::Build(input);
  }();
  Result<ShardPlan> plan = [&]() -> Result<ShardPlan> {
    Span span(ctx.tracer, "decompose");
    Result<std::shared_ptr<const LazyDistanceSource>> scan =
        LazyDistanceSource::BuildSubset(input, fold.representatives());
    if (!scan.ok()) return scan.status();
    return DecomposeAgreementGraph(**scan, fold.multiplicities(),
                                   options.shard, options.num_threads);
  }();
  ctx.checks.Op(plan.ok(), "DecomposeAgreementGraph");
  if (!plan.ok()) return {};

  std::vector<std::vector<std::size_t>> shard_objects(plan->shards.size());
  for (std::size_t v = 0; v < input.num_objects(); ++v) {
    shard_objects[plan->shard_of[fold.signature_of(v)]].push_back(v);
  }
  AggregatorOptions shard_options = options;
  shard_options.shard.mode = ShardingMode::kOff;
  shard_options.num_threads = 1;
  Probe probe{shard_objects.size(), plan->num_components};
  for (const std::vector<std::size_t>& objects : shard_objects) {
    Span span(ctx.tracer, "shard_solve");
    const auto start = Clock::now();
    Result<AggregationResult> r =
        Aggregate(Restricted(input, objects), shard_options);
    const double seconds = SecondsSince(start);
    ctx.checks.Op(r.ok() && r->outcome == RunOutcome::kConverged,
                  "shard Aggregate");
    probe.solve_sum_s += seconds;
    probe.solve_max_s = std::max(probe.solve_max_s, seconds);
  }
  Span span(ctx.tracer, "score");
  ctx.checks.Op(input.TotalDisagreements(labels).ok(), "TotalDisagreements");
  return probe;
}

}  // namespace

/// The multi-component fixture: `kGroups` planted groups over disjoint
/// label pools (group g draws labels from [g*k, (g+1)*k)), so every
/// cross-group pair has X = 1 and the agreement graph splits into at
/// least kGroups components. Objects of a group cycle through 1024
/// signature templates; each template keeps the group's base label per
/// clustering with probability 0.8 and takes a random in-pool label
/// otherwise.
ClusteringSet ShardInput(const Args& args) {
  const std::size_t n = args.smoke ? 5000 : 100000;
  const std::size_t m = 9;
  const std::size_t templates_per_group = 1024;
  const std::size_t k = 8;
  const double noise = 0.2;
  Rng rng(args.seed);
  std::vector<std::vector<std::vector<Clustering::Label>>> templates(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g) {
    templates[g].resize(templates_per_group);
    for (std::vector<Clustering::Label>& t : templates[g]) {
      t.resize(m);
      for (Clustering::Label& label : t) {
        const std::size_t pool = g * k;
        label = static_cast<Clustering::Label>(
            rng.NextBernoulli(noise) ? pool + rng.NextBounded(k) : pool);
      }
    }
  }
  const std::size_t per_group = n / kGroups;
  std::vector<Clustering> clusterings;
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<Clustering::Label> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t g = std::min(v / per_group, kGroups - 1);
      labels[v] = templates[g][(v % per_group) % templates_per_group][i];
    }
    clusterings.emplace_back(std::move(labels));
  }
  Result<ClusteringSet> set = ClusteringSet::Create(std::move(clusterings));
  CLUSTAGG_CHECK_OK(set.status());
  return std::move(set).value();
}

void RunPlantedShard(Context& ctx) {
  const ClusteringSet input =
      TimedSetup(ctx, [&] { return ShardInput(ctx.args); });

  if (ctx.tracer != nullptr) {  // warm-up
    UntracedSeconds(ctx, [&] { AggregateSolve(ctx, input); });
  }
  // Only the first solve's labels are kept (later ones are compared and
  // dropped), so peak memory does not grow with the solves a run fits.
  Solve first;
  std::vector<double> solve_s;
  const auto loop_start = Clock::now();
  while (KeepGoing(ctx, loop_start, solve_s.size())) {
    const auto start = Clock::now();
    Solve solve = AggregateSolve(ctx, input);
    solve_s.push_back(SecondsSince(start));
    if (solve_s.size() == 1) {
      first = std::move(solve);
    } else {
      ctx.checks.Expect(solve.labels == first.labels &&
                            solve.disagreements == first.disagreements,
                        "a solve differs from the first one");
    }
  }
  const auto loop_end = Clock::now();
  const double loop_s =
      std::chrono::duration<double>(loop_end - loop_start).count();

  ctx.checks.Expect(first.stitch_error_bound == 0.0,
                    "stitch_error_bound is not 0");
  ctx.checks.Expect(first.components >= kGroups,
                    "fewer agreement components than planted groups");
  const double lower_bound =
      FoldedLowerBound(input, DistanceBackend::kLazy, ctx.args.threads);
  ctx.checks.Expect(first.disagreements >= lower_bound,
                    "E_D below the lower bound");

  if (ctx.tracer == nullptr) {
    SetLatencyMetrics(ctx, solve_s,
                      static_cast<double>(solve_s.size()) / loop_s);
    ctx.metrics.Set("cost_ratio", first.disagreements / lower_bound);
    return;
  }

  SetTraceMetrics(ctx, loop_start, loop_end, solve_s.size(), Median(solve_s),
                  UntracedSeconds(ctx, [&] { AggregateSolve(ctx, input); }));
  std::vector<double> sum_s, max_s;
  for (int i = 0; i < kProbes; ++i) {
    const Probe probe = ProbeLayers(ctx, input, first.labels);
    ctx.checks.Expect(probe.shards == first.shards &&
                          probe.components == first.components,
                      "probed shard plan differs from ShardedAggregate's");
    sum_s.push_back(probe.solve_sum_s);
    max_s.push_back(probe.solve_max_s);
  }
  const auto layers = ctx.tracer->Layers();
  const double mean_s = Median(sum_s) / static_cast<double>(first.shards);
  ctx.metrics.Set("core.fold_s", SpanMedian(layers, "fold"));
  ctx.metrics.Set("core.fold_ratio",
                  SignatureIndex::Build(input).fold_ratio());
  ctx.metrics.Set("core.score_s", SpanMedian(layers, "score"));
  ctx.metrics.Set("shard.decompose_s", SpanMedian(layers, "decompose"));
  ctx.metrics.Set("shard.solve_sum_s", Median(sum_s));
  ctx.metrics.Set("shard.solve_max_s", Median(max_s));
  ctx.metrics.Set("shard.imbalance", Median(max_s) / mean_s);
  ctx.metrics.Set("shard.count", static_cast<double>(first.shards));
  ctx.metrics.Set("shard.components", static_cast<double>(first.components));
}

}  // namespace e2e
