// mushrooms-table3: the paper's Table 3. The five aggregation rows run
// through Aggregate on the dense backend over the Mushrooms-like table,
// whose 2480 missing cells keep the quadratic build on the missing-value
// (non-packed) kernel. One op is one full pass over the five rows.

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace e2e {

using namespace clustagg;

namespace {

struct Row {
  AggregationAlgorithm algorithm;
  const char* name;
};

constexpr Row kRows[] = {
    {AggregationAlgorithm::kBestClustering, "best"},
    {AggregationAlgorithm::kAgglomerative, "agglomerative"},
    {AggregationAlgorithm::kFurthest, "furthest"},
    {AggregationAlgorithm::kBalls, "balls"},
    {AggregationAlgorithm::kLocalSearch, "localsearch"},
};

AggregatorOptions RowOptions(AggregationAlgorithm algorithm,
                             std::size_t threads) {
  AggregatorOptions options;
  options.algorithm = algorithm;
  options.balls.alpha = 0.4;  // the practical alpha of Tables 2 and 3
  options.backend = DistanceBackend::kDense;
  options.num_threads = threads;
  return options;
}

struct RowResult {
  Clustering labels;
  double disagreements = -1.0;

  friend bool operator==(const RowResult&, const RowResult&) = default;
};
using Pass = std::vector<RowResult>;

/// One op as a user runs it: every row through the Aggregate facade.
Pass AggregatePass(Context& ctx, const ClusteringSet& input) {
  Pass pass;
  for (const Row& row : kRows) {
    Result<AggregationResult> result =
        Aggregate(input, RowOptions(row.algorithm, ctx.args.threads));
    const bool ok = result.ok() && result->outcome == RunOutcome::kConverged;
    ctx.checks.Op(ok, std::string("Aggregate ") + row.name);
    pass.push_back(ok ? RowResult{std::move(result->clustering),
                                  result->total_disagreements}
                      : RowResult{});
  }
  return pass;
}

/// The same pass decomposed into the layer calls Aggregate makes (build
/// -> cluster -> score; BESTCLUSTERING scores its own winner), each
/// under a span, so self times split the pass by layer.
Pass TracedPass(Context& ctx, const ClusteringSet& input) {
  Span pass_span(ctx.tracer, "pass");
  Pass pass;
  for (const Row& row : kRows) {
    const std::string cluster_span = std::string("cluster.") + row.name;
    if (row.algorithm == AggregationAlgorithm::kBestClustering) {
      Result<BestClusteringResult> best = [&] {
        Span span(ctx.tracer, cluster_span);
        return BestClustering(input, {}, RunContext());
      }();
      const bool ok = best.ok() && best->outcome == RunOutcome::kConverged;
      ctx.checks.Op(ok, "BestClustering");
      pass.push_back(ok ? RowResult{std::move(best->clustering),
                                    best->total_disagreements}
                        : RowResult{});
      continue;
    }
    const AggregatorOptions options =
        RowOptions(row.algorithm, ctx.args.threads);
    Result<CorrelationInstance> instance = [&] {
      Span span(ctx.tracer, "build");
      return CorrelationInstance::Build(
          input, options.missing,
          DistanceSourceOptions{options.backend, options.num_threads, {}});
    }();
    Result<std::unique_ptr<CorrelationClusterer>> clusterer =
        MakeClusterer(options);
    if (!instance.ok() || !clusterer.ok()) {
      ctx.checks.Op(false, std::string("build/make ") + row.name);
      pass.push_back({});
      continue;
    }
    Result<ClustererRun> run = [&] {
      Span span(ctx.tracer, cluster_span);
      return (*clusterer)->RunControlled(*instance, RunContext());
    }();
    if (!run.ok() || run->outcome != RunOutcome::kConverged) {
      ctx.checks.Op(false, std::string("cluster ") + row.name);
      pass.push_back({});
      continue;
    }
    Result<double> disagreements = [&] {
      Span span(ctx.tracer, "score");
      return input.TotalDisagreements(run->clustering, options.missing);
    }();
    ctx.checks.Op(disagreements.ok(), std::string("score ") + row.name);
    pass.push_back(disagreements.ok()
                       ? RowResult{std::move(run->clustering), *disagreements}
                       : RowResult{});
  }
  return pass;
}

/// Dense build time at a given thread count (the scaling slope).
double BuildSeconds(Context& ctx, const ClusteringSet& input,
                    std::size_t threads, const char* span_name) {
  Span span(ctx.tracer, span_name);
  const auto start = Clock::now();
  Result<CorrelationInstance> instance = CorrelationInstance::Build(
      input, {}, DistanceSourceOptions{DistanceBackend::kDense, threads, {}});
  ctx.checks.Op(instance.ok(), span_name);
  return SecondsSince(start);
}

}  // namespace

ClusteringSet MushroomsInput(const Args& args) {
  Result<SyntheticCategoricalData> data = MakeMushroomsLike(args.seed);
  CLUSTAGG_CHECK_OK(data.status());
  Result<ClusteringSet> input = AttributeClusterings(data->table);
  CLUSTAGG_CHECK_OK(input.status());
  if (!args.smoke) return std::move(input).value();
  std::vector<std::size_t> rows(input->num_objects() / 20);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return Restricted(*input, rows);
}

void RunMushroomsTable3(Context& ctx) {
  const ClusteringSet input =
      TimedSetup(ctx, [&] { return MushroomsInput(ctx.args); });

  std::vector<Pass> passes;
  std::vector<double> pass_s;
  // Traced runs: the untraced pass is the decomposition's bit-identity
  // oracle.
  const Pass reference =
      ctx.tracer != nullptr ? AggregatePass(ctx, input) : Pass();
  const auto loop_start = Clock::now();
  while (KeepGoing(ctx, loop_start, passes.size())) {
    const auto start = Clock::now();
    passes.push_back(ctx.tracer != nullptr ? TracedPass(ctx, input)
                                           : AggregatePass(ctx, input));
    pass_s.push_back(SecondsSince(start));
  }
  const auto loop_end = Clock::now();
  const double loop_s =
      std::chrono::duration<double>(loop_end - loop_start).count();

  for (std::size_t i = 1; i < passes.size(); ++i) {
    ctx.checks.Expect(passes[i] == passes[0],
                      "pass " + std::to_string(i) +
                          " labels/E_D differ from pass 0");
  }
  const double lower_bound =
      FoldedLowerBound(input, DistanceBackend::kDense, ctx.args.threads);
  double total = 0.0;
  for (std::size_t r = 0; r < passes[0].size(); ++r) {
    const double ed = passes[0][r].disagreements;
    ctx.checks.Expect(ed >= lower_bound, std::string(kRows[r].name) +
                                             ": E_D below the lower bound");
    total += ed;
  }

  if (ctx.tracer == nullptr) {
    SetLatencyMetrics(ctx, pass_s, static_cast<double>(passes.size()) / loop_s);
    ctx.metrics.Set("cost_ratio",
                    total / (static_cast<double>(passes[0].size()) *
                             lower_bound));
    return;
  }

  ctx.checks.Expect(passes[0] == reference,
                    "traced decomposition differs from Aggregate");
  SetTraceMetrics(ctx, loop_start, loop_end, pass_s.size(), Median(pass_s),
                  UntracedSeconds(ctx, [&] { AggregatePass(ctx, input); }));
  const auto layers = ctx.tracer->Layers();
  ctx.metrics.Set("core.build_s", SpanMedian(layers, "build"));
  for (const Row& row : kRows) {
    ctx.metrics.Set(std::string("core.cluster_s.") + row.name,
                    SpanMedian(layers, std::string("cluster.") + row.name));
  }
  ctx.metrics.Set("core.score_s", SpanMedian(layers, "score"));
  ctx.metrics.Set("core.build_s_1t", BuildSeconds(ctx, input, 1, "build.1t"));
  ctx.metrics.Set("core.build_s_2t", BuildSeconds(ctx, input, 2, "build.2t"));
}

}  // namespace e2e
