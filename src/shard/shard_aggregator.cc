#include "shard/shard_aggregator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/run_context.h"
#include "core/clustering.h"
#include "core/distance_source.h"
#include "core/instrumentation.h"
#include "core/signature_index.h"
#include "shard/decompose.h"

namespace clustagg {

namespace {

Result<AggregationResult> RunUnsharded(const ClusteringSet& input,
                                       const AggregatorOptions& options) {
  AggregatorOptions plain = options;
  plain.shard.mode = ShardingMode::kOff;
  return Aggregate(input, plain);
}

}  // namespace

Result<AggregationResult> ShardedAggregate(const ClusteringSet& input,
                                           const AggregatorOptions& options) {
  const RunContext& run = options.run;
  Telemetry* telemetry = run.telemetry();
  const std::size_t n = input.num_objects();

  if (!ShardingRequested(options.shard) ||
      options.algorithm == AggregationAlgorithm::kBestClustering ||
      options.sampling_size > 0) {
    return RunUnsharded(input, options);
  }
  // kAuto pre-trigger in object space (folding only shrinks the node
  // count further, so n < min_objects decides without building anything).
  if (options.shard.mode == ShardingMode::kAuto &&
      n < options.shard.min_objects) {
    return RunUnsharded(input, options);
  }

  // Duplicate signatures have pairwise distance 0, so they always share a
  // component: decomposition runs over the s representatives and the
  // agreement scan drops from O(n^2 m) to O(s^2 m).
  std::optional<SignatureIndex> fold_index;
  if (options.fold) {
    InstrumentedSpan fold_span(telemetry, "fold_index");
    fold_index.emplace(SignatureIndex::Build(input));
  }
  const std::size_t nodes = fold_index ? fold_index->num_signatures() : n;
  if (options.shard.mode == ShardingMode::kAuto &&
      nodes < options.shard.min_objects) {
    return RunUnsharded(input, options);
  }

  // The scan always streams from a lazy source — one O(n m) column store
  // whatever backend the per-shard solves use — because both backends
  // answer bit-identically and the scan reads each row exactly once.
  Result<std::shared_ptr<const LazyDistanceSource>> scan =
      fold_index ? LazyDistanceSource::Build(
                       input.Restrict(fold_index->representatives()),
                       options.missing)
                 : LazyDistanceSource::Build(input, options.missing);
  if (!scan.ok()) return scan.status();
  static const std::vector<double> kUnitMultiplicities;
  const std::vector<double>& multiplicities =
      fold_index ? fold_index->multiplicities() : kUnitMultiplicities;

  Result<ShardPlan> plan = [&]() -> Result<ShardPlan> {
    InstrumentedSpan decompose_span(telemetry, "shard.decompose");
    return DecomposeAgreementGraph(**scan, multiplicities, options.shard,
                                   options.num_threads, run);
  }();
  if (!plan.ok()) {
    if (RunContext::IsInterrupt(plan.status()) && options.allow_fallbacks) {
      // The half-scanned graph is unusable; the unsharded pipeline picks
      // up whatever budget remains and degrades from there.
      TelemetryCount(telemetry, "shard.fallback.decompose_interrupted");
      Result<AggregationResult> rest = RunUnsharded(input, options);
      if (!rest.ok()) return rest;
      rest->fallbacks.insert(
          rest->fallbacks.begin(),
          "budget fired during the shard agreement scan; running unsharded");
      rest->outcome = MergeOutcomes(rest->outcome, RunOutcome::kFellBack);
      return rest;
    }
    return plan.status();
  }

  TelemetrySetGauge(telemetry, "shard.components",
                    static_cast<std::int64_t>(plan->num_components));
  TelemetrySetGauge(telemetry, "shard.count",
                    static_cast<std::int64_t>(plan->shards.size()));
  TelemetryCount(telemetry, "shard.cut_edges", plan->cut_edges);
  TelemetryCount(telemetry, "shard.split_components", plan->split_components);
  {
    std::vector<std::size_t> component_size(plan->num_components, 0);
    for (std::int32_t c : plan->component_of) {
      ++component_size[static_cast<std::size_t>(c)];
    }
    for (std::size_t size : component_size) {
      TelemetryObserve(telemetry, "shard.component_size", size);
    }
    for (const std::vector<std::size_t>& shard : plan->shards) {
      TelemetryObserve(telemetry, "shard.size", shard.size());
    }
  }

  // Shards in object space: without folding the plan's node lists are
  // already object lists; with folding every object follows its
  // signature's shard (ascending ids either way).
  std::vector<std::vector<std::size_t>> shard_objects;
  if (fold_index) {
    shard_objects.resize(plan->shards.size());
    for (std::size_t v = 0; v < n; ++v) {
      shard_objects[plan->shard_of[fold_index->signature_of(v)]].push_back(v);
    }
  } else {
    shard_objects = std::move(plan->shards);
  }
  const std::size_t shard_count = shard_objects.size();

  AggregationResult out;
  out.sharded = true;
  out.shard_count = shard_count;
  out.shard_components = plan->num_components;
  // The plan's bound is in normalized X units (a cut pair's excess is
  // 1 - 2 X_uv <= 1); total_disagreements counts weighted clustering
  // opinions, where the same pair's excess is scaled by the input's
  // total weight. Surface the bound in the result's units.
  out.stitch_error_bound = plan->stitch_error_bound * input.total_weight();
  if (fold_index) {
    out.fold_signatures = fold_index->num_signatures();
    out.folded = !fold_index->trivial();
  }

  // Solve every shard through the full Aggregate pipeline (per-shard
  // fold, backend fallback, refinement, EXACT tractability all compose
  // per shard). Outer parallelism goes across shards; each shard gets
  // the leftover threads for its own parallel phases.
  const std::size_t resolved = ResolveThreadCount(options.num_threads);
  const std::size_t outer = std::max<std::size_t>(
      1, std::min(shard_count, resolved));
  AggregatorOptions shard_options = options;
  shard_options.shard.mode = ShardingMode::kOff;
  shard_options.num_threads = std::max<std::size_t>(1, resolved / outer);
  // Telemetry spans are single-threaded by contract (Span begin/end must
  // come from one thread at a time), so parallel per-shard solves run
  // with the sink detached; the per-shard latency histogram below is
  // recorded from this thread after the join either way.
  shard_options.run =
      outer > 1 ? run.WithTelemetry(nullptr) : run;

  std::vector<std::optional<AggregationResult>> solved(shard_count);
  std::vector<std::optional<Status>> errors(shard_count);
  std::vector<std::uint64_t> solve_nanos(shard_count, 0);
  {
    InstrumentedSpan solve_span(telemetry, "shard.solve");
    ParallelForRows(
        shard_count, outer, run, [&](std::size_t s, std::size_t) {
          const std::uint64_t start =
              telemetry != nullptr ? telemetry->clock().NowNanos() : 0;
          std::optional<InstrumentedSpan> shard_span;
          std::string span_name;
          if (outer == 1 && telemetry != nullptr) {
            span_name = "shard." + std::to_string(s);
            shard_span.emplace(telemetry, span_name);
          }
          Result<AggregationResult> result =
              Aggregate(input.Restrict(shard_objects[s]), shard_options);
          if (!result.ok()) {
            errors[s] = result.status();
            return;
          }
          solved[s] = std::move(*result);
          if (telemetry != nullptr) {
            solve_nanos[s] = telemetry->clock().NowNanos() - start;
          }
        });
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (errors[s].has_value()) return *errors[s];
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (solve_nanos[s] != 0) {
      TelemetryObserve(telemetry, "shard.solve_nanos", solve_nanos[s]);
    }
  }

  // Shards the interrupted loop never started degrade to singletons —
  // the same honest best-so-far the unsharded build-interrupt path uses.
  bool any_unsolved = false;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (solved[s].has_value()) {
      out.outcome = MergeOutcomes(out.outcome, solved[s]->outcome);
      for (const std::string& note : solved[s]->fallbacks) {
        out.fallbacks.push_back("shard " + std::to_string(s) + "/" +
                                std::to_string(shard_count) + ": " + note);
      }
      continue;
    }
    any_unsolved = true;
    AggregationResult filler;
    filler.clustering = Clustering::AllSingletons(shard_objects[s].size());
    filler.outcome = run.InterruptOutcome();
    out.outcome = MergeOutcomes(out.outcome, filler.outcome);
    solved[s] = std::move(filler);
  }
  if (any_unsolved) {
    out.fallbacks.push_back(
        "budget fired before every shard was solved; unsolved shards "
        "return the all-singletons partition");
    TelemetryCount(telemetry, "shard.fallback.solve_interrupted");
  }

  InstrumentedSpan stitch_span(telemetry, "shard.stitch");
  if (shard_count == 1 && !any_unsolved) {
    // Single shard over the identity subset: the shard's pipeline was
    // the unsharded pipeline, label for label and score for score.
    out.clustering = std::move(solved[0]->clustering);
    out.total_disagreements = solved[0]->total_disagreements;
    return out;
  }
  std::vector<Clustering::Label> labels(n, Clustering::kMissing);
  Clustering::Label offset = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const Clustering& local = solved[s]->clustering;
    Clustering::Label local_max = -1;
    for (std::size_t i = 0; i < shard_objects[s].size(); ++i) {
      const Clustering::Label label = local.label(i);
      labels[shard_objects[s][i]] =
          static_cast<Clustering::Label>(offset + label);
      local_max = std::max(local_max, label);
    }
    offset += local_max + 1;
  }
  Clustering stitched{std::move(labels)};
  const std::size_t clusters = stitched.Normalize();
  out.clustering = std::move(stitched);

  InstrumentedSpan score_span(telemetry, "score");
  Result<double> disagreements =
      input.TotalDisagreements(out.clustering, options.missing);
  if (!disagreements.ok()) return disagreements.status();
  out.total_disagreements = *disagreements;
  TelemetrySetGauge(telemetry, "aggregate.clusters",
                    static_cast<std::int64_t>(clusters));
  return out;
}

}  // namespace clustagg
