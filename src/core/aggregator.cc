#include "core/aggregator.h"

#include <optional>
#include <string>
#include <utility>

#include "core/best_clustering.h"
#include "core/correlation_instance.h"
#include "core/instrumentation.h"
#include "core/signature_index.h"
#include "shard/shard_aggregator.h"

namespace clustagg {

const char* AggregationAlgorithmName(AggregationAlgorithm algorithm) {
  switch (algorithm) {
    case AggregationAlgorithm::kBestClustering:
      return "BESTCLUSTERING";
    case AggregationAlgorithm::kBalls:
      return "BALLS";
    case AggregationAlgorithm::kAgglomerative:
      return "AGGLOMERATIVE";
    case AggregationAlgorithm::kFurthest:
      return "FURTHEST";
    case AggregationAlgorithm::kLocalSearch:
      return "LOCALSEARCH";
    case AggregationAlgorithm::kPivot:
      return "CC-PIVOT";
    case AggregationAlgorithm::kAnnealing:
      return "ANNEALING";
    case AggregationAlgorithm::kMajority:
      return "MAJORITY";
    case AggregationAlgorithm::kExact:
      return "EXACT";
  }
  return "UNKNOWN";
}

Result<std::unique_ptr<CorrelationClusterer>> MakeClusterer(
    const AggregatorOptions& options) {
  switch (options.algorithm) {
    case AggregationAlgorithm::kBalls:
      return std::unique_ptr<CorrelationClusterer>(
          new BallsClusterer(options.balls));
    case AggregationAlgorithm::kAgglomerative:
      return std::unique_ptr<CorrelationClusterer>(
          new AgglomerativeClusterer(options.agglomerative));
    case AggregationAlgorithm::kFurthest:
      return std::unique_ptr<CorrelationClusterer>(
          new FurthestClusterer(options.furthest));
    case AggregationAlgorithm::kLocalSearch:
      return std::unique_ptr<CorrelationClusterer>(
          new LocalSearchClusterer(options.local_search));
    case AggregationAlgorithm::kPivot:
      return std::unique_ptr<CorrelationClusterer>(
          new PivotClusterer(options.pivot));
    case AggregationAlgorithm::kAnnealing:
      return std::unique_ptr<CorrelationClusterer>(
          new AnnealingClusterer(options.annealing));
    case AggregationAlgorithm::kMajority:
      return std::unique_ptr<CorrelationClusterer>(
          new MajorityClusterer(options.majority));
    case AggregationAlgorithm::kExact:
      return std::unique_ptr<CorrelationClusterer>(
          new ExactClusterer(options.exact));
    case AggregationAlgorithm::kBestClustering:
      return Status::InvalidArgument(
          "BESTCLUSTERING needs the original clusterings, not a "
          "correlation instance; call Aggregate or BestClustering directly");
  }
  return Status::InvalidArgument("unknown aggregation algorithm");
}

Result<AggregationResult> Aggregate(const ClusteringSet& input,
                                    const AggregatorOptions& options) {
  AggregationResult out;
  const RunContext& run = options.run;
  Telemetry* telemetry = run.telemetry();
  InstrumentedSpan aggregate_span(telemetry, "aggregate");
  TelemetrySetGauge(telemetry, "aggregate.num_objects",
                    static_cast<std::int64_t>(input.num_objects()));
  TelemetrySetGauge(telemetry, "aggregate.num_clusterings",
                    static_cast<std::int64_t>(input.num_clusterings()));

  if (options.algorithm == AggregationAlgorithm::kBestClustering) {
    InstrumentedSpan cluster_span(telemetry, "cluster");
    Result<BestClusteringResult> best =
        BestClustering(input, options.missing, run);
    if (!best.ok()) return best.status();
    out.clustering = std::move(best->clustering);
    out.total_disagreements = best->total_disagreements;
    out.outcome = best->outcome;
    return out;
  }

  // SAMPLING assigns the non-sampled objects to the sample's clusters
  // with no regard for their sizes, so it cannot honour a cap.
  if (options.sampling_size > 0 && options.max_cluster_size > 0 &&
      options.algorithm != AggregationAlgorithm::kExact) {
    return Status::InvalidArgument(
        "max_cluster_size cannot be combined with sampling_size: the "
        "SAMPLING assignment does not honour a cluster-size cap");
  }

  // Shard-and-conquer routing: the objective decomposes exactly across
  // agreement-graph components (docs/sharding.md), so requested sharding
  // hands the whole pipeline to src/shard/. Sampling keeps precedence —
  // it already avoids the O(n^2) instance sharding exists to split.
  if (ShardingRequested(options.shard) && options.sampling_size == 0) {
    return ShardedAggregate(input, options);
  }

  // Degradation 1: the exact solver beyond its tractable size would be a
  // hard ResourceExhausted; aggregation callers prefer a good answer over
  // none, so swap in BALLS polished by LOCALSEARCH (the paper's
  // recommended refinement) and record the substitution.
  AggregatorOptions effective = options;
  if (options.max_cluster_size > 0) {
    effective.local_search.max_cluster_size = options.max_cluster_size;
  }
  if (options.allow_fallbacks &&
      options.algorithm == AggregationAlgorithm::kExact &&
      input.num_objects() > options.exact.max_objects) {
    effective.algorithm = AggregationAlgorithm::kBalls;
    effective.refine_with_local_search = true;
    out.fallbacks.push_back(
        "EXACT is intractable at n=" + std::to_string(input.num_objects()) +
        " (max " + std::to_string(options.exact.max_objects) +
        "); fell back to BALLS + LOCALSEARCH refinement");
    out.outcome = MergeOutcomes(out.outcome, RunOutcome::kFellBack);
    TelemetryCount(telemetry, "aggregate.fallback.exact_to_balls");
  }

  Result<std::unique_ptr<CorrelationClusterer>> clusterer =
      MakeClusterer(effective);
  if (!clusterer.ok()) return clusterer.status();

  // Sampling eligibility is decided by the *requested* algorithm, not the
  // effective one: sampling_size is documented as ignored for kExact, and
  // that must stay true when the exact solver degrades to BALLS above
  // (the recorded fallback promises "BALLS + LOCALSEARCH refinement",
  // which the sampling path would not deliver).
  const bool use_sampling =
      effective.sampling_size > 0 &&
      options.algorithm != AggregationAlgorithm::kExact;
  Result<Clustering> clustering = [&]() -> Result<Clustering> {
    if (use_sampling) {
      InstrumentedSpan cluster_span(telemetry, "cluster");
      SamplingOptions sampling = effective.sampling;
      sampling.sample_size = effective.sampling_size;
      sampling.missing = effective.missing;
      sampling.source.backend = effective.backend;
      sampling.source.num_threads = effective.num_threads;
      sampling.fold = effective.fold;
      Result<ClustererRun> sampled = SamplingAggregateControlled(
          input, **clusterer, run, sampling);
      if (!sampled.ok()) return sampled.status();
      out.outcome = MergeOutcomes(out.outcome, sampled->outcome);
      return std::move(sampled->clustering);
    }

    // Duplicate-signature folding: when it shrinks the instance and
    // every group fits the cluster-size cap (a folded group is never
    // split), the whole pipeline below (build, cluster, refine) runs in
    // s-signature space and the labels are expanded to object space at
    // the end.
    std::optional<SignatureIndex> fold_index;
    if (effective.fold) {
      InstrumentedSpan fold_span(telemetry, "fold_index");
      SignatureIndex signatures =
          SignatureIndex::Build(input, effective.missing);
      out.fold_signatures = signatures.num_signatures();
      TelemetrySetGauge(
          telemetry, "aggregate.fold_signatures",
          static_cast<std::int64_t>(signatures.num_signatures()));
      if (!signatures.trivial() &&
          signatures.FitsClusterCap(options.max_cluster_size)) {
        out.folded = true;
        TelemetryCount(telemetry, "aggregate.folds");
        fold_index.emplace(std::move(signatures));
      }
    }

    DistanceSourceOptions source_options{effective.backend,
                                         effective.num_threads, run};
    Result<CorrelationInstance> built = [&]() -> Result<CorrelationInstance> {
      InstrumentedSpan build_span(telemetry, "build_instance");
      auto build = [&]() {
        return fold_index
                   ? CorrelationInstance::BuildFolded(input, *fold_index,
                                                      effective.missing,
                                                      source_options)
                   : CorrelationInstance::Build(input, effective.missing,
                                                source_options);
      };
      Result<CorrelationInstance> first = build();
      if (!first.ok() && effective.backend == DistanceBackend::kDense &&
          effective.allow_fallbacks &&
          first.status().code() == StatusCode::kResourceExhausted) {
        // Degradation 2: the dense O(n^2/2) matrix did not fit (really, or
        // via an injected fault). The lazy backend answers bit-identically
        // from O(n m) memory, just slower per query.
        out.fallbacks.push_back(
            "dense backend allocation failed; retried with lazy backend");
        out.outcome = MergeOutcomes(out.outcome, RunOutcome::kFellBack);
        TelemetryCount(telemetry, "aggregate.fallback.dense_to_lazy");
        source_options.backend = DistanceBackend::kLazy;
        return build();
      }
      return first;
    }();
    if (!built.ok()) {
      if (RunContext::IsInterrupt(built.status())) {
        // Degradation 3: the budget fired while the instance was still
        // being built; no distances → nothing was merged yet, so the
        // all-singletons partition is the honest best-so-far.
        out.fallbacks.push_back(
            "budget fired during instance construction; returning the "
            "all-singletons partition");
        out.outcome = MergeOutcomes(
            out.outcome, RunContext::OutcomeFromInterrupt(built.status()));
        TelemetryCount(telemetry, "aggregate.fallback.build_interrupted");
        return Clustering::AllSingletons(input.num_objects());
      }
      return built.status();
    }
    const CorrelationInstance& instance = *built;
    // Folded runs produce labels over the s signatures; expand maps them
    // back to the n objects (a no-op lambda otherwise).
    auto finish = [&](Clustering c) {
      return fold_index ? fold_index->Expand(c) : std::move(c);
    };
    Result<ClustererRun> result = [&] {
      InstrumentedSpan cluster_span(telemetry, "cluster");
      return (*clusterer)->RunControlled(instance, run);
    }();
    if (!result.ok()) return result.status();
    out.outcome = MergeOutcomes(out.outcome, result->outcome);
    if (effective.refine_with_local_search &&
        effective.algorithm != AggregationAlgorithm::kLocalSearch) {
      if (out.outcome == RunOutcome::kCancelled ||
          out.outcome == RunOutcome::kDeadlineExceeded) {
        // Degradation 4: no budget left for the polish; ship the
        // unrefined clustering.
        out.fallbacks.push_back(
            "budget fired before LOCALSEARCH refinement; returning the "
            "unrefined clustering");
        TelemetryCount(telemetry, "aggregate.fallback.refine_skipped");
        return finish(std::move(result->clustering));
      }
      InstrumentedSpan refine_span(telemetry, "refine");
      LocalSearchClusterer refiner(effective.local_search);
      Result<ClustererRun> refined =
          refiner.RunFromControlled(instance, result->clustering, run);
      if (!refined.ok()) return refined.status();
      out.outcome = MergeOutcomes(out.outcome, refined->outcome);
      return finish(std::move(refined->clustering));
    }
    return finish(std::move(result->clustering));
  }();
  if (!clustering.ok()) return clustering.status();

  InstrumentedSpan score_span(telemetry, "score");
  Result<double> disagreements =
      input.TotalDisagreements(*clustering, options.missing);
  if (!disagreements.ok()) return disagreements.status();
  TelemetrySetGauge(telemetry, "aggregate.clusters",
                    static_cast<std::int64_t>(clustering->NumClusters()));
  out.clustering = std::move(*clustering);
  out.total_disagreements = *disagreements;
  return out;
}

}  // namespace clustagg
