#ifndef CLUSTAGG_CORE_AGGREGATOR_H_
#define CLUSTAGG_CORE_AGGREGATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/agglomerative.h"
#include "core/annealing.h"
#include "core/balls.h"
#include "core/clusterer.h"
#include "core/clustering_set.h"
#include "core/exact.h"
#include "core/furthest.h"
#include "core/local_search.h"
#include "core/majority.h"
#include "core/pivot.h"
#include "core/sampling.h"
#include "shard/shard_options.h"

namespace clustagg {

/// Selector for the aggregation algorithm used by the Aggregate facade.
enum class AggregationAlgorithm {
  kBestClustering,
  kBalls,
  kAgglomerative,
  kFurthest,
  kLocalSearch,
  /// CC-PIVOT (Ailon-Charikar-Newman) — the randomized-pivot extension.
  kPivot,
  /// Simulated annealing (Filkov & Skiena) — the related-work
  /// metaheuristic.
  kAnnealing,
  /// Co-association majority baseline (Fred & Jain) — for comparison.
  kMajority,
  /// Exhaustive optimum; only for tiny inputs (see ExactOptions).
  kExact,
};

const char* AggregationAlgorithmName(AggregationAlgorithm algorithm);

/// One-stop options for the Aggregate facade.
struct AggregatorOptions {
  AggregationAlgorithm algorithm = AggregationAlgorithm::kAgglomerative;

  /// Per-algorithm knobs (only the selected algorithm's options matter).
  BallsOptions balls;
  AgglomerativeOptions agglomerative;
  FurthestOptions furthest;
  LocalSearchOptions local_search;
  PivotOptions pivot;
  AnnealingOptions annealing;
  MajorityOptions majority;
  ExactOptions exact;

  /// Missing-value policy for building the correlation instance.
  MissingValueOptions missing;

  /// Distance backend carrying the instance: kDense materializes the
  /// packed O(n^2/2) matrix (fastest for repeated queries), kLazy keeps
  /// only O(n*m) label columns and recomputes X_uv on demand (removes the
  /// quadratic memory floor). Both produce identical results.
  DistanceBackend backend = DistanceBackend::kDense;

  /// Threads for parallel dense construction and the instance's parallel
  /// reductions. 0 means one per hardware core.
  std::size_t num_threads = 0;

  /// Post-process the result with LOCALSEARCH (Section 4 recommends it as
  /// a refinement step; not applied when the algorithm already is
  /// LOCALSEARCH or EXACT).
  bool refine_with_local_search = false;

  /// If nonzero, run via SAMPLING with this sample size instead of
  /// building the full O(n^2) instance (Section 4.1). Ignored for
  /// kBestClustering and kExact.
  std::size_t sampling_size = 0;
  /// SAMPLING's own knobs. Aggregate reads only `sample_log_factor`,
  /// `seed`, `recluster_singletons` and `source.run` (the sub-instance
  /// builds' budget; `run` stands in while it is unlimited and carries no
  /// sink) from here. It overwrites `sample_size`, `missing`,
  /// `source.backend`, `source.num_threads` and `fold` with
  /// `sampling_size`, `missing`, `backend`, `num_threads` and `fold`.
  SamplingOptions sampling;

  /// Opt-in duplicate-signature folding: group objects whose full m-label
  /// tuple is identical across the inputs (SignatureIndex), build the
  /// s x s instance over one representative per signature with the group
  /// sizes as multiplicity weights, run the clusterer there, and expand
  /// the labels back to object space. Duplicates have identical distance
  /// rows, and a signature is grouped only when its members' mutual
  /// distance is <= 1/2 (under `missing`), so some optimal partition
  /// keeps every group together. The folded instance's Cost and
  /// LowerBound omit the intra-group pairs (a constant, nonzero only
  /// with missing labels under kRandomCoin); the reported
  /// total_disagreements is scored in object space and is unaffected.
  /// Skipped when every object is unique (s == n) or when a group holds
  /// more objects than a nonzero max_cluster_size; the full instance is
  /// then built as usual.
  /// Categorical datasets shaped like the paper's Mushrooms / Census
  /// evaluations shrink dramatically (dense build O(n^2 m) -> O(s^2 m)).
  /// Under sampling, the sampled sub-instances are folded instead.
  /// Ignored for kBestClustering (which never builds an instance).
  bool fold = false;

  /// Shard-and-conquer pipeline (src/shard/, docs/sharding.md): stream
  /// the agreement graph (pairs with X_uv < 1/2), solve its connected
  /// components — split when oversized — as independent shards in
  /// parallel, and stitch. Exact across true components; forced splits
  /// are covered by the exact AggregationResult::stitch_error_bound.
  /// Composes with fold (decomposition runs in signature space) and the
  /// backend choice (per shard). Ignored under sampling_size > 0 — the
  /// sampling path already avoids the O(n^2) instance — and for
  /// kBestClustering, which never builds one.
  ShardOptions shard;

  /// Size-capped clusters as a LOCALSEARCH move filter (Puleo &
  /// Milenkovic): when nonzero, sweeps reject any move that would grow a
  /// cluster beyond this many objects, both for kLocalSearch runs and
  /// for the refine_with_local_search polish. Under folding the cap
  /// counts original objects (fold multiplicities), not representatives.
  /// A filter, not a repair: starting partitions already violating the
  /// cap (Init::kSingleCluster, an oversized refine input) are only
  /// shrunk when doing so lowers the cost. 0 = uncapped.
  std::size_t max_cluster_size = 0;

  /// Wall-clock / iteration budget, cancellation flag, and fault hooks
  /// for the whole pipeline (instance build, clustering, refinement).
  /// Default: unlimited. When the budget fires the pipeline returns the
  /// best valid clustering reached so far, tagged in the result, instead
  /// of an error. Final scoring (TotalDisagreements) runs outside the
  /// budget: the coin-policy path is O(m (n + K^2)) and a report without
  /// E_D would be useless.
  RunContext run;

  /// Allow the graceful-degradation chain: dense-backend allocation
  /// failure retries on the lazy backend, and EXACT beyond its tractable
  /// size falls back to BALLS + LOCALSEARCH refinement. Each taken
  /// fallback is recorded in AggregationResult::fallbacks. Off = those
  /// conditions stay hard errors.
  bool allow_fallbacks = true;
};

/// Result of an aggregation run.
struct AggregationResult {
  Clustering clustering;
  /// Total (expected) disagreements D(C) with the inputs — the E_D
  /// reported in the paper's tables.
  double total_disagreements = 0.0;
  /// How the run ended: kConverged normally; kDeadlineExceeded /
  /// kCancelled when the budget cut it short (clustering is then the best
  /// found so far); kFellBack when a degradation fallback was taken but
  /// the run otherwise completed.
  RunOutcome outcome = RunOutcome::kConverged;
  /// Human-readable notes, one per degradation taken (e.g.
  /// "dense backend allocation failed; retried with lazy backend").
  std::vector<std::string> fallbacks;
  /// True when AggregatorOptions::fold was on and actually shrank the
  /// instance (s < n distinct signatures). False when folding was off,
  /// was a no-op (every object unique), or the run went through sampling
  /// (whose per-subset folds are not surfaced here).
  bool folded = false;
  /// Number of distinct signatures s found when folding was requested
  /// (== num_objects when the fold was a no-op); 0 when folding was off
  /// or the run went through sampling.
  std::size_t fold_signatures = 0;
  /// True when the run went through the sharding pipeline (src/shard/):
  /// decompose, per-shard solve, stitch. False when sharding was off, the
  /// kAuto trigger did not fire, or a fallback abandoned the plan.
  bool sharded = false;
  /// Number of shards solved (only meaningful when sharded).
  std::size_t shard_count = 0;
  /// Connected components the agreement graph decomposed into (in
  /// signature space when folding was active; only when sharded).
  std::size_t shard_components = 0;
  /// Exact upper bound on the cost excess attributable to sharding: the
  /// total weight sum over cut agreement pairs of (1 - 2 X_uv), zero
  /// unless the size cap forced a component split (docs/sharding.md).
  /// Whatever the unsharded pipeline would have found, total_disagreements
  /// of a locally optimal sharded run exceeds it by at most this much.
  double stitch_error_bound = 0.0;
};

/// Instantiates the requested correlation clusterer (not
/// kBestClustering, which is not a correlation clusterer).
Result<std::unique_ptr<CorrelationClusterer>> MakeClusterer(
    const AggregatorOptions& options);

/// Aggregates the input clusterings with the selected algorithm: builds
/// the correlation instance (or samples), clusters, optionally refines
/// with local search, and scores the result.
Result<AggregationResult> Aggregate(const ClusteringSet& input,
                                    const AggregatorOptions& options = {});

}  // namespace clustagg

#endif  // CLUSTAGG_CORE_AGGREGATOR_H_
