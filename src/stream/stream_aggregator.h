#ifndef CLUSTAGG_STREAM_STREAM_AGGREGATOR_H_
#define CLUSTAGG_STREAM_STREAM_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/aggregator.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/distance_source.h"
#include "core/local_search.h"
#include "core/signature_index.h"
#include "stream/stream_event.h"

namespace clustagg {

/// Knobs for the streaming aggregation workload.
struct StreamAggregatorOptions {
  /// Missing-value policy defining X_uv; fixed for the stream's lifetime
  /// (it is baked into every maintained distance).
  MissingValueOptions missing;

  /// Threads for the parallel reductions of the snapshot instances the
  /// stream builds (0 = one per hardware core). The maintained X values
  /// are thread-count independent either way.
  std::size_t num_threads = 0;

  /// Duplicate-signature folding: every Flush regroups the objects with
  /// SignatureIndex::Build over the alive columns, and repair runs over
  /// one weighted representative per signature, exactly like
  /// AggregatorOptions::fold.
  bool fold = false;

  /// Warm-start repair sweep applied by Flush: LOCALSEARCH from the
  /// current solution on the flush's instance (the M(v,C) bookkeeping
  /// of src/core/local_search.cc, warm-started instead of cold).
  LocalSearchOptions repair;

  /// Sliding window over input clusterings: when nonzero, applying a
  /// clustering that would leave more than `window` alive auto-evicts
  /// the oldest surviving clustering first-in-first-out (an implicit
  /// RemoveClustering of the smallest alive id, identical to the
  /// explicit event in every observable way). 0 = keep everything.
  std::size_t window = 0;

  /// Full re-cluster fallback: when accumulated drift exceeds
  /// rebuild_threshold (or on the very first Flush), the stream abandons
  /// warm repair and runs the full Aggregate pipeline with these options
  /// on the reconstructed input set. missing / num_threads / fold / run
  /// are overridden with the stream's own settings for coherence.
  AggregatorOptions rebuild;

  /// Accumulated-drift trigger for the rebuild fallback. Drift is the
  /// mean absolute change of the X entries since the last
  /// full re-cluster (a brand-new pair charges its unavoidable-cost mass
  /// min(X, 1-X)); 0 forces a rebuild on every Flush that touched a
  /// pair, and an unreachably large value keeps warm repair forever.
  double rebuild_threshold = 0.25;
};

/// What one Flush did.
struct StreamFlushReport {
  /// Pending events applied (may be short of the queue when the batch
  /// budget fired; the remainder stays queued for the next Flush).
  std::size_t events_applied = 0;
  /// Pair entries visited by the applied deltas.
  std::size_t pairs_touched = 0;
  /// Window evictions this flush performed (see
  /// StreamAggregatorOptions::window); explicit RemoveClustering events
  /// are not counted here, they are ordinary applied events.
  std::size_t evictions = 0;
  /// Accumulated drift at decision time (before any reset).
  double drift = 0.0;
  /// True when the rebuild fallback ran (full Aggregate).
  bool rebuilt = false;
  /// True when the warm-started LOCALSEARCH repair ran.
  bool repaired = false;
  /// The complete warm-start partition handed to repair (objects added
  /// by this batch appear as fresh singletons). Set for repaired and
  /// rebuilt flushes alike — it is the pre-flush solution extended to
  /// the new objects — so differential oracles can replay the repair.
  Clustering pre_repair;
  /// Exact correlation cost of the post-flush solution on the stream's
  /// instance (the folded instance when folding is active),
  /// recomputed outside the batch budget like Aggregate's final scoring.
  /// Equal to the delta-tracked prediction up to float accumulation.
  double cost = 0.0;
  /// The delta-tracked running cost before recomputation; its gap to
  /// `cost` is the numeric drift telemetry reports.
  double predicted_cost = 0.0;
  /// kConverged, or how the batch budget cut the flush short.
  RunOutcome outcome = RunOutcome::kConverged;
};

/// The complete applied state of a StreamAggregator, as captured by
/// ExportState and reinstalled by RestoreState. It is the *applied*
/// state only — capture requires an empty pending queue — because the
/// durable unit of a stream is "everything the journal has": a snapshot
/// cursor counts whole journal records, never half-applied ones (see
/// docs/durability.md).
///
/// The state is O(n m): the label columns and weights are the stream's
/// only per-pair information. Every X_uv is a pure function of them
/// (the batch kernel over the alive columns), and so is the fold
/// grouping (SignatureIndex::Build), so RestoreState recomputes both
/// and the restored stream answers bit-identically by construction.
/// The scalars that depend on the event *history* — drift, the tracked
/// cost, the flush count — are carried verbatim.
struct StreamAggregatorState {
  std::size_t num_objects = 0;
  std::vector<std::vector<Clustering::Label>> columns;
  std::vector<double> weights;
  /// Ascending-order sum of `weights`; RestoreState rejects a mismatch.
  double total_weight = 0.0;
  std::vector<Clustering::Label> labels;
  bool ever_clustered = false;
  double cost = 0.0;
  double predicted_cost = 0.0;
  double drift_accum = 0.0;
  std::uint64_t flush_count = 0;
  /// Stable ids of the alive clusterings / objects (strictly ascending,
  /// one per column / object) and the next ids to assign — the window
  /// queue IS the id vector: eviction order is ascending id. Ids are
  /// never reused, so removals in a recovered journal suffix keep
  /// naming the same inputs.
  std::vector<std::uint64_t> clustering_ids;
  std::vector<std::uint64_t> object_ids;
  std::uint64_t next_clustering_id = 0;
  std::uint64_t next_object_id = 0;
};

/// Online clustering aggregation: ingests AddClustering / AddObject /
/// RemoveClustering / RemoveObject events (delta-batched: events queue
/// in Ingest and apply on Flush; an optional sliding window auto-evicts
/// the oldest clustering) and maintains
///   - the applied label columns and weights — the stream's only
///     per-pair state — plus a LazyDistanceSource over them, rebuilt in
///     O(n m) whenever they change, that answers distance(),
///   - the duplicate-signature fold grouping (optional), recomputed by
///     SignatureIndex::Build at every Flush,
///   - a current solution, fixed up after each batch by a warm-started
///     LOCALSEARCH repair, with a drift-triggered fallback to the full
///     Aggregate pipeline.
///
/// Because X_uv is always computed by the batch kernel over the
/// *surviving* columns, the stream's distances, fold grouping, repair
/// instance and cost are bit-identical to a from-scratch
/// CorrelationInstance::Build over the same inputs on either backend,
/// removals and evictions included. The differential suite
/// (tests/stream_differential_test.cc) pins this for every event log
/// prefix.
///
/// Drift bookkeeping is the one incremental piece: each clustering add,
/// removal or eviction sweeps every pair in (v ascending, u < v) order,
/// FillRow-ing X before and after the change; an object add or removal
/// reads the one row it creates or deletes.
///
/// Memory: O(n m) label columns plus the O(n^2) float instance each
/// Flush builds for repair and scoring (see docs/streaming.md).
///
/// Not thread-safe; one stream is owned by one orchestration thread.
class StreamAggregator {
 public:
  explicit StreamAggregator(StreamAggregatorOptions options = {});

  /// Validates and queues one event (cheap; no distance work). The labels
  /// must cover the stream's state *including previously queued events*:
  /// an AddClustering after a queued AddObject covers the new object
  /// too. While no clustering exists yet, an AddClustering may carry
  /// more labels than the stream has objects — it defines them, the way
  /// ClusteringSet::Create infers n from its first clustering. A
  /// removal must name an id alive after every queued event (window
  /// evictions included) or it is rejected with kInvalidArgument. Every
  /// event is rejected with kInvalidArgument while options.missing fails
  /// MissingValueOptions::Validate. Errors leave the queue unchanged.
  Status Ingest(StreamEvent event);

  /// Applies every queued event to the columns, evicting the oldest clustering whenever the window overflows,
  /// extends the solution with fresh singletons for new objects, then
  /// fixes the solution up: warm repair, or the full Aggregate rebuild
  /// when accumulated drift exceeds the threshold (and always on the
  /// first Flush). `run` is the *batch* budget: events apply atomically
  /// with a poll between events, so an interrupt leaves the remainder
  /// queued for the next Flush and tags the report; repair inherits the
  /// remaining budget and degrades to best-so-far like every clusterer.
  /// Final cost scoring runs outside the budget.
  Result<StreamFlushReport> Flush(const RunContext& run = RunContext());

  /// Applied (post-Flush) dimensions.
  std::size_t num_objects() const { return n_; }
  std::size_t num_clusterings() const { return columns_.size(); }
  /// Dimensions including queued events.
  std::size_t pending_objects() const { return pending_n_; }
  std::size_t pending_clusterings() const { return pending_m_; }
  std::size_t pending_events() const { return pending_.size(); }

  double total_weight() const { return total_weight_; }

  /// Stable ids of the alive (applied) clusterings / objects, ascending,
  /// parallel to the column / object indices. What RemoveClustering /
  /// RemoveObject events name.
  const std::vector<std::uint64_t>& clustering_ids() const {
    return clustering_ids_;
  }
  const std::vector<std::uint64_t>& object_ids() const { return object_ids_; }

  /// Window evictions applied since construction (or the last
  /// RestoreState — the count is operational telemetry, not durable
  /// state: a snapshot-recovered stream only recounts evictions it
  /// replays itself).
  std::uint64_t evictions() const { return evictions_; }

  /// The current solution over the applied objects (empty before the
  /// first Flush of a nonempty stream).
  const Clustering& labels() const { return labels_; }

  /// Exact cost of labels() on the stream's instance, as of the last
  /// Flush.
  double cost() const { return cost_; }

  /// Accumulated drift since the last full re-cluster (see
  /// StreamAggregatorOptions::rebuild_threshold).
  double drift() const;

  /// X_uv over the alive columns (0 when u == v, or before any
  /// clustering was applied). Bit-identical to the batch backends.
  double distance(std::size_t u, std::size_t v) const;

  /// Reconstructs the applied inputs as a batch ClusteringSet (with the
  /// streamed weights) — what a from-scratch rebuild aggregates.
  Result<ClusteringSet> CurrentInput() const;

  /// Dense instance over the alive inputs (unfolded), built like
  /// Aggregate builds it.
  Result<CorrelationInstance> Instance() const;

  /// Fold-grouping introspection (meaningful when options.fold is set;
  /// without folding every object is its own signature).
  std::size_t fold_signatures() const;
  std::vector<std::size_t> fold_representatives() const;
  std::vector<double> fold_multiplicities() const;
  std::size_t signature_of(std::size_t v) const;

  const StreamAggregatorOptions& options() const { return options_; }

  /// Captures the applied state for snapshotting. Fails with
  /// FailedPrecondition while events are queued: the snapshot layer
  /// only calls this at batch boundaries (see StreamAggregatorState).
  Result<StreamAggregatorState> ExportState() const;

  /// Reinstalls a captured state, replacing whatever this aggregator
  /// held. The receiving aggregator must be idle (no queued events) and
  /// must have been constructed with the same options the exporter ran
  /// under — the state does not carry options, and mixing them silently
  /// changes every distance. Internally-inconsistent state (mismatched
  /// column lengths, malformed labels or weights, a total weight that
  /// is not the sum of the weights, id vectors that are not strictly
  /// ascending below their next-id) yields kDataLoss; options.missing
  /// failing MissingValueOptions::Validate yields kInvalidArgument.
  /// Distances and the fold grouping are recomputed from the columns.
  Status RestoreState(StreamAggregatorState state);

 private:
  void ApplyAddClustering(const AddClusteringEvent& event,
                          StreamFlushReport* report);
  void ApplyAddObject(const AddObjectEvent& event,
                      StreamFlushReport* report);
  /// Removes the alive clustering with stable id `id` (which Ingest
  /// guaranteed exists).
  void ApplyRemoveClustering(std::uint64_t id, StreamFlushReport* report);
  /// Removes the alive object with stable id `id` from every column and
  /// the solution.
  void ApplyRemoveObject(std::uint64_t id, StreamFlushReport* report);
  /// Recomputes total_weight_ and source_ after the columns changed.
  void RefreshColumns();
  /// Charges the move of every X_uv from `before` (nullptr = all zero)
  /// to source_ to drift and to the tracked cost, in (v ascending,
  /// u < v) order.
  void SweepPairs(const DistanceSource* before, StreamFlushReport* report);
  /// Regroups the objects by signature over the alive columns.
  void RebuildFoldIndex();
  /// Extends labels_ with one fresh singleton per not-yet-labeled object
  /// and charges their pairs' contribution to the tracked cost.
  void ExtendSolutionToNewObjects();
  /// The dense instance over `input` (this stream's columns), folded to
  /// one weighted representative per signature when `folded`.
  Result<CorrelationInstance> BuildInstance(const ClusteringSet& input,
                                            bool folded) const;

  StreamAggregatorOptions options_;

  /// Applied inputs, column per clustering: columns_[i][v] = label of
  /// object v under clustering i.
  std::vector<std::vector<Clustering::Label>> columns_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  std::size_t n_ = 0;

  /// Stable ids parallel to columns_ / the object indices, strictly
  /// ascending (ids are assigned monotonically and erasure preserves
  /// order). The window evicts clustering_ids_.front().
  std::vector<std::uint64_t> clustering_ids_;
  std::vector<std::uint64_t> object_ids_;
  std::uint64_t next_clustering_id_ = 0;
  std::uint64_t next_object_id_ = 0;
  std::uint64_t evictions_ = 0;

  /// X over the applied columns; nullptr while no pair has a distance
  /// (no clustering, or fewer than two objects).
  std::shared_ptr<const LazyDistanceSource> source_;

  /// Queued events plus the state they imply (for validation): the id
  /// mirrors simulate every queued add, removal, and window eviction
  /// exactly as Flush will apply them, so Ingest can reject a removal
  /// of a dead id before it is ever journaled.
  std::vector<StreamEvent> pending_;
  std::size_t pending_n_ = 0;
  std::size_t pending_m_ = 0;
  std::vector<std::uint64_t> pending_clustering_ids_;
  std::vector<std::uint64_t> pending_object_ids_;
  std::uint64_t pending_next_clustering_id_ = 0;
  std::uint64_t pending_next_object_id_ = 0;

  /// Signature grouping of the applied objects (maintained only when
  /// options_.fold), rebuilt at every Flush and RestoreState.
  SignatureIndex fold_index_;

  Clustering labels_;
  bool ever_clustered_ = false;
  double cost_ = 0.0;
  double predicted_cost_ = 0.0;
  double drift_accum_ = 0.0;
  std::uint64_t flush_count_ = 0;
};

/// Outcome summary of replaying a whole event log.
struct StreamReplayResult {
  std::vector<StreamFlushReport> reports;
  /// Most severe outcome across all flushes.
  RunOutcome outcome = RunOutcome::kConverged;
  std::size_t rebuilds = 0;
  std::size_t repairs = 0;
  /// Window evictions summed over all flushes.
  std::size_t evictions = 0;
};

/// Replays a parsed event log through the stream: ingests records in
/// order, flushing at every FlushMarker and once more at the end when
/// events remain (or when no Flush ever ran, so the final solution
/// exists). `make_run` supplies one fresh RunContext per batch —
/// deadlines restart per batch — and defaults to the unlimited context.
/// When `lines` maps records to 1-based source lines (the ParseEventLog
/// out-param), an Ingest rejection is reported against its line.
Result<StreamReplayResult> ReplayEventLog(
    StreamAggregator& stream, const std::vector<StreamRecord>& records,
    const std::function<RunContext()>& make_run = {},
    const std::vector<std::size_t>* lines = nullptr);

}  // namespace clustagg

#endif  // CLUSTAGG_STREAM_STREAM_AGGREGATOR_H_
