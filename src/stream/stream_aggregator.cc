#include "stream/stream_aggregator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/instrumentation.h"

namespace clustagg {

namespace {

Status BadLabels(const std::vector<Clustering::Label>& labels,
                 const char* what) {
  for (Clustering::Label label : labels) {
    if (label < 0 && label != Clustering::kMissing) {
      return Status::InvalidArgument(std::string(what) +
                                     " carries a negative label " +
                                     std::to_string(label));
    }
  }
  return Status::OK();
}

/// The columns as a batch input set (ClusteringSet::Create validates
/// labels and weights).
Result<ClusteringSet> ColumnsAsInput(
    const std::vector<std::vector<Clustering::Label>>& columns,
    const std::vector<double>& weights) {
  std::vector<Clustering> clusterings;
  clusterings.reserve(columns.size());
  for (const std::vector<Clustering::Label>& column : columns) {
    clusterings.emplace_back(column);
  }
  return ClusteringSet::Create(std::move(clusterings), weights);
}

/// Index of `id` in an ascending stable-id vector, or npos.
std::size_t FindId(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - ids.begin());
}

}  // namespace

StreamAggregator::StreamAggregator(StreamAggregatorOptions options)
    : options_(std::move(options)) {}

Status StreamAggregator::Ingest(StreamEvent event) {
  // Flush builds lazy sources under these options; reject them here, on
  // the call that can still return a Status.
  if (Status s = options_.missing.Validate(); !s.ok()) return s;
  if (const auto* add = std::get_if<AddClusteringEvent>(&event)) {
    // While no clustering exists yet (applied or queued) there are no
    // label tuples to contradict, so the first AddClustering may carry
    // more labels than the stream has objects: it defines them, exactly
    // like ClusteringSet::Create infers n from its first clustering.
    const bool defines_objects =
        pending_m_ == 0 && add->labels.size() >= pending_n_;
    if (!defines_objects && add->labels.size() != pending_n_) {
      return Status::InvalidArgument(
          "AddClustering carries " + std::to_string(add->labels.size()) +
          " labels for a stream of " + std::to_string(pending_n_) +
          " objects (queued events included)");
    }
    Status labels_ok = BadLabels(add->labels, "AddClustering");
    if (!labels_ok.ok()) return labels_ok;
    if (!std::isfinite(add->weight) || !(add->weight > 0.0)) {
      return Status::InvalidArgument(
          "AddClustering weight must be a finite positive number");
    }
    if (defines_objects) {
      while (pending_object_ids_.size() < add->labels.size()) {
        pending_object_ids_.push_back(pending_next_object_id_++);
      }
      pending_n_ = pending_object_ids_.size();
    }
    pending_clustering_ids_.push_back(pending_next_clustering_id_++);
    // Mirror the window eviction Flush will perform after applying this
    // add, so later queued removals validate against what will actually
    // be alive.
    while (options_.window > 0 &&
           pending_clustering_ids_.size() > options_.window) {
      pending_clustering_ids_.erase(pending_clustering_ids_.begin());
    }
    pending_m_ = pending_clustering_ids_.size();
  } else if (const auto* object = std::get_if<AddObjectEvent>(&event)) {
    if (object->labels.size() != pending_m_) {
      return Status::InvalidArgument(
          "AddObject carries " + std::to_string(object->labels.size()) +
          " labels for a stream of " + std::to_string(pending_m_) +
          " clusterings (queued events included)");
    }
    Status labels_ok = BadLabels(object->labels, "AddObject");
    if (!labels_ok.ok()) return labels_ok;
    pending_object_ids_.push_back(pending_next_object_id_++);
    pending_n_ = pending_object_ids_.size();
  } else if (const auto* rm = std::get_if<RemoveClusteringEvent>(&event)) {
    const std::size_t pos = FindId(pending_clustering_ids_, rm->id);
    if (pos == static_cast<std::size_t>(-1)) {
      return Status::InvalidArgument(
          "RemoveClustering names unknown or already-removed clustering id " +
          std::to_string(rm->id) + " (queued events and window evictions "
          "included)");
    }
    pending_clustering_ids_.erase(
        pending_clustering_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
    pending_m_ = pending_clustering_ids_.size();
  } else {
    const auto& remove = std::get<RemoveObjectEvent>(event);
    const std::size_t pos = FindId(pending_object_ids_, remove.id);
    if (pos == static_cast<std::size_t>(-1)) {
      return Status::InvalidArgument(
          "RemoveObject names unknown or already-removed object id " +
          std::to_string(remove.id) + " (queued events included)");
    }
    pending_object_ids_.erase(pending_object_ids_.begin() +
                              static_cast<std::ptrdiff_t>(pos));
    pending_n_ = pending_object_ids_.size();
  }
  pending_.push_back(std::move(event));
  return Status::OK();
}

double StreamAggregator::distance(std::size_t u, std::size_t v) const {
  CLUSTAGG_CHECK(u < n_ && v < n_);
  if (u == v || source_ == nullptr) return 0.0;
  return source_->distance(u, v);
}

double StreamAggregator::drift() const {
  const std::size_t pairs = n_ > 1 ? n_ * (n_ - 1) / 2 : 0;
  return pairs == 0 ? 0.0 : drift_accum_ / static_cast<double>(pairs);
}

void StreamAggregator::RefreshColumns() {
  // Ascending-order sum, the order ClusteringSet and the kernels use.
  total_weight_ = 0.0;
  for (double w : weights_) total_weight_ += w;
  source_ = nullptr;
  if (columns_.empty() || n_ < 2) return;
  // columns_ is non-empty, and Ingest and RestoreState validated every
  // label and weight in it, so Create cannot fail.
  Result<ClusteringSet> input = CurrentInput();
  CLUSTAGG_CHECK(input.ok());
  // The only way Build fails is a coin probability outside [0, 1], which
  // Ingest and RestoreState reject before any event is applied.
  Result<std::shared_ptr<const LazyDistanceSource>> source =
      LazyDistanceSource::Build(*input, options_.missing);
  CLUSTAGG_CHECK(source.ok());
  source_ = *std::move(source);
}

void StreamAggregator::SweepPairs(const DistanceSource* before,
                                  StreamFlushReport* report) {
  // Under the coin policy a clustering change moves the denominator of
  // every X, so drift (and the tracked cost) must look at all pairs.
  // Rows are filled in parallel a block at a time, then charged
  // serially in (v ascending, u < v) order, which fixes drift's
  // accumulation order whatever the thread count. Rows are filled whole
  // but read only below the diagonal. A sweep's fill work grows like
  // n^2 m; below kParallelWork it takes well under a millisecond, less
  // than spawning the block workers.
  constexpr std::size_t kBlockRows = 256;
  constexpr std::size_t kParallelWork = std::size_t{1} << 22;
  const std::size_t labeled = labels_.size();
  const std::size_t threads =
      n_ * n_ * (columns_.size() + 1) < kParallelWork
          ? 1
          : EffectiveRowThreads(n_, ResolveThreadCount(options_.num_threads));
  const std::size_t block = std::min(kBlockRows, n_);
  std::vector<double> old_rows(block * n_, 0.0);
  std::vector<double> new_rows(block * n_, 0.0);
  // Local accumulators: the same additions in the same order, kept out
  // of memory the row pointers could alias.
  double drift = drift_accum_;
  double predicted = predicted_cost_;
  for (std::size_t v0 = 1; v0 < n_; v0 += block) {
    const std::size_t rows = std::min(block, n_ - v0);
    // An unlimited run never interrupts: every row is filled.
    ParallelForRows(
        rows, threads, RunContext(), [&](std::size_t i, std::size_t) {
          const std::span<double> old_row(old_rows.data() + i * n_, n_);
          const std::span<double> new_row(new_rows.data() + i * n_, n_);
          if (before != nullptr) before->FillRow(v0 + i, old_row);
          if (source_ != nullptr) source_->FillRow(v0 + i, new_row);
        });
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t v = v0 + i;
      const double* old_row = old_rows.data() + i * n_;
      const double* new_row = new_rows.data() + i * n_;
      // Track the solution's cost under the moving distances; pairs
      // involving objects the solution does not cover yet are charged
      // wholesale when the solution is extended.
      const bool covered = v < labeled;
      for (std::size_t u = 0; u < v; ++u) {
        const double old_x = old_row[u];
        const double new_x = new_row[u];
        drift += std::abs(new_x - old_x);
        if (covered) {
          predicted +=
              labels_.SameCluster(u, v) ? new_x - old_x : old_x - new_x;
        }
      }
    }
  }
  drift_accum_ = drift;
  predicted_cost_ = predicted;
  report->pairs_touched += n_ > 1 ? n_ * (n_ - 1) / 2 : 0;
}

void StreamAggregator::ApplyAddClustering(const AddClusteringEvent& event,
                                          StreamFlushReport* report) {
  // An object-defining first clustering (see Ingest) materializes its
  // objects as implicit empty-tuple AddObjects.
  while (n_ < event.labels.size()) {
    CLUSTAGG_CHECK(columns_.empty());
    ApplyAddObject(AddObjectEvent{}, report);
  }
  CLUSTAGG_CHECK(event.labels.size() == n_);
  const std::shared_ptr<const LazyDistanceSource> before = source_;
  columns_.push_back(event.labels);
  weights_.push_back(event.weight);
  clustering_ids_.push_back(next_clustering_id_++);
  RefreshColumns();
  SweepPairs(before.get(), report);
}

void StreamAggregator::ApplyAddObject(const AddObjectEvent& event,
                                      StreamFlushReport* report) {
  CLUSTAGG_CHECK(event.labels.size() == columns_.size());
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].push_back(event.labels[i]);
  }
  const std::size_t v = n_++;
  object_ids_.push_back(next_object_id_++);
  report->pairs_touched += v;
  RefreshColumns();
  if (source_ == nullptr) return;  // every X is 0: nothing to charge
  // A brand-new pair charges its unavoidable cost mass: whatever the
  // repaired solution does with it, it pays at least min(X, 1 - X).
  std::vector<double> row(n_);
  source_->FillRow(v, row);
  for (std::size_t u = 0; u < v; ++u) {
    drift_accum_ += std::min(row[u], 1.0 - row[u]);
  }
}

void StreamAggregator::ApplyRemoveClustering(std::uint64_t id,
                                             StreamFlushReport* report) {
  const std::size_t i = FindId(clustering_ids_, id);
  CLUSTAGG_CHECK(i != static_cast<std::size_t>(-1));  // Ingest validated it.
  const std::shared_ptr<const LazyDistanceSource> before = source_;
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(i));
  weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(i));
  clustering_ids_.erase(clustering_ids_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  RefreshColumns();
  SweepPairs(before.get(), report);
}

void StreamAggregator::ApplyRemoveObject(std::uint64_t id,
                                         StreamFlushReport* report) {
  const std::size_t pos = FindId(object_ids_, id);
  CLUSTAGG_CHECK(pos != static_cast<std::size_t>(-1));  // Ingest validated.
  const std::size_t labeled = labels_.size();
  // Charge the vanishing pairs to drift (the mirror image of the
  // brand-new-pair charge in ApplyAddObject: their unavoidable mass
  // leaves the objective) and remove their contribution from the
  // tracked cost where the solution covered them.
  if (source_ != nullptr) {
    std::vector<double> row(n_);
    source_->FillRow(pos, row);
    for (std::size_t u = 0; u < n_; ++u) {
      if (u == pos) continue;
      const double x = row[u];
      drift_accum_ += std::min(x, 1.0 - x);
      if (u < labeled && pos < labeled) {
        predicted_cost_ -= labels_.SameCluster(u, pos) ? x : 1.0 - x;
      }
    }
  }
  for (std::vector<Clustering::Label>& column : columns_) {
    column.erase(column.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  object_ids_.erase(object_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
  if (pos < labeled) {
    std::vector<Clustering::Label> labels = labels_.labels();
    labels.erase(labels.begin() + static_cast<std::ptrdiff_t>(pos));
    labels_ = Clustering(std::move(labels));
  }
  --n_;
  report->pairs_touched += n_;
  RefreshColumns();
}

void StreamAggregator::RebuildFoldIndex() {
  if (!options_.fold) {
    fold_index_ = SignatureIndex::Identity(n_);
    return;
  }
  // With no clustering every object carries the empty label tuple: one
  // signature, the grouping of a single constant clustering.
  Result<ClusteringSet> input =
      columns_.empty()
          ? ClusteringSet::Create(
                {Clustering(std::vector<Clustering::Label>(n_, 0))})
          : CurrentInput();
  // One all-zero clustering, or the non-empty applied columns whose
  // labels and weights Ingest and RestoreState validated.
  CLUSTAGG_CHECK(input.ok());
  // A folded group is never split, and the repair and the scoring read
  // the labels through this grouping. A capped rebuild (Aggregate folds
  // under its own cap) may split a group, which the scoring must then
  // see, so the grouping fits the tighter nonzero cap of the two.
  std::size_t cap = options_.rebuild.max_cluster_size;
  const std::size_t repair_cap = options_.repair.max_cluster_size;
  if (cap == 0 || (repair_cap > 0 && repair_cap < cap)) cap = repair_cap;
  fold_index_ = SignatureIndex::ForRun(*input, options_.missing,
                                       /*fold=*/true, cap);
}

void StreamAggregator::ExtendSolutionToNewObjects() {
  const std::size_t labeled = labels_.size();
  if (labeled == n_) return;
  std::vector<Clustering::Label> labels = labels_.labels();
  Clustering::Label next = 0;
  for (Clustering::Label label : labels) next = std::max(next, label + 1);
  labels.reserve(n_);
  for (std::size_t v = labeled; v < n_; ++v) labels.push_back(next++);
  labels_ = Clustering(std::move(labels));
  if (source_ == nullptr) return;
  std::vector<double> row(n_);
  for (std::size_t v = labeled; v < n_; ++v) {
    source_->FillRow(v, row);
    // The fresh singleton is apart from everything.
    for (std::size_t u = 0; u < v; ++u) predicted_cost_ += 1.0 - row[u];
  }
}

Result<CorrelationInstance> StreamAggregator::BuildInstance(
    const ClusteringSet& input) const {
  // Exactly the instance Aggregate builds on the dense backend.
  return CorrelationInstance::BuildFolded(input, fold_index_,
                                          options_.missing, DenseOptions());
}

DistanceSourceOptions StreamAggregator::DenseOptions() const {
  DistanceSourceOptions dense;
  dense.num_threads = options_.num_threads;
  return dense;
}

Result<ClusteringSet> StreamAggregator::CurrentInput() const {
  if (columns_.empty()) {
    return Status::FailedPrecondition(
        "the stream has no applied clusterings yet");
  }
  return ColumnsAsInput(columns_, weights_);
}

Result<CorrelationInstance> StreamAggregator::Instance() const {
  Result<ClusteringSet> input = CurrentInput();
  if (!input.ok()) return input.status();
  return CorrelationInstance::Build(*input, options_.missing, DenseOptions());
}

std::size_t StreamAggregator::fold_signatures() const {
  return fold_index_.num_signatures();
}

std::vector<std::size_t> StreamAggregator::fold_representatives() const {
  return fold_index_.representatives();
}

std::vector<double> StreamAggregator::fold_multiplicities() const {
  return fold_index_.multiplicities();
}

std::size_t StreamAggregator::signature_of(std::size_t v) const {
  CLUSTAGG_CHECK(v < n_);
  return fold_index_.signature_of(v);
}

Result<StreamAggregatorState> StreamAggregator::ExportState() const {
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "cannot export stream state with " +
        std::to_string(pending_.size()) +
        " queued events; Flush to a batch boundary first");
  }
  StreamAggregatorState state;
  state.num_objects = n_;
  state.columns = columns_;
  state.weights = weights_;
  state.total_weight = total_weight_;
  state.labels = labels_.labels();
  state.ever_clustered = ever_clustered_;
  state.cost = cost_;
  state.predicted_cost = predicted_cost_;
  state.drift_accum = drift_accum_;
  state.flush_count = flush_count_;
  state.clustering_ids = clustering_ids_;
  state.object_ids = object_ids_;
  state.next_clustering_id = next_clustering_id_;
  state.next_object_id = next_object_id_;
  return state;
}

Status StreamAggregator::RestoreState(StreamAggregatorState state) {
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "cannot restore state into a stream with queued events");
  }
  if (Status s = options_.missing.Validate(); !s.ok()) return s;
  const std::size_t n = state.num_objects;
  if (state.weights.size() != state.columns.size()) {
    return Status::DataLoss("stream state holds " +
                            std::to_string(state.weights.size()) +
                            " weights for " +
                            std::to_string(state.columns.size()) +
                            " clusterings");
  }
  for (const std::vector<Clustering::Label>& column : state.columns) {
    if (column.size() != n) {
      return Status::DataLoss(
          "stream state clustering covers " + std::to_string(column.size()) +
          " objects, expected " + std::to_string(n));
    }
  }
  if (!state.columns.empty()) {
    // The validation every applied event passed in Ingest: labels >= 0
    // or missing, weights finite and positive.
    Result<ClusteringSet> input =
        ColumnsAsInput(state.columns, state.weights);
    if (!input.ok()) {
      return Status::DataLoss("stream state inputs are malformed: " +
                              std::string(input.status().message()));
    }
  }
  double total_weight = 0.0;
  for (double w : state.weights) total_weight += w;
  if (!(state.total_weight == total_weight)) {
    return Status::DataLoss(
        "stream state total weight disagrees with its clustering weights");
  }
  if (!state.labels.empty() && state.labels.size() != n) {
    return Status::DataLoss("stream state solution labels " +
                            std::to_string(state.labels.size()) +
                            " objects, expected " + std::to_string(n));
  }
  for (Clustering::Label label : state.labels) {
    if (label < 0) {
      return Status::DataLoss("stream state solution carries label " +
                              std::to_string(label));
    }
  }
  if (state.clustering_ids.size() != state.columns.size()) {
    return Status::DataLoss("stream state carries " +
                            std::to_string(state.clustering_ids.size()) +
                            " clustering ids for " +
                            std::to_string(state.columns.size()) +
                            " clusterings");
  }
  if (state.object_ids.size() != n) {
    return Status::DataLoss(
        "stream state carries " + std::to_string(state.object_ids.size()) +
        " object ids for " + std::to_string(n) + " objects");
  }
  const auto ids_valid = [](const std::vector<std::uint64_t>& ids,
                            std::uint64_t next) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= next) return false;
      if (i > 0 && ids[i] <= ids[i - 1]) return false;
    }
    return true;
  };
  if (!ids_valid(state.clustering_ids, state.next_clustering_id) ||
      !ids_valid(state.object_ids, state.next_object_id)) {
    return Status::DataLoss(
        "stream state id vectors are not strictly ascending below their "
        "next-id counters");
  }
  n_ = n;
  columns_ = std::move(state.columns);
  weights_ = std::move(state.weights);
  labels_ = Clustering(std::move(state.labels));
  ever_clustered_ = state.ever_clustered;
  cost_ = state.cost;
  predicted_cost_ = state.predicted_cost;
  drift_accum_ = state.drift_accum;
  flush_count_ = state.flush_count;
  clustering_ids_ = std::move(state.clustering_ids);
  object_ids_ = std::move(state.object_ids);
  next_clustering_id_ = state.next_clustering_id;
  next_object_id_ = state.next_object_id;
  pending_n_ = n_;
  pending_m_ = columns_.size();
  pending_clustering_ids_ = clustering_ids_;
  pending_object_ids_ = object_ids_;
  pending_next_clustering_id_ = next_clustering_id_;
  pending_next_object_id_ = next_object_id_;
  // Distances and the fold grouping are functions of the columns alone.
  RefreshColumns();
  RebuildFoldIndex();
  return Status::OK();
}

Result<StreamFlushReport> StreamAggregator::Flush(const RunContext& run) {
  StreamFlushReport report;
  Telemetry* telemetry = run.telemetry();
  InstrumentedSpan flush_span(telemetry, "stream.flush");
  TelemetryCount(telemetry, "stream.flushes");
  {
    InstrumentedSpan span(telemetry, "stream.ingest");
    InstrumentedTimer timer(telemetry, "stream.ingest.batch_nanos");
    std::size_t applied = 0;
    while (applied < pending_.size()) {
      const RunOutcome poll = run.Poll();
      if (poll != RunOutcome::kConverged) {
        report.outcome = MergeOutcomes(report.outcome, poll);
        break;
      }
      const StreamEvent& event = pending_[applied];
      const std::size_t before = report.pairs_touched;
      if (const auto* add = std::get_if<AddClusteringEvent>(&event)) {
        ApplyAddClustering(*add, &report);
        TelemetryCount(telemetry, "stream.ingest.clusterings");
        // The window evicts the oldest survivor as soon as the add
        // overflows it — the same order Ingest's pending mirror
        // simulated, so queued removals stay valid.
        while (options_.window > 0 && columns_.size() > options_.window) {
          InstrumentedSpan evict_span(telemetry, "stream.evict");
          const std::size_t before_evict = report.pairs_touched;
          ApplyRemoveClustering(clustering_ids_.front(), &report);
          ++evictions_;
          ++report.evictions;
          TelemetryCount(telemetry, "stream.evict.clusterings");
          TelemetryCount(telemetry, "stream.evict.pairs_touched",
                         report.pairs_touched - before_evict);
        }
      } else if (const auto* object = std::get_if<AddObjectEvent>(&event)) {
        ApplyAddObject(*object, &report);
        TelemetryCount(telemetry, "stream.ingest.objects");
      } else if (const auto* rm = std::get_if<RemoveClusteringEvent>(&event)) {
        ApplyRemoveClustering(rm->id, &report);
        TelemetryCount(telemetry, "stream.ingest.removals");
      } else {
        ApplyRemoveObject(std::get<RemoveObjectEvent>(event).id, &report);
        TelemetryCount(telemetry, "stream.ingest.removals");
      }
      run.ChargeIterations(report.pairs_touched - before);
      ++applied;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(applied));
    report.events_applied = applied;
    TelemetryCount(telemetry, "stream.ingest.events", applied);
    TelemetryCount(telemetry, "stream.ingest.pairs_touched",
                   report.pairs_touched);
  }
  ExtendSolutionToNewObjects();
  RebuildFoldIndex();
  TelemetrySetGauge(telemetry, "stream.objects",
                    static_cast<std::int64_t>(n_));
  TelemetrySetGauge(telemetry, "stream.clusterings",
                    static_cast<std::int64_t>(columns_.size()));
  report.drift = drift();
  report.pre_repair = labels_;
  if (columns_.empty()) {
    // Nothing expresses an opinion yet (or every clustering was removed
    // again): every partition costs 0 and the current labels are as
    // good as any.
    cost_ = 0.0;
    predicted_cost_ = 0.0;
    report.predicted_cost = 0.0;
    return report;
  }
  report.predicted_cost = predicted_cost_;
  Result<ClusteringSet> input = CurrentInput();
  if (!input.ok()) return input.status();
  Result<CorrelationInstance> repair_instance = BuildInstance(*input);
  if (!repair_instance.ok()) return repair_instance.status();
  const CorrelationInstance& instance = *repair_instance;
  // A batch cut short mid-apply skips the solution fix-up entirely: the
  // remaining events arrive at the next Flush, and the current labels are
  // still a valid partition of everything applied so far.
  if (report.outcome == RunOutcome::kConverged) {
    const bool rebuild =
        !ever_clustered_ || report.drift > options_.rebuild_threshold;
    if (rebuild) {
      InstrumentedSpan span(telemetry, "stream.rebuild");
      InstrumentedTimer timer(telemetry, "stream.repair.rebuild_nanos");
      AggregatorOptions aggregate = options_.rebuild;
      aggregate.missing = options_.missing;
      aggregate.num_threads = options_.num_threads;
      aggregate.fold = options_.fold;
      aggregate.run = run;
      Result<AggregationResult> result = Aggregate(*input, aggregate);
      if (!result.ok()) return result.status();
      labels_ = std::move(result->clustering);
      report.outcome = MergeOutcomes(report.outcome, result->outcome);
      report.rebuilt = true;
      drift_accum_ = 0.0;
      ever_clustered_ = true;
      TelemetryCount(telemetry, "stream.repair.rebuilds");
    } else {
      InstrumentedSpan span(telemetry, "stream.repair");
      InstrumentedTimer timer(telemetry, "stream.repair.nanos");
      Result<ClustererRun> repaired =
          LocalSearchClusterer(options_.repair)
              .RunFromControlled(instance, fold_index_.Fold(labels_), run);
      if (!repaired.ok()) return repaired.status();
      labels_ = fold_index_.Expand(repaired->clustering);
      report.outcome = MergeOutcomes(report.outcome, repaired->outcome);
      report.repaired = true;
      TelemetryCount(telemetry, "stream.repair.runs");
    }
  }
  // Final scoring runs outside the batch budget, like Aggregate's: a
  // report without a cost would be useless.
  {
    InstrumentedSpan span(telemetry, "stream.score");
    Result<double> cost = instance.Cost(fold_index_.Fold(labels_));
    if (!cost.ok()) return cost.status();
    cost_ = *cost;
  }
  predicted_cost_ = cost_;
  report.cost = cost_;
  TelemetryTracePoint(telemetry, "stream", flush_count_, cost_,
                      report.events_applied);
  ++flush_count_;
  return report;
}

Result<StreamReplayResult> ReplayEventLog(
    StreamAggregator& stream, const std::vector<StreamRecord>& records,
    const std::function<RunContext()>& make_run,
    const std::vector<std::size_t>* lines) {
  StreamReplayResult result;
  const auto flush = [&]() -> Status {
    const RunContext run = make_run ? make_run() : RunContext();
    Result<StreamFlushReport> report = stream.Flush(run);
    if (!report.ok()) return report.status();
    result.outcome = MergeOutcomes(result.outcome, report->outcome);
    if (report->rebuilt) ++result.rebuilds;
    if (report->repaired) ++result.repairs;
    result.evictions += report->evictions;
    result.reports.push_back(*std::move(report));
    return Status::OK();
  };
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StreamRecord& record = records[r];
    if (std::holds_alternative<FlushMarker>(record)) {
      Status status = flush();
      if (!status.ok()) return status;
      continue;
    }
    Status status = stream.Ingest(ToStreamEvent(record));
    if (!status.ok()) {
      // Ingest rejections are semantic InvalidArguments; with a line map
      // from ParseEventLog they read like parse errors, pointing at the
      // offending line of the original file.
      if (status.code() == StatusCode::kInvalidArgument && lines != nullptr &&
          r < lines->size()) {
        return Status::InvalidArgument(
            "event log line " + std::to_string((*lines)[r]) + ": " +
            std::string(status.message()));
      }
      return status;
    }
  }
  if (stream.pending_events() > 0 || result.reports.empty()) {
    Status status = flush();
    if (!status.ok()) return status;
  }
  return result;
}

}  // namespace clustagg
