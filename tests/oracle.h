#ifndef CLUSTAGG_TESTS_ORACLE_H_
#define CLUSTAGG_TESTS_ORACLE_H_

// Reusable differential-testing oracle for the streaming subsystem: a
// batch mirror that rebuilds from-scratch state (ClusteringSet,
// CorrelationInstance, SignatureIndex fold) for any event-log prefix,
// a seeded random event-log generator, and EXPECT helpers that pin the
// incremental state — X matrix, fold grouping, repaired labels, cost —
// *bit-identical* to the batch rebuild. Shared by
// stream_differential_test.cc, stream_test.cc, and the stream axiom
// block of property_test.cc.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance_source.h"
#include "core/aggregator.h"
#include "core/clustering.h"
#include "core/clustering_set.h"
#include "core/correlation_instance.h"
#include "core/local_search.h"
#include "core/signature_index.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace oracle {

/// Shape knobs for RandomEventLog.
struct EventLogShape {
  /// Objects covered by the first clustering (the log opens with
  /// `initial_clusterings` AddClustering events over this many objects).
  std::size_t initial_objects = 5;
  std::size_t initial_clusterings = 2;
  /// Random events appended after the opening block.
  std::size_t events = 16;
  /// Labels are drawn from [0, max_labels).
  std::size_t max_labels = 4;
  /// Probability that a random event is AddObject (else AddClustering).
  double add_object_probability = 0.45;
  /// Per-label probability of the missing marker.
  double missing_probability = 0.0;
  /// Draw non-unit clustering weights from (0.25, 2.25).
  bool weighted = false;
  /// Probability of a FlushMarker after each random event.
  double flush_probability = 0.3;
  /// Duplicate an existing object's label tuple instead of drawing a
  /// fresh one, with this probability — exercises signature folding.
  double duplicate_object_probability = 0.0;
  /// Probability that a random event removes an alive clustering /
  /// object (by stable id, always valid; checked before the add
  /// probabilities). Removals keep at least 2 clusterings and 3 objects
  /// alive so every prefix stays a meaningful instance.
  double remove_clustering_probability = 0.0;
  double remove_object_probability = 0.0;
  /// Mirrors StreamAggregatorOptions::window: the generated removals
  /// account for the auto-evictions the stream will perform, so they
  /// never name an id the window already evicted. 0 = unbounded.
  std::size_t window = 0;
};

/// Deterministic random event log: an opening block of
/// `initial_clusterings` clusterings over `initial_objects` objects,
/// then `events` random AddClustering / AddObject / RemoveClustering /
/// RemoveObject events with optional flush markers. Always well-formed
/// for StreamAggregator::Ingest (removals name alive ids, window
/// evictions included); with all-zero removal probabilities and window
/// the draw sequence is byte-identical to the pre-removal generator.
inline std::vector<StreamRecord> RandomEventLog(const EventLogShape& shape,
                                                Rng* rng) {
  std::vector<StreamRecord> records;
  std::size_t n = shape.initial_objects;
  std::size_t m = 0;
  // Per-object label tuples (alive clusterings, in alive order), so
  // AddObject events can duplicate an existing signature on request and
  // removals can keep the tuples consistent.
  std::vector<std::vector<Clustering::Label>> tuples(n);
  // Alive stable ids, mirrored exactly as StreamAggregator assigns
  // them: monotonic, never reused, window evicting the front.
  std::vector<std::uint64_t> clustering_ids;
  std::vector<std::uint64_t> object_ids;
  std::uint64_t next_clustering_id = 0;
  std::uint64_t next_object_id = 0;
  for (std::size_t v = 0; v < n; ++v) object_ids.push_back(next_object_id++);
  auto draw_label = [&]() -> Clustering::Label {
    if (shape.missing_probability > 0.0 &&
        rng->NextBernoulli(shape.missing_probability)) {
      return Clustering::kMissing;
    }
    return static_cast<Clustering::Label>(rng->NextBounded(shape.max_labels));
  };
  auto drop_clustering_at = [&](std::size_t pos) {
    clustering_ids.erase(clustering_ids.begin() +
                         static_cast<std::ptrdiff_t>(pos));
    for (std::vector<Clustering::Label>& tuple : tuples) {
      tuple.erase(tuple.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    --m;
  };
  auto add_clustering = [&]() {
    AddClusteringEvent event;
    event.labels.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      event.labels[v] = draw_label();
      tuples[v].push_back(event.labels[v]);
    }
    if (shape.weighted) event.weight = rng->NextUniform(0.25, 2.25);
    ++m;
    clustering_ids.push_back(next_clustering_id++);
    records.emplace_back(std::move(event));
    while (shape.window > 0 && clustering_ids.size() > shape.window) {
      drop_clustering_at(0);
    }
  };
  auto add_object = [&]() {
    AddObjectEvent event;
    if (n > 0 && shape.duplicate_object_probability > 0.0 &&
        rng->NextBernoulli(shape.duplicate_object_probability)) {
      event.labels = tuples[rng->NextBounded(n)];
    } else {
      event.labels.resize(m);
      for (std::size_t i = 0; i < m; ++i) event.labels[i] = draw_label();
    }
    tuples.push_back(event.labels);
    object_ids.push_back(next_object_id++);
    ++n;
    records.emplace_back(std::move(event));
  };
  auto remove_clustering = [&]() {
    const std::size_t pos = rng->NextBounded(clustering_ids.size());
    RemoveClusteringEvent event;
    event.id = clustering_ids[pos];
    drop_clustering_at(pos);
    records.emplace_back(event);
  };
  auto remove_object = [&]() {
    const std::size_t pos = rng->NextBounded(object_ids.size());
    RemoveObjectEvent event;
    event.id = object_ids[pos];
    object_ids.erase(object_ids.begin() + static_cast<std::ptrdiff_t>(pos));
    tuples.erase(tuples.begin() + static_cast<std::ptrdiff_t>(pos));
    --n;
    records.emplace_back(event);
  };
  for (std::size_t i = 0; i < shape.initial_clusterings; ++i) {
    add_clustering();
  }
  for (std::size_t e = 0; e < shape.events; ++e) {
    if (m > 2 && shape.remove_clustering_probability > 0.0 &&
        rng->NextBernoulli(shape.remove_clustering_probability)) {
      remove_clustering();
    } else if (n > 3 && shape.remove_object_probability > 0.0 &&
               rng->NextBernoulli(shape.remove_object_probability)) {
      remove_object();
    } else if (rng->NextBernoulli(shape.add_object_probability)) {
      add_object();
    } else {
      add_clustering();
    }
    if (rng->NextBernoulli(shape.flush_probability)) {
      records.emplace_back(FlushMarker{});
    }
  }
  return records;
}

/// From-scratch mirror of the stream's applied input state: replays the
/// same events — adds, removals, and the sliding-window auto-evictions
/// a `window` implies — into plain label columns and hands out the
/// batch-side artifacts (ClusteringSet, instances, fold index) the
/// oracle compares against. Assigns the same stable ids the stream
/// does, naively: columns are erased outright, nothing incremental.
class BatchMirror {
 public:
  BatchMirror() = default;
  explicit BatchMirror(std::size_t window) : window_(window) {}

  void Apply(const StreamEvent& event) {
    if (const auto* add = std::get_if<AddClusteringEvent>(&event)) {
      // A clustering on a clustering-less mirror defines the objects,
      // matching StreamAggregator::Ingest.
      if (columns_.empty() && add->labels.size() >= n_) {
        n_ = add->labels.size();
        while (object_ids_.size() < n_) {
          object_ids_.push_back(next_object_id_++);
        }
      }
      ASSERT_EQ(add->labels.size(), n_);
      columns_.push_back(add->labels);
      weights_.push_back(add->weight);
      clustering_ids_.push_back(next_clustering_id_++);
      while (window_ > 0 && columns_.size() > window_) {
        DropClusteringAt(0);
      }
    } else if (const auto* object = std::get_if<AddObjectEvent>(&event)) {
      ASSERT_EQ(object->labels.size(), columns_.size());
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        columns_[i].push_back(object->labels[i]);
      }
      object_ids_.push_back(next_object_id_++);
      ++n_;
    } else if (const auto* drop = std::get_if<RemoveClusteringEvent>(&event)) {
      DropClusteringAt(PositionOf(clustering_ids_, drop->id));
    } else {
      const auto& gone = std::get<RemoveObjectEvent>(event);
      const std::size_t pos = PositionOf(object_ids_, gone.id);
      for (std::vector<Clustering::Label>& column : columns_) {
        column.erase(column.begin() + static_cast<std::ptrdiff_t>(pos));
      }
      object_ids_.erase(object_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
      --n_;
    }
  }

  std::size_t num_objects() const { return n_; }
  std::size_t num_clusterings() const { return columns_.size(); }
  const std::vector<std::uint64_t>& clustering_ids() const {
    return clustering_ids_;
  }
  const std::vector<std::uint64_t>& object_ids() const { return object_ids_; }

  /// The ClusteringSet a from-scratch rebuild of this prefix aggregates.
  ClusteringSet Input() const {
    std::vector<Clustering> clusterings;
    clusterings.reserve(columns_.size());
    for (const std::vector<Clustering::Label>& column : columns_) {
      clusterings.emplace_back(column);
    }
    Result<ClusteringSet> set =
        ClusteringSet::Create(std::move(clusterings), weights_);
    EXPECT_TRUE(set.ok()) << set.status().message();
    return *std::move(set);
  }

 private:
  static std::size_t PositionOf(const std::vector<std::uint64_t>& ids,
                                std::uint64_t id) {
    std::size_t pos = 0;
    while (pos < ids.size() && ids[pos] != id) ++pos;
    EXPECT_LT(pos, ids.size()) << "removal names unknown id " << id;
    return pos;
  }

  void DropClusteringAt(std::size_t pos) {
    ASSERT_LT(pos, columns_.size());
    columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(pos));
    weights_.erase(weights_.begin() + static_cast<std::ptrdiff_t>(pos));
    clustering_ids_.erase(clustering_ids_.begin() +
                          static_cast<std::ptrdiff_t>(pos));
  }

  std::vector<std::vector<Clustering::Label>> columns_;
  std::vector<double> weights_;
  std::size_t n_ = 0;
  std::size_t window_ = 0;
  std::vector<std::uint64_t> clustering_ids_;
  std::vector<std::uint64_t> object_ids_;
  std::uint64_t next_clustering_id_ = 0;
  std::uint64_t next_object_id_ = 0;
};

/// Unfolded batch instance over the prefix, on the requested backend.
inline CorrelationInstance BatchInstance(const ClusteringSet& input,
                                         const MissingValueOptions& missing,
                                         DistanceBackend backend,
                                         std::size_t num_threads = 1) {
  DistanceSourceOptions options;
  options.backend = backend;
  options.num_threads = num_threads;
  Result<CorrelationInstance> instance =
      CorrelationInstance::Build(input, missing, options);
  EXPECT_TRUE(instance.ok()) << instance.status().message();
  return *std::move(instance);
}

/// Folded batch instance: the s x s sub-instance over one representative
/// per SignatureIndex group, with the group sizes as multiplicities —
/// exactly what the fold pipeline and the stream's folded repair build.
inline CorrelationInstance FoldedBatchInstance(
    const ClusteringSet& input, const SignatureIndex& index,
    const MissingValueOptions& missing, DistanceBackend backend,
    std::size_t num_threads = 1) {
  DistanceSourceOptions options;
  options.backend = backend;
  options.num_threads = num_threads;
  Result<CorrelationInstance> instance =
      CorrelationInstance::BuildFolded(input, index, missing, options);
  EXPECT_TRUE(instance.ok()) << instance.status().message();
  return *std::move(instance);
}

/// Folds a full-object partition to signature space by taking each
/// group's representative's label — the stream's warm-start fold.
inline Clustering FoldByIndex(const Clustering& labels,
                              const SignatureIndex& index) {
  std::vector<Clustering::Label> folded(index.num_signatures());
  for (std::size_t g = 0; g < index.num_signatures(); ++g) {
    folded[g] = labels.label(index.representatives()[g]);
  }
  return Clustering(std::move(folded));
}

/// EXPECTs every maintained X_uv bit-identical to the batch instance.
inline void ExpectSameDistances(const StreamAggregator& stream,
                                const CorrelationInstance& batch) {
  ASSERT_EQ(stream.num_objects(), batch.size());
  for (std::size_t v = 1; v < batch.size(); ++v) {
    for (std::size_t u = 0; u < v; ++u) {
      ASSERT_EQ(stream.distance(u, v), batch.distance(u, v))
          << "X mismatch at pair (" << u << ", " << v << ")";
    }
  }
}

/// EXPECTs the stream's fold grouping identical to a
/// from-scratch SignatureIndex::Build over the prefix: same signature
/// count, numbering, representatives, and multiplicities.
inline void ExpectSameFold(const StreamAggregator& stream,
                           const SignatureIndex& index) {
  ASSERT_EQ(stream.fold_signatures(), index.num_signatures());
  EXPECT_EQ(stream.fold_representatives(), index.representatives());
  EXPECT_EQ(stream.fold_multiplicities(), index.multiplicities());
  for (std::size_t v = 0; v < stream.num_objects(); ++v) {
    ASSERT_EQ(stream.signature_of(v), index.signature_of(v))
        << "signature mismatch at object " << v;
  }
}

/// Full per-prefix differential check against the last flush's report:
///  - the maintained X matrix equals the batch instance bit for bit on
///    both backends,
///  - with folding, the stream's grouping equals SignatureIndex and
///    the folded distances match too,
///  - replaying the flush's own fix-up (warm LOCALSEARCH from the
///    recorded pre-repair partition, or the full Aggregate rebuild) on
///    the *batch* artifacts yields bit-identical labels,
///  - the reported cost equals the batch instance's Cost of those labels
///    bit for bit.
inline void ExpectStreamMatchesBatch(const StreamAggregator& stream,
                                     const BatchMirror& mirror,
                                     const StreamFlushReport& report) {
  ASSERT_EQ(stream.num_objects(), mirror.num_objects());
  ASSERT_EQ(stream.num_clusterings(), mirror.num_clusterings());
  EXPECT_EQ(stream.clustering_ids(), mirror.clustering_ids())
      << "alive clustering ids diverge from the batch mirror";
  EXPECT_EQ(stream.object_ids(), mirror.object_ids())
      << "alive object ids diverge from the batch mirror";
  if (mirror.num_clusterings() == 0) return;
  const StreamAggregatorOptions& options = stream.options();
  const ClusteringSet input = mirror.Input();

  const CorrelationInstance dense =
      BatchInstance(input, options.missing, DistanceBackend::kDense);
  {
    SCOPED_TRACE("dense backend");
    ExpectSameDistances(stream, dense);
  }
  {
    SCOPED_TRACE("lazy backend");
    ExpectSameDistances(
        stream, BatchInstance(input, options.missing, DistanceBackend::kLazy));
  }

  // The instance the stream repaired and scored on: folded when folding
  // is active, the full one otherwise.
  SignatureIndex index;
  CorrelationInstance scored = dense;
  if (options.fold) {
    index = SignatureIndex::Build(input);
    ExpectSameFold(stream, index);
    scored = FoldedBatchInstance(input, index, options.missing,
                                 DistanceBackend::kDense);
  }

  // Labels: replay the recorded fix-up on the batch artifacts.
  if (report.rebuilt) {
    AggregatorOptions aggregate = options.rebuild;
    aggregate.missing = options.missing;
    aggregate.num_threads = options.num_threads;
    aggregate.fold = options.fold;
    Result<AggregationResult> batch = Aggregate(input, aggregate);
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    EXPECT_EQ(stream.labels().labels(), batch->clustering.labels())
        << "rebuilt labels diverge from the batch Aggregate";
  } else if (report.repaired) {
    const Clustering start = options.fold
                                 ? FoldByIndex(report.pre_repair, index)
                                 : report.pre_repair;
    Result<ClustererRun> repaired =
        LocalSearchClusterer(options.repair)
            .RunFromControlled(scored, start, RunContext());
    ASSERT_TRUE(repaired.ok()) << repaired.status().message();
    const Clustering expected =
        options.fold ? index.Expand(repaired->clustering)
                     : repaired->clustering;
    EXPECT_EQ(stream.labels().labels(), expected.labels())
        << "repaired labels diverge from the batch warm repair";
  }

  // Cost: the report's exact score must equal the batch instance's.
  const Clustering batch_labels =
      options.fold ? FoldByIndex(stream.labels(), index) : stream.labels();
  Result<double> cost = scored.Cost(batch_labels);
  ASSERT_TRUE(cost.ok()) << cost.status().message();
  EXPECT_EQ(report.cost, *cost) << "reported cost diverges from the batch "
                                   "instance cost (bit-identity required)";
  EXPECT_EQ(stream.cost(), *cost);
}

/// EXPECTs two streams observably bit-identical: dimensions, weights,
/// every maintained X_uv, the fold grouping, the current labels, the
/// exact cost, and the accumulated drift. This is the recovery
/// invariant of docs/durability.md — a stream recovered from
/// journal/snapshot must be indistinguishable from one that replayed
/// the same durable records uninterrupted.
inline void ExpectStreamsBitIdentical(const StreamAggregator& recovered,
                                      const StreamAggregator& reference) {
  ASSERT_EQ(recovered.num_objects(), reference.num_objects());
  ASSERT_EQ(recovered.num_clusterings(), reference.num_clusterings());
  EXPECT_EQ(recovered.clustering_ids(), reference.clustering_ids());
  EXPECT_EQ(recovered.object_ids(), reference.object_ids());
  EXPECT_EQ(recovered.pending_events(), reference.pending_events());
  EXPECT_EQ(recovered.total_weight(), reference.total_weight());
  for (std::size_t v = 1; v < reference.num_objects(); ++v) {
    for (std::size_t u = 0; u < v; ++u) {
      ASSERT_EQ(recovered.distance(u, v), reference.distance(u, v))
          << "X mismatch at pair (" << u << ", " << v << ")";
    }
  }
  EXPECT_EQ(recovered.labels().labels(), reference.labels().labels());
  EXPECT_EQ(recovered.cost(), reference.cost());
  EXPECT_EQ(recovered.drift(), reference.drift());
  ASSERT_EQ(recovered.fold_signatures(), reference.fold_signatures());
  EXPECT_EQ(recovered.fold_representatives(),
            reference.fold_representatives());
  EXPECT_EQ(recovered.fold_multiplicities(),
            reference.fold_multiplicities());
  for (std::size_t v = 0; v < reference.num_objects(); ++v) {
    ASSERT_EQ(recovered.signature_of(v), reference.signature_of(v))
        << "signature mismatch at object " << v;
  }
}

/// Small-n exact oracle: the stream's final cost, measured on the
/// unfolded batch instance, must be at least the instance's per-pair
/// lower bound and at least the EXACT optimum's cost on that same
/// instance. Tolerance covers only summation-order noise; the bounds
/// themselves are not approximate.
inline void ExpectCostBracketedByExact(const StreamAggregator& stream,
                                       const BatchMirror& mirror) {
  ASSERT_LE(mirror.num_objects(), std::size_t{12})
      << "the exact oracle is exponential in n";
  if (mirror.num_clusterings() == 0) return;
  const ClusteringSet input = mirror.Input();
  const CorrelationInstance instance = BatchInstance(
      input, stream.options().missing, DistanceBackend::kDense);
  Result<double> stream_cost = instance.Cost(stream.labels());
  ASSERT_TRUE(stream_cost.ok()) << stream_cost.status().message();
  EXPECT_GE(*stream_cost, instance.LowerBound() - 1e-9);
  AggregatorOptions exact;
  exact.algorithm = AggregationAlgorithm::kExact;
  exact.missing = stream.options().missing;
  exact.num_threads = 1;
  Result<AggregationResult> optimum = Aggregate(input, exact);
  ASSERT_TRUE(optimum.ok()) << optimum.status().message();
  Result<double> optimum_cost = instance.Cost(optimum->clustering);
  ASSERT_TRUE(optimum_cost.ok()) << optimum_cost.status().message();
  EXPECT_GE(*stream_cost, *optimum_cost - 1e-9)
      << "streamed solution beat the exact optimum — the oracle instance "
         "and the stream state disagree";
}

}  // namespace oracle
}  // namespace clustagg

#endif  // CLUSTAGG_TESTS_ORACLE_H_
