// Differential suite for the streaming subsystem: after every flushed
// prefix of a randomized event log, the incremental state — maintained
// X matrix, fold grouping, repaired labels, exact cost — must be
// *bit-identical* to a from-scratch batch rebuild of the same prefix
// (tests/oracle.h), across dense/lazy backends, folded/unfolded, and
// weighted/missing fixtures. Also pins the rebuild fallback to the full
// Aggregate pipeline, the small-n exact-optimum bracket, and per-batch
// run-control consistency.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/aggregator.h"
#include "core/clustering.h"
#include "oracle.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace {

using oracle::BatchMirror;
using oracle::EventLogShape;
using oracle::RandomEventLog;

struct Fixture {
  const char* name;
  bool fold;
  bool weighted;
  double missing_probability;
  MissingValuePolicy policy;
};

const Fixture kFixtures[] = {
    {"plain", false, false, 0.0, MissingValuePolicy::kRandomCoin},
    {"folded", true, false, 0.0, MissingValuePolicy::kRandomCoin},
    {"weighted", false, true, 0.0, MissingValuePolicy::kRandomCoin},
    {"missing_coin", false, false, 0.25, MissingValuePolicy::kRandomCoin},
    {"missing_ignore", false, false, 0.25, MissingValuePolicy::kIgnore},
    {"folded_weighted_missing", true, true, 0.2,
     MissingValuePolicy::kRandomCoin},
};

StreamAggregatorOptions OptionsFor(const Fixture& fixture,
                                   double rebuild_threshold) {
  StreamAggregatorOptions options;
  options.fold = fixture.fold;
  options.missing.policy = fixture.policy;
  options.num_threads = 1;
  options.rebuild_threshold = rebuild_threshold;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  return options;
}

EventLogShape ShapeFor(const Fixture& fixture, Rng* rng) {
  EventLogShape shape;
  shape.initial_objects = 3 + rng->NextBounded(5);
  shape.initial_clusterings = 1 + rng->NextBounded(3);
  shape.events = 12 + rng->NextBounded(10);
  shape.max_labels = 2 + rng->NextBounded(4);
  shape.weighted = fixture.weighted;
  shape.missing_probability = fixture.missing_probability;
  shape.duplicate_object_probability = fixture.fold ? 0.5 : 0.0;
  return shape;
}

/// Extra knobs for the removal / window regimes; the all-defaults value
/// reproduces the pre-removal differential exactly.
struct Churn {
  double remove_clustering_probability = 0.0;
  double remove_object_probability = 0.0;
  std::size_t window = 0;
};

/// Replays the log one record at a time and runs the full oracle
/// comparison after every flush (explicit markers plus the final one),
/// i.e. after every prefix at which the stream exposes a solution.
void RunDifferential(const Fixture& fixture, double rebuild_threshold,
                     std::uint64_t seed, const Churn& churn = {}) {
  Rng rng(seed);
  EventLogShape shape = ShapeFor(fixture, &rng);
  shape.remove_clustering_probability = churn.remove_clustering_probability;
  shape.remove_object_probability = churn.remove_object_probability;
  shape.window = churn.window;
  const std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
  StreamAggregatorOptions options = OptionsFor(fixture, rebuild_threshold);
  options.window = churn.window;
  StreamAggregator stream(options);
  BatchMirror mirror(churn.window);
  std::size_t flushes = 0;
  auto flush_and_compare = [&]() {
    Result<StreamFlushReport> report = stream.Flush();
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_EQ(report->outcome, RunOutcome::kConverged);
    SCOPED_TRACE("flush " + std::to_string(flushes++));
    oracle::ExpectStreamMatchesBatch(stream, mirror, *report);
  };
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) {
      flush_and_compare();
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }
    StreamEvent event = ToStreamEvent(record);
    mirror.Apply(event);
    ASSERT_TRUE(stream.Ingest(std::move(event)).ok());
  }
  flush_and_compare();
}

// The headline invariant, warm-repair regime: a high threshold keeps
// every flush on the incremental LOCALSEARCH repair path (after the
// initial build), so the comparison exercises the column maintenance
// and the warm-started repair against the batch rebuild.
TEST(StreamDifferentialTest, WarmRepairMatchesBatchOnEveryPrefix) {
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 1e9, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Rebuild regime: threshold 0 forces the full-Aggregate fallback on
// every flush that moved anything, pinning the reconstruction of the
// input set and the fallback plumbing to the batch pipeline.
TEST(StreamDifferentialTest, RebuildFallbackMatchesBatchAggregate) {
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 0.0, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Mixed regime: a mid-range threshold lets drift accumulation pick the
// path flush by flush; whichever it picks must match its batch replay.
TEST(StreamDifferentialTest, DriftPolicyMixedRegimeMatches) {
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 0.12, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Removal regime (the PR 8 headline): logs mixing RemoveClustering /
// RemoveObject into the adds must keep every flushed prefix
// bit-identical to a from-scratch batch build over the *surviving*
// inputs — X on both backends, fold grouping, alive ids, repaired
// labels, exact cost — across all fixtures.
TEST(StreamDifferentialTest, RemovalsMatchBatchOnEveryPrefix) {
  Churn churn;
  churn.remove_clustering_probability = 0.25;
  churn.remove_object_probability = 0.2;
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 21; seed <= 26; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 1e9, seed, churn);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Removals under the rebuild fallback: threshold 0 forces a full
// Aggregate over the surviving input set after every flush, pinning
// CurrentInput() reconstruction with holes punched by removals.
TEST(StreamDifferentialTest, RemovalsMatchBatchUnderRebuildFallback) {
  Churn churn;
  churn.remove_clustering_probability = 0.25;
  churn.remove_object_probability = 0.2;
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 31; seed <= 33; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 0.0, seed, churn);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Sliding window: --window auto-evictions are implicit removals of the
// oldest alive clustering; every eviction prefix must match the batch
// build over the window's survivors (the mirror evicts in lockstep).
TEST(StreamDifferentialTest, WindowEvictionMatchesBatchOnEveryPrefix) {
  Churn churn;
  churn.window = 4;
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 41; seed <= 44; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 1e9, seed, churn);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Window and explicit removals together — the mixes interact (an
// explicit removal shrinks the window occupancy; a later add may then
// not evict), and the mirror must agree on exactly which ids survive.
TEST(StreamDifferentialTest, WindowPlusExplicitRemovalsMatchBatch) {
  Churn churn;
  churn.window = 3;
  churn.remove_clustering_probability = 0.2;
  churn.remove_object_probability = 0.15;
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 51; seed <= 53; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 1e9, seed, churn);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Mixed drift regime with removals: removals charge their vanished
// uncertainty mass to drift, so the rebuild-vs-repair decision flips
// flush by flush; whichever path fires must match its batch replay.
TEST(StreamDifferentialTest, DriftPolicyMixedRegimeWithRemovalsMatches) {
  Churn churn;
  churn.remove_clustering_probability = 0.2;
  churn.remove_object_probability = 0.15;
  for (const Fixture& fixture : kFixtures) {
    for (std::uint64_t seed = 71; seed <= 73; ++seed) {
      SCOPED_TRACE(std::string(fixture.name) +
                   ", seed = " + std::to_string(seed));
      RunDifferential(fixture, 0.12, seed, churn);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Maintained distances alone, compared after *every single event* (one
// flush per event, rebuilds disabled beyond the first): the finest
// prefix granularity for the X invariant on both backends.
TEST(StreamDifferentialTest, DistancesMatchAfterEverySingleEvent) {
  for (const Fixture& fixture : kFixtures) {
    SCOPED_TRACE(fixture.name);
    Rng rng(99);
    EventLogShape shape = ShapeFor(fixture, &rng);
    shape.flush_probability = 0.0;
    const std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
    StreamAggregator stream(OptionsFor(fixture, 1e9));
    BatchMirror mirror;
    std::size_t applied = 0;
    for (const StreamRecord& record : records) {
      StreamEvent event = ToStreamEvent(record);
      mirror.Apply(event);
      ASSERT_TRUE(stream.Ingest(std::move(event)).ok());
      Result<StreamFlushReport> report = stream.Flush();
      ASSERT_TRUE(report.ok()) << report.status().message();
      SCOPED_TRACE("event " + std::to_string(applied++));
      if (mirror.num_clusterings() == 0) continue;
      const ClusteringSet input = mirror.Input();
      oracle::ExpectSameDistances(
          stream, oracle::BatchInstance(input, stream.options().missing,
                                        DistanceBackend::kDense));
      oracle::ExpectSameDistances(
          stream, oracle::BatchInstance(input, stream.options().missing,
                                        DistanceBackend::kLazy));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Finest granularity for the removal paths: one flush per event, so
// every individual RemoveClustering / RemoveObject / window eviction is
// immediately checked against both batch backends.
TEST(StreamDifferentialTest, DistancesMatchAfterEverySingleRemovalEvent) {
  for (const Fixture& fixture : kFixtures) {
    SCOPED_TRACE(fixture.name);
    Rng rng(123);
    EventLogShape shape = ShapeFor(fixture, &rng);
    shape.flush_probability = 0.0;
    shape.remove_clustering_probability = 0.3;
    shape.remove_object_probability = 0.25;
    shape.window = 5;
    const std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
    StreamAggregatorOptions options = OptionsFor(fixture, 1e9);
    options.window = shape.window;
    StreamAggregator stream(options);
    BatchMirror mirror(shape.window);
    std::size_t applied = 0;
    for (const StreamRecord& record : records) {
      StreamEvent event = ToStreamEvent(record);
      mirror.Apply(event);
      ASSERT_TRUE(stream.Ingest(std::move(event)).ok());
      Result<StreamFlushReport> report = stream.Flush();
      ASSERT_TRUE(report.ok()) << report.status().message();
      SCOPED_TRACE("event " + std::to_string(applied++));
      EXPECT_EQ(stream.clustering_ids(), mirror.clustering_ids());
      EXPECT_EQ(stream.object_ids(), mirror.object_ids());
      if (mirror.num_clusterings() == 0) continue;
      const ClusteringSet input = mirror.Input();
      oracle::ExpectSameDistances(
          stream, oracle::BatchInstance(input, stream.options().missing,
                                        DistanceBackend::kDense));
      oracle::ExpectSameDistances(
          stream, oracle::BatchInstance(input, stream.options().missing,
                                        DistanceBackend::kLazy));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Small-n exact oracle sweep (satellite): random event logs replayed
// through the stream must end with a cost no better than the EXACT
// optimum and no worse than... at least the per-pair lower bound.
TEST(StreamDifferentialTest, SmallNCostBracketedByExactAndLowerBound) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    EventLogShape shape;
    // Worst case every event adds an object: 4 + 8 = 12 keeps the EXACT
    // oracle tractable.
    shape.initial_objects = 3 + rng.NextBounded(2);
    shape.initial_clusterings = 2;
    shape.events = 8;
    shape.max_labels = 3;
    const std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
    StreamAggregator stream(StreamAggregatorOptions{});
    BatchMirror mirror;
    for (const StreamRecord& record : records) {
      if (std::holds_alternative<FlushMarker>(record)) {
        ASSERT_TRUE(stream.Flush().ok());
        continue;
      }
      StreamEvent event = ToStreamEvent(record);
      mirror.Apply(event);
      ASSERT_TRUE(stream.Ingest(std::move(event)).ok());
    }
    Result<StreamFlushReport> report = stream.Flush();
    ASSERT_TRUE(report.ok()) << report.status().message();
    oracle::ExpectCostBracketedByExact(stream, mirror);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Regression (satellite groundwork audit): appending a clustering whose
// labels are non-contiguous (gaps, huge ids) must behave exactly like
// its normalized twin — the distance layer only compares labels for
// equality, so no append path may renormalize inconsistently.
TEST(StreamDifferentialTest, NonContiguousLabelsMatchNormalizedTwin) {
  const std::vector<Clustering::Label> raw = {7, 900001, 7, 42, 900001, 42};
  std::vector<Clustering::Label> normalized = raw;
  Clustering twin = Clustering(normalized).Normalized();
  StreamAggregator stream_raw{StreamAggregatorOptions{}};
  StreamAggregator stream_norm{StreamAggregatorOptions{}};
  ASSERT_TRUE(
      stream_raw.Ingest(AddClusteringEvent{raw, 1.0}).ok());
  ASSERT_TRUE(
      stream_norm.Ingest(AddClusteringEvent{twin.labels(), 1.0}).ok());
  ASSERT_TRUE(
      stream_raw.Ingest(AddClusteringEvent{{3, 3, 5, 5, 9, 9}, 1.0}).ok());
  ASSERT_TRUE(
      stream_norm.Ingest(AddClusteringEvent{{0, 0, 1, 1, 2, 2}, 1.0}).ok());
  Result<StreamFlushReport> raw_report = stream_raw.Flush();
  Result<StreamFlushReport> norm_report = stream_norm.Flush();
  ASSERT_TRUE(raw_report.ok() && norm_report.ok());
  for (std::size_t v = 1; v < 6; ++v) {
    for (std::size_t u = 0; u < v; ++u) {
      EXPECT_EQ(stream_raw.distance(u, v), stream_norm.distance(u, v));
    }
  }
  EXPECT_EQ(raw_report->cost, norm_report->cost);
  EXPECT_EQ(stream_raw.labels().labels(), stream_norm.labels().labels());
}

// Per-batch run control: a cancelled batch applies a prefix of the
// queue atomically, keeps the remainder pending, and the next
// (unbudgeted) flush converges to exactly the state of a never-
// interrupted stream fed the same events.
TEST(StreamDifferentialTest, CancelledBatchResumesConsistently) {
  Rng rng(7);
  EventLogShape shape;
  shape.initial_objects = 6;
  shape.initial_clusterings = 2;
  shape.events = 14;
  shape.flush_probability = 0.0;
  const std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
  StreamAggregator interrupted{StreamAggregatorOptions{}};
  StreamAggregator straight{StreamAggregatorOptions{}};
  for (const StreamRecord& record : records) {
    StreamEvent event = ToStreamEvent(record);
    ASSERT_TRUE(interrupted.Ingest(event).ok());
    ASSERT_TRUE(straight.Ingest(std::move(event)).ok());
  }
  // A pre-cancelled context stops the batch before any event applies.
  const RunContext cancelled = RunContext::Cancellable();
  cancelled.RequestCancel();
  Result<StreamFlushReport> cut = interrupted.Flush(cancelled);
  ASSERT_TRUE(cut.ok()) << cut.status().message();
  EXPECT_EQ(cut->outcome, RunOutcome::kCancelled);
  EXPECT_EQ(cut->events_applied, 0u);
  EXPECT_GT(interrupted.pending_events(), 0u);
  // Resume without a budget: both streams must land on identical state.
  Result<StreamFlushReport> resumed = interrupted.Flush();
  Result<StreamFlushReport> direct = straight.Flush();
  ASSERT_TRUE(resumed.ok() && direct.ok());
  EXPECT_EQ(resumed->outcome, RunOutcome::kConverged);
  EXPECT_EQ(interrupted.pending_events(), 0u);
  EXPECT_EQ(interrupted.labels().labels(), straight.labels().labels());
  EXPECT_EQ(resumed->cost, direct->cost);
  for (std::size_t v = 1; v < interrupted.num_objects(); ++v) {
    for (std::size_t u = 0; u < v; ++u) {
      EXPECT_EQ(interrupted.distance(u, v), straight.distance(u, v));
    }
  }
}

}  // namespace
}  // namespace clustagg
