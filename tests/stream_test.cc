// Unit tests for the streaming subsystem: event-log parsing and
// round-tripping, Ingest validation, flush edge cases, fold revalidation
// against SignatureIndex, the drift/rebuild policy and a golden pin of
// its exact bits, the replay helper, and the stream.* telemetry wiring.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/clustering.h"
#include "core/signature_index.h"
#include "oracle.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace {

TEST(StreamEventTest, ParsesDirectivesCommentsAndMissing) {
  const std::string text =
      "# a comment\n"
      "\n"
      "clustering 0 1 0\n"
      "clustering weight=2.5 1 1 ?\n"
      "object 0 ?\n"
      "flush\n";
  Result<std::vector<StreamRecord>> records = ParseEventLog(text);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records->size(), 4u);
  const auto& first = std::get<AddClusteringEvent>((*records)[0]);
  EXPECT_EQ(first.labels, (std::vector<Clustering::Label>{0, 1, 0}));
  EXPECT_EQ(first.weight, 1.0);
  const auto& second = std::get<AddClusteringEvent>((*records)[1]);
  EXPECT_EQ(second.weight, 2.5);
  EXPECT_EQ(second.labels[2], Clustering::kMissing);
  const auto& object = std::get<AddObjectEvent>((*records)[2]);
  EXPECT_EQ(object.labels,
            (std::vector<Clustering::Label>{0, Clustering::kMissing}));
  EXPECT_TRUE(std::holds_alternative<FlushMarker>((*records)[3]));
}

TEST(StreamEventTest, ErrorsNameTheOffendingLine) {
  struct Case {
    const char* text;
    const char* line;
  };
  const Case cases[] = {
      {"clustering 0 1\nbogus 1 2\n", "line 2"},
      {"clustering 0 x\n", "line 1"},
      {"clustering weight=-1 0\n", "line 1"},
      {"clustering weight=abc 0\n", "line 1"},
      {"flush now\n", "line 1"},
      {"clustering 0 99999999999999999999\n", "line 1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    Result<std::vector<StreamRecord>> records = ParseEventLog(c.text);
    ASSERT_FALSE(records.ok());
    EXPECT_NE(records.status().message().find(c.line), std::string::npos)
        << records.status().message();
  }
}

TEST(StreamEventTest, FormatParseRoundTripsExactly) {
  Rng rng(3);
  oracle::EventLogShape shape;
  shape.weighted = true;
  shape.missing_probability = 0.2;
  const std::vector<StreamRecord> records =
      oracle::RandomEventLog(shape, &rng);
  Result<std::vector<StreamRecord>> reparsed =
      ParseEventLog(FormatEventLog(records));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  ASSERT_EQ(reparsed->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    ASSERT_EQ(reparsed->at(i).index(), records[i].index());
    if (const auto* add = std::get_if<AddClusteringEvent>(&records[i])) {
      const auto& twin = std::get<AddClusteringEvent>(reparsed->at(i));
      EXPECT_EQ(twin.labels, add->labels);
      EXPECT_EQ(twin.weight, add->weight);  // %.17g round-trips doubles
    } else if (const auto* object =
                   std::get_if<AddObjectEvent>(&records[i])) {
      EXPECT_EQ(std::get<AddObjectEvent>(reparsed->at(i)).labels,
                object->labels);
    }
  }
}

TEST(StreamEventTest, ParsesAndRoundTripsRemovalDirectives) {
  const std::string text =
      "clustering 0 1 0\n"
      "remove_clustering 0\n"
      "object 1 1 1\n"
      "remove_object 2\n"
      "flush\n";
  Result<std::vector<StreamRecord>> records = ParseEventLog(text);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ(std::get<RemoveClusteringEvent>((*records)[1]).id, 0u);
  EXPECT_EQ(std::get<RemoveObjectEvent>((*records)[3]).id, 2u);
  // Format -> Parse is the identity, including a maximal id.
  std::vector<StreamRecord> out;
  out.emplace_back(RemoveClusteringEvent{18446744073709551615ULL});
  out.emplace_back(RemoveObjectEvent{0});
  Result<std::vector<StreamRecord>> reparsed =
      ParseEventLog(FormatEventLog(out));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  ASSERT_EQ(reparsed->size(), 2u);
  EXPECT_EQ(std::get<RemoveClusteringEvent>((*reparsed)[0]).id,
            18446744073709551615ULL);
  EXPECT_EQ(std::get<RemoveObjectEvent>((*reparsed)[1]).id, 0u);
}

TEST(StreamEventTest, RemovalDirectiveErrorsNameTheOffendingLine) {
  struct Case {
    const char* text;
    const char* line;
  };
  const Case cases[] = {
      {"remove_clustering\n", "line 1"},
      {"clustering 0 1\nremove_clustering 1 2\n", "line 2"},
      {"remove_clustering x\n", "line 1"},
      {"remove_object -1\n", "line 1"},
      {"remove_object 18446744073709551616\n", "line 1"},  // UINT64_MAX + 1
      {"remove_object 1.5\n", "line 1"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    Result<std::vector<StreamRecord>> records = ParseEventLog(c.text);
    ASSERT_FALSE(records.ok());
    EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(records.status().message().find(c.line), std::string::npos)
        << records.status().message();
  }
}

TEST(StreamEventTest, LineNumbersSurviveCrlfBomAndBareCr) {
  // CRLF line endings: the error is on physical line 3 of the file and
  // must be reported as line 3, not a CR-skewed count.
  Result<std::vector<StreamRecord>> crlf =
      ParseEventLog("clustering 0 1\r\nflush\r\nbogus\r\n");
  ASSERT_FALSE(crlf.ok());
  EXPECT_NE(crlf.status().message().find("line 3"), std::string::npos)
      << crlf.status().message();
  // A UTF-8 BOM belongs to line 1.
  Result<std::vector<StreamRecord>> bom =
      ParseEventLog("\xEF\xBB\xBF" "bogus 0\nclustering 0\n");
  ASSERT_FALSE(bom.ok());
  EXPECT_NE(bom.status().message().find("line 1"), std::string::npos)
      << bom.status().message();
  // Bare-CR (classic Mac) files split into lines too: three lines, with
  // the error on the second — historically the whole file collapsed
  // onto line 1 because CR counted as padding.
  Result<std::vector<StreamRecord>> bare_cr =
      ParseEventLog("clustering 0 1\rbogus\rflush\r");
  ASSERT_FALSE(bare_cr.ok());
  EXPECT_NE(bare_cr.status().message().find("line 2"), std::string::npos)
      << bare_cr.status().message();
  // The record->line map points each parsed record at its 1-based
  // source line, comments and blanks skipped.
  std::vector<std::size_t> lines;
  Result<std::vector<StreamRecord>> ok = ParseEventLog(
      "# header\r\n\r\nclustering 0 1\r\nremove_clustering 0\r\nflush\r\n",
      &lines);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(lines, (std::vector<std::size_t>{3, 4, 5}));
}

TEST(StreamAggregatorTest, RejectsRemovalOfUnknownOrDeadId) {
  StreamAggregator stream{StreamAggregatorOptions{}};
  // Nothing exists yet: any id is unknown.
  Status empty = stream.Ingest(RemoveClusteringEvent{0});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("0"), std::string::npos);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1, 0}, 1.0}).ok());
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  // Queued state counts: clustering 0 exists only as a pending event.
  EXPECT_TRUE(stream.Ingest(RemoveClusteringEvent{0}).ok());
  // Double removal of the same id is rejected at Ingest — before
  // anything is applied, journaled, or corrupted.
  Status twice = stream.Ingest(RemoveClusteringEvent{0});
  EXPECT_EQ(twice.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(twice.message().find("already-removed"), std::string::npos);
  // Never-assigned ids are unknown.
  EXPECT_EQ(stream.Ingest(RemoveClusteringEvent{99}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.Ingest(RemoveObjectEvent{99}).code(),
            StatusCode::kInvalidArgument);
  // A rejected removal leaves the queue exactly as it was.
  EXPECT_EQ(stream.pending_events(), 3u);
  EXPECT_EQ(stream.pending_clusterings(), 1u);
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.clustering_ids(), (std::vector<std::uint64_t>{1}));
  // Applied-then-removed ids stay dead forever (ids are never reused).
  EXPECT_EQ(stream.Ingest(RemoveClusteringEvent{0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamAggregatorTest, RejectsCoinProbabilityOutsideUnitInterval) {
  // A flush would build X under these options; the bad probability is
  // refused on every call that can still return a Status.
  StreamAggregatorOptions options;
  options.missing.coin_together_probability = 7.0;
  StreamAggregator stream{options};
  EXPECT_EQ(stream.Ingest(AddClusteringEvent{{0, 1, Clustering::kMissing},
                                             1.0})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.pending_events(), 0u);
  StreamAggregator valid{StreamAggregatorOptions{}};
  ASSERT_TRUE(valid.Ingest(AddClusteringEvent{{0, 1, 0}, 1.0}).ok());
  ASSERT_TRUE(valid.Flush().ok());
  EXPECT_EQ(stream.RestoreState(*valid.ExportState()).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamAggregatorTest, RejectsRemovalOfWindowEvictedId) {
  StreamAggregatorOptions options;
  options.window = 2;
  StreamAggregator stream(options);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0}, 1.0}).ok());
  // This add overflows the window: id 0 will be evicted on Flush, and
  // the pending mirror knows it already.
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{1, 0}, 1.0}).ok());
  Status evicted = stream.Ingest(RemoveClusteringEvent{0});
  EXPECT_EQ(evicted.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(evicted.message().find("already-removed"), std::string::npos);
  // The still-alive ids remain removable.
  EXPECT_TRUE(stream.Ingest(RemoveClusteringEvent{2}).ok());
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.clustering_ids(), (std::vector<std::uint64_t>{1}));
}

TEST(StreamAggregatorTest, WindowEvictsOldestFirstInFirstOut) {
  StreamAggregatorOptions options;
  options.window = 2;
  options.rebuild_threshold = 1e9;
  StreamAggregator stream(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(stream
                    .Ingest(AddClusteringEvent{
                        {static_cast<Clustering::Label>(i % 2), 0, 1}, 1.0})
                    .ok());
  }
  Result<StreamFlushReport> report = stream.Flush();
  ASSERT_TRUE(report.ok()) << report.status().message();
  // 4 adds into a window of 2: ids 0 and 1 evicted, 2 and 3 alive.
  EXPECT_EQ(stream.clustering_ids(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(stream.num_clusterings(), 2u);
  EXPECT_EQ(report->evictions, 2u);
  EXPECT_EQ(stream.evictions(), 2u);
  // The eviction count keeps accumulating across flushes.
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  Result<StreamFlushReport> next = stream.Flush();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->evictions, 1u);
  EXPECT_EQ(stream.evictions(), 3u);
  EXPECT_EQ(stream.clustering_ids(), (std::vector<std::uint64_t>{3, 4}));
}

TEST(StreamAggregatorTest, RemovalShrinksStateAndCountersExactly) {
  StreamAggregator stream{StreamAggregatorOptions{}};
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.distance(0, 1), 0.5);
  // Remove the first clustering: the survivor alone defines X.
  ASSERT_TRUE(stream.Ingest(RemoveClusteringEvent{0}).ok());
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.num_clusterings(), 1u);
  EXPECT_EQ(stream.clustering_ids(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(stream.distance(0, 1), 0.0);
  EXPECT_EQ(stream.distance(1, 2), 1.0);
  EXPECT_EQ(stream.total_weight(), 1.0);
  // Remove the middle object: pairs re-pack, surviving values keep.
  ASSERT_TRUE(stream.Ingest(RemoveObjectEvent{1}).ok());
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.num_objects(), 2u);
  EXPECT_EQ(stream.object_ids(), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(stream.distance(0, 1), 1.0);  // was the (0, 2) pair
}

TEST(StreamAggregatorTest, IngestValidatesDimensionsAndLabels) {
  StreamAggregator stream{StreamAggregatorOptions{}};
  // The first clustering on an empty stream defines the objects.
  EXPECT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1}, 1.0}).ok());
  EXPECT_EQ(stream.pending_objects(), 2u);
  // Once a clustering is queued the dimension is pinned.
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{0}, 1.0}).ok());
  // AddObject must cover the queued clustering too.
  EXPECT_FALSE(stream.Ingest(AddObjectEvent{{}}).ok());
  EXPECT_TRUE(stream.Ingest(AddObjectEvent{{0}}).ok());
  // Dimensions include queued events: next clustering covers 3 objects.
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{0, 0}, 1.0}).ok());
  EXPECT_TRUE(stream.Ingest(AddClusteringEvent{{4, 0, 4}, 1.0}).ok());
  // Bad labels and weights are rejected.
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{-7, 0, 0}, 1.0}).ok());
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{0, 0, 0}, 0.0}).ok());
  EXPECT_FALSE(stream.Ingest(AddClusteringEvent{{0, 0, 0}, -1.0}).ok());
  EXPECT_EQ(stream.pending_events(), 3u);
  EXPECT_EQ(stream.pending_objects(), 3u);
  EXPECT_EQ(stream.pending_clusterings(), 2u);
}

TEST(StreamAggregatorTest, FlushWithNoClusteringsYieldsSingletons) {
  StreamAggregator stream{StreamAggregatorOptions{}};
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{}, 1.0}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream.Ingest(AddObjectEvent{{static_cast<Clustering::Label>(
                                  i % 2)}})
                    .ok());
  }
  // Remove the clustering case: a stream of only objects.
  StreamAggregator objects_only{StreamAggregatorOptions{}};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(objects_only.Ingest(AddObjectEvent{{}}).ok());
  }
  Result<StreamFlushReport> report = objects_only.Flush();
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->cost, 0.0);
  EXPECT_FALSE(report->repaired);
  EXPECT_FALSE(report->rebuilt);
  EXPECT_EQ(objects_only.labels().labels(),
            (std::vector<Clustering::Label>{0, 1, 2}));
  EXPECT_EQ(objects_only.distance(0, 2), 0.0);
}

TEST(StreamAggregatorTest, FirstFlushRebuildsThenWarmRepairs) {
  StreamAggregatorOptions options;
  options.rebuild_threshold = 1e9;  // never rebuild on drift
  StreamAggregator stream(options);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1, 1}, 1.0}).ok());
  Result<StreamFlushReport> first = stream.Flush();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->rebuilt) << "the initial build must be a full rebuild";
  EXPECT_FALSE(first->repaired);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1, 1}, 1.0}).ok());
  Result<StreamFlushReport> second = stream.Flush();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->repaired);
  EXPECT_FALSE(second->rebuilt);
  EXPECT_EQ(second->cost, 0.0);  // unanimous inputs: perfect aggregation
  EXPECT_TRUE(stream.labels().SameCluster(0, 1));
  EXPECT_FALSE(stream.labels().SameCluster(1, 2));
}

TEST(StreamAggregatorTest, DriftThresholdTriggersRebuild) {
  StreamAggregatorOptions options;
  options.rebuild_threshold = 0.05;
  StreamAggregator stream(options);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_EQ(stream.drift(), 0.0) << "rebuild must reset drift";
  // A flatly contradicting clustering moves every X by ~1/2: far past
  // the threshold.
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 1, 0, 1}, 1.0}).ok());
  Result<StreamFlushReport> report = stream.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->drift, options.rebuild_threshold);
  EXPECT_TRUE(report->rebuilt);
  EXPECT_EQ(stream.drift(), 0.0);
  // An agreeing duplicate of the first clustering moves X by 1/6 per
  // disagreeing pair on average — below nothing; raise the threshold so
  // the repair path is taken and drift accumulates across flushes.
  StreamAggregatorOptions accumulate = options;
  accumulate.rebuild_threshold = 0.9;
  StreamAggregator slow(accumulate);
  ASSERT_TRUE(slow.Ingest(AddClusteringEvent{{0, 0, 1, 1}, 1.0}).ok());
  ASSERT_TRUE(slow.Flush().ok());
  double last_drift = 0.0;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(slow.Ingest(AddClusteringEvent{{0, 1, 0, 1}, 1.0}).ok());
    Result<StreamFlushReport> r = slow.Flush();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->repaired);
    EXPECT_GT(r->drift, last_drift)
        << "warm repair must not reset accumulated drift";
    last_drift = r->drift;
  }
}

TEST(StreamAggregatorTest, IncrementalFoldMatchesSignatureIndex) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    oracle::EventLogShape shape;
    shape.duplicate_object_probability = 0.6;
    shape.missing_probability = 0.15;
    shape.max_labels = 3;
    const std::vector<StreamRecord> records =
        oracle::RandomEventLog(shape, &rng);
    StreamAggregatorOptions options;
    options.fold = true;
    StreamAggregator stream(options);
    oracle::BatchMirror mirror;
    for (const StreamRecord& record : records) {
      if (std::holds_alternative<FlushMarker>(record)) continue;
      StreamEvent event =
          std::holds_alternative<AddClusteringEvent>(record)
              ? StreamEvent(std::get<AddClusteringEvent>(record))
              : StreamEvent(std::get<AddObjectEvent>(record));
      mirror.Apply(event);
      ASSERT_TRUE(stream.Ingest(std::move(event)).ok());
      ASSERT_TRUE(stream.Flush().ok());
      if (mirror.num_clusterings() == 0) continue;
      // After every event, the stream's grouping equals the
      // from-scratch index: count, numbering, reps, multiplicities.
      oracle::ExpectSameFold(stream, SignatureIndex::Build(mirror.Input()));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Golden pin for the drift bookkeeping: fixed event logs replayed with a
// mid-range rebuild threshold, recording for every flush the exact bit
// patterns of the reported drift, the delta-tracked predicted cost and
// the exact cost, plus which fix-up ran. The differential oracles only
// compare drift between two streams running the same code; this table
// pins the values themselves — and with them every rebuild decision —
// so a change to how drift is derived cannot move them silently. The
// logs come from oracle::RandomEventLog under fixed seeds, so the table
// also pins that generator's draw sequence.
struct GoldenLog {
  const char* name;
  std::uint64_t seed;
  bool fold;
  bool weighted;
  double missing_probability;
  MissingValuePolicy policy;
  std::size_t window;
  std::vector<const char*> flushes;
};

std::string FlushFingerprint(const StreamFlushReport& report) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%016llx %016llx %016llx %c%c",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(report.drift)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(report.predicted_cost)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(report.cost)),
                report.rebuilt ? 'B' : '-', report.repaired ? 'R' : '-');
  return buffer;
}

TEST(StreamAggregatorTest, DriftGoldenPinMatchesRecordedBits) {
  const GoldenLog logs[] = {
      {"plain_window_churn",
       5,
       false,
       false,
       0.0,
       MissingValuePolicy::kRandomCoin,
       4,
       {
           "3fe364d934d9364e 4035fffff4000000 403055554c000000 B-",
           "3fe341413ed2d2d3 4044000000000000 403e000000000000 B-",
           "3fcd2d2d2d2d2d2d 4042fffff6000000 404155554d000000 B-",
           "3f988a515f5f5f5f 4043aaaaa0c00000 4043aaaaa0c00000 -R",
           "3fb267bd0a0a0a0a 40442aaaa0800000 404355554c000000 -R",
           "3fb5f5057286bca2 40462aaa9fc00000 4045d55549c00000 -R",
           "3fc993365853d615 4048c00000000000 4048400000000000 B-",
           "3fc0bad5c0000000 404e555548800000 4049fffff2800000 B-",
           "3fd673673a5ca5ca 405095554e200000 404b7fffef400000 B-",
           "3fe30cd7314b94b9 4053100000000000 404d600000000000 B-",
           "3fbfad40997d3abc 404e7ffff0400000 404d7fffefc00000 B-",
           "3fbd5e32f45d1746 4051a00000000000 4051000000000000 -R",
           "3fd339ad0da8faf1 4053400000000000 4051200000000000 B-",
       }},
      {"weighted_missing_ignore",
       6,
       false,
       true,
       0.25,
       MissingValuePolicy::kIgnore,
       0,
       {
           "3fed15e62f1c71c7 402a9253c8000000 401dfa5eac000000 B-",
           "3fa6af06cccccccd 4026723958000000 4025d97d86000000 -R",
           "3fc7aaafe1c71c72 4024350397000000 402205f327000000 B-",
           "3fb07f66ec16c16c 4029838e84000000 4029483818000000 -R",
           "3fbf2d8dec16c16c 40291b0cb6000000 4028a9d95c000000 B-",
           "3fc93465a9f49f4a 402f7aa2ab000000 402ba1fb27000000 B-",
           "3fd1a8b9bf8e38e4 40293efbec800000 4024958b45800000 B-",
           "3fb6d4b5fa4fa4fa 402cca4a7d800000 402b9d9920800000 -R",
           "3fd0c70cd82d82d8 402ff5beac800000 402e36fd14800000 B-",
           "3fccbe870c37dac3 4033182fb6800000 40322f454c800000 B-",
           "3f99039ced61bed6 4032e25722400000 4032521dcd400000 -R",
           "3fb07dd9d86fb587 4032afca16000000 403256e794000000 -R",
           "3fbb1b92b83e0f84 4035e9c710000000 4035d68d12000000 -R",
           "3fd02f5b26f96f97 403be00b8a000000 4039c20b83000000 B-",
           "3fa82fdeb9ab9aba 403fc15bc7000000 403e62dafc000000 -R",
           "3fb93efa097e97e9 403de6dc15200000 403dae6b9c200000 -R",
           "3fbc426e6c30c30c 404072bffc900000 40402fa23f900000 -R",
           "3fc71d9e8b111111 4043f55840f00000 40436e9fefd00000 B-",
           "3f9c6645e999999a 4043d58255a00000 404356028da00000 -R",
           "3facf6a58c444444 4043bd9dbe600000 4043885d41200000 -R",
       }},
      {"weighted_missing_coin",
       7,
       false,
       true,
       0.25,
       MissingValuePolicy::kRandomCoin,
       0,
       {
           "3fef4dc196db6db7 402a15e2fc000000 401fd43a08000000 B-",
           "3fe5524797b6db6e 40248f5651000000 40238be1f2000000 B-",
           "3fc28793f0000000 4025dfec31000000 4024ed05b5000000 B-",
           "3fa3a4b2adb6db6e 40246801a2000000 40246801a2000000 -R",
           "3fb87961c0000000 4024b6329b000000 4024a1841d000000 -R",
           "3fc5b867b1c71c72 402b7eb10f000000 402b7eb10f000000 B-",
           "3fc1c2795f49f49f 4031e77508000000 40318e905f000000 B-",
           "3fb071f90b60b60b 4031f17c8d000000 4031b537a3000000 -R",
           "3fd4f8e1b86fb587 4035c669cf800000 40357accaf800000 B-",
           "3fcf1a87e4ec4ec5 403ecfac62000000 403e238e91000000 B-",
           "3fc75d8d20d20d21 403f4555f7000000 403f2707c1000000 B-",
           "3fbc50f524d9364e 403a25bbda800000 403a1d6ff8800000 -R",
       }},
      {"folded_churn",
       8,
       true,
       false,
       0.0,
       MissingValuePolicy::kRandomCoin,
       4,
       {
           "3ff5a12f69555555 4028000000000000 4024000000000000 B-",
           "3fecfa4fb4fa4fa5 4030c00000000000 402b800000000000 B-",
           "3fb38e38e38e38e4 4025000000000000 4025000000000000 -R",
           "3fbc71c71c71c71c 402c800000000000 4029800000000000 -R",
           "3fd253c8294f2095 4031800000000000 402e000000000000 B-",
           "3fe1fa6a2094f209 4033800000000000 4029000000000000 B-",
           "3f9b26c9b26c9b27 4031400000000000 402c800000000000 -R",
           "3fdf6b0e0745d174 4035800000000000 4032000000000000 B-",
           "3fd0480485a05a06 403b400000000000 4038400000000000 B-",
           "3fc0270268d68d69 403daaaa9a000000 403baaaaa0000000 B-",
           "3fbda9da97297297 4040c00000000000 4040000000000000 -R",
           "3ff0daa1c7f29d48 404c800000000000 4045400000000000 B-",
       }},
  };
  for (const GoldenLog& log : logs) {
    SCOPED_TRACE(log.name);
    Rng rng(log.seed);
    oracle::EventLogShape shape;
    shape.initial_objects = 8;
    shape.initial_clusterings = 3;
    shape.events = 40;
    shape.max_labels = 3;
    shape.weighted = log.weighted;
    shape.missing_probability = log.missing_probability;
    shape.duplicate_object_probability = log.fold ? 0.5 : 0.0;
    shape.remove_clustering_probability = 0.2;
    shape.remove_object_probability = 0.15;
    shape.window = log.window;
    const std::vector<StreamRecord> records =
        oracle::RandomEventLog(shape, &rng);
    StreamAggregatorOptions options;
    options.fold = log.fold;
    options.missing.policy = log.policy;
    options.num_threads = 1;
    options.window = log.window;
    options.rebuild_threshold = 0.12;
    options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
    options.rebuild.refine_with_local_search = true;
    StreamAggregator stream(options);
    Result<StreamReplayResult> replay = ReplayEventLog(stream, records);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    std::vector<std::string> actual;
    std::string listing;
    for (const StreamFlushReport& report : replay->reports) {
      actual.push_back(FlushFingerprint(report));
      listing += "\n  \"" + actual.back() + "\",";
    }
    const std::vector<std::string> expected(log.flushes.begin(),
                                            log.flushes.end());
    EXPECT_EQ(actual, expected) << "recorded flushes:" << listing;
  }
}

// The drift sweep fills rows on worker threads once n^2 m is large
// enough; charging stays serial, so every flush must report the same
// bits whatever the thread count. n = 720 with a window of 8 crosses the
// parallel threshold, which also puts the workers under TSan.
TEST(StreamAggregatorTest, DriftSweepIsThreadCountIndependent) {
  Rng rng(29);
  oracle::EventLogShape shape;
  shape.initial_objects = 720;
  shape.initial_clusterings = 8;
  shape.events = 8;
  shape.remove_object_probability = 0.2;
  shape.window = 8;
  const std::vector<StreamRecord> records =
      oracle::RandomEventLog(shape, &rng);
  std::vector<std::string> fingerprints[2];
  std::vector<Clustering::Label> labels[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    StreamAggregatorOptions options;
    options.num_threads = thread_counts[t];
    options.window = shape.window;
    options.rebuild_threshold = 1e9;
    StreamAggregator stream(options);
    Result<StreamReplayResult> replay = ReplayEventLog(stream, records);
    ASSERT_TRUE(replay.ok()) << replay.status().message();
    for (const StreamFlushReport& report : replay->reports) {
      fingerprints[t].push_back(FlushFingerprint(report));
    }
    labels[t] = stream.labels().labels();
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(labels[0], labels[1]);
}

TEST(StreamAggregatorTest, ReplayFlushesAtMarkersAndEnd) {
  // Two explicit markers plus trailing events: three flushes total.
  const std::string log =
      "clustering 0 0 1\n"
      "flush\n"
      "object 1\n"
      "flush\n"
      "clustering 0 1 1 0\n";
  Result<std::vector<StreamRecord>> records = ParseEventLog(log);
  ASSERT_TRUE(records.ok());
  StreamAggregator stream{StreamAggregatorOptions{}};
  Result<StreamReplayResult> replay = ReplayEventLog(stream, *records);
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  EXPECT_EQ(replay->reports.size(), 3u);
  EXPECT_EQ(replay->outcome, RunOutcome::kConverged);
  EXPECT_EQ(stream.num_objects(), 4u);
  EXPECT_EQ(stream.num_clusterings(), 2u);
  EXPECT_EQ(stream.pending_events(), 0u);
  // A marker-free log still gets its final flush.
  StreamAggregator no_markers{StreamAggregatorOptions{}};
  Result<std::vector<StreamRecord>> plain =
      ParseEventLog("clustering 0 1\n");
  ASSERT_TRUE(plain.ok());
  Result<StreamReplayResult> once = ReplayEventLog(no_markers, *plain);
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(once->reports.size(), 1u);
  EXPECT_EQ(once->rebuilds, 1u);
}

TEST(StreamAggregatorTest, TelemetryRecordsIngestAndRepair) {
  Telemetry telemetry;
  const RunContext run = RunContext().WithTelemetry(&telemetry);
  StreamAggregatorOptions options;
  options.rebuild_threshold = 1e9;
  StreamAggregator stream(options);
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Ingest(AddObjectEvent{{1}}).ok());
  ASSERT_TRUE(stream.Flush(run).ok());
  ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1, 1}, 1.0}).ok());
  ASSERT_TRUE(stream.Flush(run).ok());
  EXPECT_EQ(telemetry.counter("stream.flushes")->value(), 2u);
  EXPECT_EQ(telemetry.counter("stream.ingest.events")->value(), 3u);
  EXPECT_EQ(telemetry.counter("stream.ingest.clusterings")->value(), 2u);
  EXPECT_EQ(telemetry.counter("stream.ingest.objects")->value(), 1u);
  // The object-defining first clustering materializes its 3 objects
  // (0+1+2 pair blocks) then sweeps 3 pairs; the new object touches 3;
  // the second clustering over 4 objects sweeps 6.
  EXPECT_EQ(telemetry.counter("stream.ingest.pairs_touched")->value(), 15u);
  EXPECT_EQ(telemetry.counter("stream.repair.rebuilds")->value(), 1u);
  EXPECT_EQ(telemetry.counter("stream.repair.runs")->value(), 1u);
  EXPECT_EQ(telemetry.gauge("stream.objects")->value(), 4);
  EXPECT_EQ(telemetry.gauge("stream.clusterings")->value(), 2);
  EXPECT_EQ(telemetry.histogram("stream.ingest.batch_nanos")->count(), 2u);
  EXPECT_EQ(telemetry.histogram("stream.repair.nanos")->count(), 1u);
}
TEST(StreamAggregatorTest, TelemetryRecordsRemovalsAndEvictions) {
  Telemetry telemetry;
  const RunContext run = RunContext().WithTelemetry(&telemetry);
  StreamAggregatorOptions options;
  options.window = 2;
  StreamAggregator stream(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(stream.Ingest(AddClusteringEvent{{0, 0, 1}, 1.0}).ok());
  }
  ASSERT_TRUE(stream.Ingest(RemoveClusteringEvent{2}).ok());
  ASSERT_TRUE(stream.Ingest(RemoveObjectEvent{0}).ok());
  ASSERT_TRUE(stream.Flush(run).ok());
  // 3 adds into a window of 2 evict once; the two explicit removals
  // count separately from the eviction.
  EXPECT_EQ(telemetry.counter("stream.evict.clusterings")->value(), 1u);
  EXPECT_GT(telemetry.counter("stream.evict.pairs_touched")->value(), 0u);
  EXPECT_EQ(telemetry.counter("stream.ingest.removals")->value(), 2u);
  EXPECT_EQ(telemetry.counter("stream.ingest.clusterings")->value(), 3u);
  EXPECT_EQ(telemetry.gauge("stream.clusterings")->value(), 1);
  EXPECT_EQ(telemetry.gauge("stream.objects")->value(), 2);
}

}  // namespace
}  // namespace clustagg
