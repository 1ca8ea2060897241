// Crash-safety suite for the durability layer: CRC framing vectors,
// journal round-trip / torn-tail / corruption semantics, snapshot
// encode/decode and rejection paths, ExportState/RestoreState
// bit-identity, and the kill-point crash matrix — a simulated crash at
// EVERY filesystem kill point of a durable streaming run, across
// (journal-only / snapshot+journal) x (fold on/off) x (dense/lazy
// rebuild backend), each followed by a real recovery pinned
// bit-identical to an uninterrupted replay of the durable record
// prefix and to the from-scratch batch oracle (tests/oracle.h). This
// is the executable form of the recovery invariants in
// docs/durability.md.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_file_system.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "core/aggregator.h"
#include "core/clustering.h"
#include "core/signature_index.h"
#include "oracle.h"
#include "stream/journal.h"
#include "stream/recovery.h"
#include "stream/snapshot.h"
#include "stream/stream_aggregator.h"
#include "stream/stream_event.h"

namespace clustagg {
namespace {

using oracle::BatchInstance;
using oracle::BatchMirror;
using oracle::EventLogShape;
using oracle::RandomEventLog;

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "clustagg_durability_" + name;
}

/// Removes every path (RemoveFile is OK on a missing file), so each
/// test and each crash-matrix iteration starts from an empty directory
/// state.
void Clean(const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    ASSERT_TRUE(FileSystem::Real()->RemoveFile(path).ok()) << path;
  }
}

void WriteBytes(const std::string& path, std::string_view bytes) {
  Result<std::unique_ptr<WritableFile>> file =
      FileSystem::Real()->OpenForWrite(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_TRUE((*file)->Append(bytes).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

std::string ReadBytes(const std::string& path) {
  Result<std::string> bytes = FileSystem::Real()->ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().message();
  return bytes.ok() ? *std::move(bytes) : std::string();
}

/// One journal frame as JournalWriter lays it down:
/// [u32 length][u32 CRC-32][payload], little-endian.
std::string Frame(std::string_view payload) {
  std::string frame;
  auto put_u32 = [&frame](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_u32(static_cast<std::uint32_t>(payload.size()));
  put_u32(Crc32(payload));
  frame += payload;
  return frame;
}

/// Rewrites the trailing whole-file CRC so tests can tamper with a
/// snapshot's interior (e.g. the version field) without tripping the
/// checksum gate first.
std::string WithFixedSnapshotCrc(std::string bytes) {
  const std::uint32_t crc =
      Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return bytes;
}

/// Replays records through a plain (non-durable) StreamAggregator with
/// journal semantics: Ingest events, Flush at markers, NO trailing
/// auto-flush — events past the last marker stay pending, exactly as
/// recovery leaves them.
StreamAggregator PlainReplay(const StreamAggregatorOptions& options,
                             const std::vector<StreamRecord>& records) {
  StreamAggregator stream(options);
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) {
      Result<StreamFlushReport> report = stream.Flush();
      EXPECT_TRUE(report.ok()) << report.status().message();
    } else {
      const Status status = stream.Ingest(ToStreamEvent(record));
      EXPECT_TRUE(status.ok()) << status.message();
    }
  }
  return stream;
}

/// A small deterministic workload whose last record is a FlushMarker,
/// so every complete run ends with a journaled, converged solution.
std::vector<StreamRecord> Workload(std::uint64_t seed, bool fold,
                                   std::size_t events = 10) {
  Rng rng(seed);
  EventLogShape shape;
  shape.initial_objects = 4;
  shape.initial_clusterings = 2;
  shape.events = events;
  shape.max_labels = 3;
  shape.weighted = true;
  shape.flush_probability = 0.35;
  shape.duplicate_object_probability = fold ? 0.4 : 0.0;
  std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
  if (records.empty() || !std::holds_alternative<FlushMarker>(records.back())) {
    records.emplace_back(FlushMarker{});
  }
  return records;
}

/// Workload variant mixing explicit RemoveClustering / RemoveObject
/// events (and, with `window`, auto-evictions) into the adds, so the
/// journaled record set carries every record type and the resulting
/// states have id vectors with holes.
std::vector<StreamRecord> WorkloadWithRemovals(std::uint64_t seed, bool fold,
                                               std::size_t window = 0,
                                               std::size_t events = 14) {
  Rng rng(seed);
  EventLogShape shape;
  shape.initial_objects = 4;
  shape.initial_clusterings = 2;
  shape.events = events;
  shape.max_labels = 3;
  shape.weighted = true;
  shape.flush_probability = 0.35;
  shape.duplicate_object_probability = fold ? 0.4 : 0.0;
  shape.remove_clustering_probability = 0.25;
  shape.remove_object_probability = 0.2;
  shape.window = window;
  std::vector<StreamRecord> records = RandomEventLog(shape, &rng);
  if (records.empty() ||
      !std::holds_alternative<FlushMarker>(records.back())) {
    records.emplace_back(FlushMarker{});
  }
  return records;
}

StreamAggregatorOptions StreamOptions(bool fold, bool lazy_rebuild) {
  StreamAggregatorOptions options;
  options.fold = fold;
  options.num_threads = 1;
  // Low enough that the workload exercises both the warm-repair and the
  // full-rebuild flush paths.
  options.rebuild_threshold = 0.4;
  options.rebuild.backend =
      lazy_rebuild ? DistanceBackend::kLazy : DistanceBackend::kDense;
  options.rebuild.algorithm = AggregationAlgorithm::kAgglomerative;
  options.rebuild.refine_with_local_search = true;
  return options;
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesTheIeeeCheckVectors) {
  // The on-disk format depends on these exact values (the zlib
  // polynomial's standard check vector among them) staying put forever.
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, ChainsLikeOneContiguousBuffer) {
  const std::string a = "clustering 0 1 2";
  const std::string b = " weight=1.5\nflush\n";
  EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(a + b));
  EXPECT_EQ(Crc32("", Crc32(a)), Crc32(a));
}

TEST(Crc32Test, DetectsEverySingleByteFlip) {
  const std::string data = "flush\n";
  const std::uint32_t good = Crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string bad = data;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_NE(Crc32(bad), good) << "flip at byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Journal framing
// ---------------------------------------------------------------------------

TEST(JournalTest, RoundTripsRecordsExactly) {
  const std::string path = TempPath("journal_roundtrip.log");
  Clean({path});
  const std::vector<StreamRecord> records = Workload(3, /*fold=*/true);

  Result<JournalWriter> writer = JournalWriter::Open(FileSystem::Real(), path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  for (const StreamRecord& record : records) {
    ASSERT_TRUE(writer->Append(record).ok());
  }
  EXPECT_EQ(writer->records_appended(), records.size());
  ASSERT_TRUE(writer->Close().ok());

  Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->torn_bytes, 0u);
  Result<std::uint64_t> size = FileSystem::Real()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(read->valid_bytes, *size);
  // The text serialization round-trips exactly (weights at %.17g), so
  // formatting both sides is an exact equality check on the records.
  EXPECT_EQ(FormatEventLog(read->records), FormatEventLog(records));
}

TEST(JournalTest, GroupFsyncPolicyBatchesSyncs) {
  const std::string path = TempPath("journal_fsync.log");
  Clean({path});
  Telemetry telemetry;
  JournalOptions options;
  options.fsync_every = 3;
  Result<JournalWriter> writer = JournalWriter::Open(
      FileSystem::Real(), path, options, /*initial_records=*/0, &telemetry);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(writer->Append(StreamRecord(FlushMarker{})).ok());
  }
  // Appends 3 and 6 crossed the group threshold; record 7 is unsynced.
  EXPECT_EQ(telemetry.counter("durability.journal_syncs")->value(), 2u);
  EXPECT_EQ(writer->unsynced_records(), 1u);

  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(telemetry.counter("durability.journal_syncs")->value(), 3u);
  EXPECT_EQ(writer->unsynced_records(), 0u);

  // One more unsynced record: Close must make it durable before closing.
  ASSERT_TRUE(writer->Append(StreamRecord(FlushMarker{})).ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->unsynced_records(), 0u);
  EXPECT_EQ(telemetry.counter("durability.journal_syncs")->value(), 4u);
  EXPECT_EQ(telemetry.counter("durability.journal_appends")->value(), 8u);
}

TEST(JournalTest, FsyncNeverPolicyOnlySyncsOnDemand) {
  const std::string path = TempPath("journal_nosync.log");
  Clean({path});
  Telemetry telemetry;
  JournalOptions options;
  options.fsync_every = 0;
  Result<JournalWriter> writer = JournalWriter::Open(
      FileSystem::Real(), path, options, /*initial_records=*/0, &telemetry);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(writer->Append(StreamRecord(FlushMarker{})).ok());
  }
  EXPECT_EQ(telemetry.counter("durability.journal_syncs")->value(), 0u);
  EXPECT_EQ(writer->unsynced_records(), 5u);
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(telemetry.counter("durability.journal_syncs")->value(), 1u);
}

TEST(JournalTest, EveryPossibleTruncationIsATornTailNeverAnError) {
  const std::string path = TempPath("journal_cuts_src.log");
  const std::string cut_path = TempPath("journal_cuts.log");
  Clean({path, cut_path});
  const std::vector<StreamRecord> records = Workload(5, /*fold=*/false,
                                                     /*events=*/3);

  // Record the byte boundary after every frame so the expectation at
  // each cut is exact, not inferred.
  std::vector<std::uint64_t> boundaries{0};
  Result<JournalWriter> writer = JournalWriter::Open(FileSystem::Real(), path);
  ASSERT_TRUE(writer.ok()) << writer.status().message();
  for (const StreamRecord& record : records) {
    ASSERT_TRUE(writer->Append(record).ok());
    Result<std::uint64_t> size = FileSystem::Real()->FileSize(path);
    ASSERT_TRUE(size.ok());
    boundaries.push_back(*size);
  }
  ASSERT_TRUE(writer->Close().ok());
  const std::string full = ReadBytes(path);
  ASSERT_EQ(full.size(), boundaries.back());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    WriteBytes(cut_path, std::string_view(full).substr(0, cut));
    Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), cut_path);
    ASSERT_TRUE(read.ok()) << read.status().message();
    std::size_t whole_frames = 0;
    while (whole_frames + 1 < boundaries.size() &&
           boundaries[whole_frames + 1] <= cut) {
      ++whole_frames;
    }
    EXPECT_EQ(read->records.size(), whole_frames);
    EXPECT_EQ(read->valid_bytes, boundaries[whole_frames]);
    EXPECT_EQ(read->torn_tail, cut != boundaries[whole_frames]);
    EXPECT_EQ(read->torn_bytes, cut - boundaries[whole_frames]);
  }
}

TEST(JournalTest, CrcFailureOnTheFinalFrameIsATornTail) {
  const std::string path = TempPath("journal_torn_crc.log");
  Clean({path});
  const std::string journal = Frame("flush\n") + Frame("object 0 1\n") +
                              Frame("clustering 0 1 2\n");
  std::string torn = journal;
  torn[torn.size() - 2] = static_cast<char>(torn[torn.size() - 2] ^ 0x40);
  WriteBytes(path, torn);

  Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->valid_bytes + read->torn_bytes, torn.size());
}

TEST(JournalTest, CrcFailureMidFileIsDataLossNotATornTail) {
  const std::string path = TempPath("journal_midfile.log");
  Clean({path});
  std::string journal = Frame("flush\n") + Frame("object 0 1\n") +
                        Frame("clustering 0 1 2\n");
  // Corrupt the FIRST frame's payload: a later frame exists, so this
  // cannot be a crash tear — an fsynced prefix only tears at its end.
  journal[10] = static_cast<char>(journal[10] ^ 0x01);
  WriteBytes(path, journal);

  Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().message().find("mid-file corruption"),
            std::string::npos)
      << read.status().message();
}

TEST(JournalTest, CrcValidNonRecordPayloadIsDataLossWhereverItSits) {
  const std::string path = TempPath("journal_badpayload.log");
  // A frame whose CRC passes but whose payload is not exactly one
  // record: two records in one frame, and a comment-only payload that
  // parses as zero. Both are writer bugs truncation cannot repair, even
  // in the final frame.
  for (const std::string& payload : {std::string("flush\nflush\n"),
                                     std::string("# not a record\n")}) {
    SCOPED_TRACE(payload);
    Clean({path});
    WriteBytes(path, Frame("flush\n") + Frame(payload));
    Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), path);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(read.status().message().find("not one event-log record"),
              std::string::npos)
        << read.status().message();
  }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A non-trivial exported state: weighted, folded, several flushes,
/// removals punching holes into both id sequences.
StreamAggregatorState SampleState() {
  StreamAggregator stream = PlainReplay(
      StreamOptions(/*fold=*/true, /*lazy_rebuild=*/false),
      WorkloadWithRemovals(11, /*fold=*/true));
  Result<StreamAggregatorState> state = stream.ExportState();
  EXPECT_TRUE(state.ok()) << state.status().message();
  return state.ok() ? *std::move(state) : StreamAggregatorState{};
}

void ExpectStatesEqual(const StreamAggregatorState& a,
                       const StreamAggregatorState& b) {
  EXPECT_EQ(a.num_objects, b.num_objects);
  EXPECT_EQ(a.columns, b.columns);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.ever_clustered, b.ever_clustered);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.drift_accum, b.drift_accum);
  EXPECT_EQ(a.flush_count, b.flush_count);
  EXPECT_EQ(a.clustering_ids, b.clustering_ids);
  EXPECT_EQ(a.object_ids, b.object_ids);
  EXPECT_EQ(a.next_clustering_id, b.next_clustering_id);
  EXPECT_EQ(a.next_object_id, b.next_object_id);
}

TEST(SnapshotTest, EncodeDecodeRoundTripsBitForBit) {
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  snapshot.journal_records = 17;
  Result<StreamSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->journal_records, 17u);
  ExpectStatesEqual(decoded->state, snapshot.state);
}

TEST(SnapshotTest, FileRoundTripIsAtomicAndMissingIsNotAnError) {
  const std::string path = TempPath("snapshot_roundtrip.snap");
  Clean({path, path + ".tmp"});

  // Missing file: "no snapshot yet", not corruption.
  Result<StreamSnapshot> missing = ReadSnapshotFile(FileSystem::Real(), path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);

  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  snapshot.journal_records = 9;
  Result<std::uint64_t> bytes =
      WriteSnapshotFile(FileSystem::Real(), path, snapshot);
  ASSERT_TRUE(bytes.ok()) << bytes.status().message();
  EXPECT_EQ(*bytes, EncodeSnapshot(snapshot).size());
  // The commit point is the rename: no .tmp litter after success.
  EXPECT_FALSE(FileSystem::Real()->FileExists(path + ".tmp"));

  Result<StreamSnapshot> read = ReadSnapshotFile(FileSystem::Real(), path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read->journal_records, 9u);
  ExpectStatesEqual(read->state, snapshot.state);
}

TEST(SnapshotTest, RejectsAForeignMagic) {
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  std::string bytes = EncodeSnapshot(snapshot);
  bytes[0] = 'X';
  Result<StreamSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos)
      << decoded.status().message();
}

TEST(SnapshotTest, RejectsAFutureFormatVersion) {
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  std::string bytes = EncodeSnapshot(snapshot);
  // Bump the u32 version field (right after the 4-byte magic) and fix
  // the trailing CRC so the version check itself is what fires.
  bytes[4] = static_cast<char>(kSnapshotVersion + 1);
  bytes = WithFixedSnapshotCrc(std::move(bytes));
  Result<StreamSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().message();
}

TEST(SnapshotTest, RejectsEveryOlderFormatVersion) {
  // v1 (no stable ids) and v2 (O(n^2) pair counters) are refused, never
  // upgraded: the stream recovers from its journal instead.
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  const std::string encoded = EncodeSnapshot(snapshot);
  for (std::uint32_t version = 1; version < kSnapshotVersion; ++version) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = encoded;
    bytes[4] = static_cast<char>(version);
    bytes = WithFixedSnapshotCrc(std::move(bytes));
    Result<StreamSnapshot> decoded = DecodeSnapshot(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
        << decoded.status().message();
  }
}

TEST(SnapshotTest, RejectsAChecksumMismatch) {
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  std::string bytes = EncodeSnapshot(snapshot);
  const std::size_t mid = bytes.size() / 2;
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x10);
  Result<StreamSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
      << decoded.status().message();
}

TEST(SnapshotTest, RejectsABodyThatDisagreesWithItsOwnLengths) {
  StreamSnapshot snapshot;
  snapshot.state = SampleState();
  std::string bytes = EncodeSnapshot(snapshot);
  // Splice 8 stray bytes between the body and the CRC, then fix the
  // CRC: the checksum passes, so only the exhaustion check can catch
  // the inconsistency.
  bytes.insert(bytes.size() - 4, std::string(8, '\0'));
  bytes = WithFixedSnapshotCrc(std::move(bytes));
  Result<StreamSnapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("disagrees"), std::string::npos)
      << decoded.status().message();
}

// ---------------------------------------------------------------------------
// ExportState / RestoreState
// ---------------------------------------------------------------------------

TEST(StreamStateTest, ExportRestoreRoundTripsAndTheRestoredStreamContinues) {
  const StreamAggregatorOptions options =
      StreamOptions(/*fold=*/true, /*lazy_rebuild=*/false);
  const std::vector<StreamRecord> records = Workload(23, /*fold=*/true);
  StreamAggregator original = PlainReplay(options, records);

  Result<StreamAggregatorState> state = original.ExportState();
  ASSERT_TRUE(state.ok()) << state.status().message();
  StreamAggregator restored(options);
  ASSERT_TRUE(restored.RestoreState(*std::move(state)).ok());
  oracle::ExpectStreamsBitIdentical(restored, original);

  // The restored stream must not just look identical — it must BEHAVE
  // identically from here on (same fold grouping, same warm start).
  AddClusteringEvent extra;
  extra.labels.assign(original.num_objects(), 0);
  for (std::size_t v = 0; v + 1 < extra.labels.size(); v += 2) {
    extra.labels[v] = 1;
  }
  extra.weight = 1.75;
  for (StreamAggregator* stream : {&original, &restored}) {
    ASSERT_TRUE(stream->Ingest(extra).ok());
    Result<StreamFlushReport> report = stream->Flush();
    ASSERT_TRUE(report.ok()) << report.status().message();
  }
  oracle::ExpectStreamsBitIdentical(restored, original);
}

TEST(StreamStateTest, ExportRequiresADrainedQueue) {
  StreamAggregator stream;
  AddClusteringEvent event;
  event.labels = {0, 0, 1};
  ASSERT_TRUE(stream.Ingest(event).ok());
  Result<StreamAggregatorState> state = stream.ExportState();
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamStateTest, RestoreRejectsInternallyInconsistentState) {
  StreamAggregator donor = PlainReplay(StreamOptions(false, false),
                                       Workload(29, /*fold=*/false));
  Result<StreamAggregatorState> exported = donor.ExportState();
  ASSERT_TRUE(exported.ok()) << exported.status().message();

  {
    StreamAggregatorState state = *exported;  // one weight per column
    state.weights.pop_back();
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
  {
    StreamAggregatorState state = *exported;  // labels over wrong n
    state.labels.push_back(0);
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
  {
    StreamAggregatorState state = *exported;  // one id per column, no more
    state.clustering_ids.push_back(state.next_clustering_id);
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
  {
    StreamAggregatorState state = *exported;  // one id per object
    ASSERT_FALSE(state.object_ids.empty());
    state.object_ids.pop_back();
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
  {
    StreamAggregatorState state = *exported;  // ids strictly ascending
    ASSERT_GE(state.object_ids.size(), 2u);
    std::swap(state.object_ids.front(), state.object_ids.back());
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
  {
    StreamAggregatorState state = *exported;  // ids live below their next-id
    ASSERT_FALSE(state.clustering_ids.empty());
    state.clustering_ids.back() = state.next_clustering_id + 5;
    StreamAggregator stream(StreamOptions(false, false));
    EXPECT_EQ(stream.RestoreState(std::move(state)).code(),
              StatusCode::kDataLoss);
  }
}

TEST(StreamStateTest, ExportRestoreRoundTripsTheWindowQueue) {
  // A windowed stream's export carries the eviction queue implicitly:
  // the alive id vector IS the FIFO order. Restore must reproduce both
  // the ids and the *future* eviction behavior bit for bit.
  StreamAggregatorOptions options = StreamOptions(/*fold=*/false,
                                                  /*lazy_rebuild=*/false);
  options.window = 3;
  const std::vector<StreamRecord> records =
      WorkloadWithRemovals(61, /*fold=*/false, /*window=*/3);
  StreamAggregator original = PlainReplay(options, records);
  ASSERT_LE(original.num_clusterings(), 3u);

  Result<StreamAggregatorState> state = original.ExportState();
  ASSERT_TRUE(state.ok()) << state.status().message();
  StreamAggregator restored(options);
  ASSERT_TRUE(restored.RestoreState(*std::move(state)).ok());
  oracle::ExpectStreamsBitIdentical(restored, original);

  // Two more adds overflow the window in both streams: the evicted ids,
  // the freshly assigned ids, and the surviving state must agree —
  // proof the next-id counters and the FIFO order survived the trip.
  for (int round = 0; round < 2; ++round) {
    AddClusteringEvent extra;
    extra.labels.assign(original.num_objects(),
                        static_cast<Clustering::Label>(round));
    if (!extra.labels.empty()) extra.labels[0] = 1 - round;
    for (StreamAggregator* stream : {&original, &restored}) {
      ASSERT_TRUE(stream->Ingest(extra).ok());
      ASSERT_TRUE(stream->Flush().ok());
    }
  }
  oracle::ExpectStreamsBitIdentical(restored, original);
}

// ---------------------------------------------------------------------------
// Durable stream: recovery semantics
// ---------------------------------------------------------------------------

/// Drives records through a durable stream opened over `fs`: Ingest
/// events, Flush at markers, Close at the end. Returns the first
/// failure (a simulated crash surfaces here as kDataLoss).
Status DriveDurable(const StreamAggregatorOptions& stream_options,
                    const DurabilityOptions& durability, FileSystem* fs,
                    const std::vector<StreamRecord>& records,
                    Telemetry* telemetry = nullptr) {
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(stream_options, durability, fs, telemetry);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<DurableStreamAggregator> durable = std::move(opened).value();
  for (const StreamRecord& record : records) {
    Status status;
    if (std::holds_alternative<FlushMarker>(record)) {
      status = durable->Flush().status();
    } else {
      status = durable->Ingest(ToStreamEvent(record));
    }
    if (!status.ok()) return status;
  }
  return durable->Close();
}

TEST(DurabilityTest, OpenRequiresAJournalPath) {
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(StreamAggregatorOptions{},
                                    DurabilityOptions{});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurabilityTest, EffectiveSnapshotPathDefaultsNextToTheJournal) {
  DurabilityOptions durability;
  durability.journal_path = "/var/lib/agg/events.journal";
  EXPECT_EQ(EffectiveSnapshotPath(durability),
            "/var/lib/agg/events.journal.snap");
  durability.snapshot_path = "/elsewhere/state.snap";
  EXPECT_EQ(EffectiveSnapshotPath(durability), "/elsewhere/state.snap");
}

TEST(DurabilityTest, CleanRunThenReopenIsBitIdentical) {
  const std::string journal = TempPath("clean_reopen.journal");
  Clean({journal, journal + ".snap", journal + ".snap.tmp"});
  const StreamAggregatorOptions options = StreamOptions(true, false);
  const std::vector<StreamRecord> records = Workload(31, /*fold=*/true);
  DurabilityOptions durability;
  durability.journal_path = journal;
  ASSERT_TRUE(
      DriveDurable(options, durability, FileSystem::Real(), records).ok());

  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  const RecoveryReport& report = (*reopened)->recovery();
  EXPECT_TRUE(report.recovered);
  EXPECT_FALSE(report.from_snapshot);
  EXPECT_FALSE(report.truncated_torn_tail);
  EXPECT_EQ(report.journal_records, records.size());
  EXPECT_EQ(report.replayed_records, records.size());
  oracle::ExpectStreamsBitIdentical((*reopened)->stream(),
                                    PlainReplay(options, records));
}

TEST(DurabilityTest, SnapshotSkipsTheCoveredReplaySuffix) {
  const std::string journal = TempPath("snapshot_skip.journal");
  Clean({journal, journal + ".snap", journal + ".snap.tmp"});
  const StreamAggregatorOptions options = StreamOptions(false, true);
  const std::vector<StreamRecord> records = Workload(37, /*fold=*/false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.snapshot_every = 1;
  Telemetry telemetry;
  ASSERT_TRUE(DriveDurable(options, durability, FileSystem::Real(), records,
                           &telemetry)
                  .ok());
  std::uint64_t markers = 0;
  for (const StreamRecord& record : records) {
    if (std::holds_alternative<FlushMarker>(record)) ++markers;
  }
  EXPECT_EQ(telemetry.counter("durability.journal_appends")->value(),
            records.size());
  EXPECT_EQ(telemetry.counter("durability.snapshots_written")->value(),
            markers);
  EXPECT_GT(telemetry.counter("durability.snapshot_bytes")->value(), 0u);

  // The workload ends on a marker and every marker snapshots, so the
  // newest snapshot covers the whole journal: recovery replays nothing.
  Telemetry recovery_telemetry;
  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability, FileSystem::Real(),
                                    &recovery_telemetry);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  const RecoveryReport& report = (*reopened)->recovery();
  EXPECT_TRUE(report.from_snapshot);
  EXPECT_EQ(report.snapshot_records, records.size());
  EXPECT_EQ(report.journal_records, records.size());
  EXPECT_EQ(report.replayed_records, 0u);
  EXPECT_EQ(recovery_telemetry.counter("durability.recovery.runs")->value(),
            1u);
  EXPECT_EQ(recovery_telemetry.counter("durability.recovery.replayed_records")
                ->value(),
            0u);
  oracle::ExpectStreamsBitIdentical((*reopened)->stream(),
                                    PlainReplay(options, records));
}

TEST(DurabilityTest, ATornJournalTailIsTruncatedOnRecovery) {
  const std::string journal = TempPath("torn_tail.journal");
  Clean({journal, journal + ".snap", journal + ".snap.tmp"});
  const StreamAggregatorOptions options = StreamOptions(false, false);
  const std::vector<StreamRecord> records = Workload(41, /*fold=*/false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  ASSERT_TRUE(
      DriveDurable(options, durability, FileSystem::Real(), records).ok());
  Result<std::uint64_t> clean_size = FileSystem::Real()->FileSize(journal);
  ASSERT_TRUE(clean_size.ok());

  // A crash mid-append leaves unacknowledged garbage after the last
  // durable frame.
  const std::string garbage = "\x13half a frame";
  {
    Result<std::unique_ptr<WritableFile>> file =
        FileSystem::Real()->OpenForAppend(journal);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(garbage).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE((*reopened)->recovery().truncated_torn_tail);
  EXPECT_EQ((*reopened)->recovery().torn_bytes, garbage.size());
  EXPECT_EQ((*reopened)->recovery().journal_records, records.size());
  Result<std::uint64_t> healed_size = FileSystem::Real()->FileSize(journal);
  ASSERT_TRUE(healed_size.ok());
  EXPECT_EQ(*healed_size, *clean_size);
  oracle::ExpectStreamsBitIdentical((*reopened)->stream(),
                                    PlainReplay(options, records));

  // The tear is gone from disk: the next recovery is clean.
  Result<std::unique_ptr<DurableStreamAggregator>> again =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_FALSE((*again)->recovery().truncated_torn_tail);
}

TEST(DurabilityTest, MidJournalCorruptionRefusesToOpen) {
  const std::string journal = TempPath("corrupt_journal.journal");
  Clean({journal, journal + ".snap", journal + ".snap.tmp"});
  const StreamAggregatorOptions options = StreamOptions(false, false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  ASSERT_TRUE(DriveDurable(options, durability, FileSystem::Real(),
                           Workload(43, /*fold=*/false))
                  .ok());
  std::string bytes = ReadBytes(journal);
  bytes[10] = static_cast<char>(bytes[10] ^ 0x04);
  WriteBytes(journal, bytes);

  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST(DurabilityTest, ACorruptSnapshotRefusesToOpen) {
  const std::string journal = TempPath("corrupt_snapshot.journal");
  const std::string snapshot = journal + ".snap";
  Clean({journal, snapshot, snapshot + ".tmp"});
  const StreamAggregatorOptions options = StreamOptions(true, false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.snapshot_every = 1;
  ASSERT_TRUE(DriveDurable(options, durability, FileSystem::Real(),
                           Workload(47, /*fold=*/true))
                  .ok());
  std::string bytes = ReadBytes(snapshot);
  const std::size_t mid = bytes.size() / 2;
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x20);
  WriteBytes(snapshot, bytes);

  // No silent fall-back to a full journal replay: that would mask real
  // loss when the snapshot-covered journal prefix was already pruned.
  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("checksum"), std::string::npos)
      << reopened.status().message();
}

TEST(DurabilityTest, AJournalPrunedBehindTheSnapshotRefusesToOpen) {
  const std::string journal = TempPath("pruned_journal.journal");
  const std::string snapshot = journal + ".snap";
  Clean({journal, snapshot, snapshot + ".tmp"});
  const StreamAggregatorOptions options = StreamOptions(false, false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.snapshot_every = 1;
  ASSERT_TRUE(DriveDurable(options, durability, FileSystem::Real(),
                           Workload(53, /*fold=*/false))
                  .ok());
  // The snapshot's cursor now points past a journal that is gone.
  ASSERT_TRUE(FileSystem::Real()->RemoveFile(journal).ok());

  Result<std::unique_ptr<DurableStreamAggregator>> reopened =
      DurableStreamAggregator::Open(options, durability);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

// Structured mutations: the byte-soup and bit-flip fuzzers never get
// past the CRC, so this one decodes a valid snapshot, corrupts exactly
// one field of the decoded state, and re-encodes it with a fresh CRC.
// Every mutation must fail closed with kDataLoss — in DecodeSnapshot
// when the body no longer parses, in RestoreState when it parses into
// an inconsistent state — and none may reach a CHECK.
TEST(SnapshotTest, StructuredFieldMutationsFailClosedWithDataLoss) {
  StreamSnapshot valid;
  valid.state = SampleState();
  valid.journal_records = 23;
  const StreamAggregatorState& base = valid.state;
  ASSERT_GE(base.columns.size(), 2u);
  ASSERT_GE(base.object_ids.size(), 2u);
  ASSERT_EQ(base.labels.size(), base.num_objects);
  const auto resum = [](StreamAggregatorState* s) {
    s->total_weight = 0.0;
    for (double w : s->weights) s->total_weight += w;
  };
  struct Mutation {
    const char* name;
    std::function<void(StreamAggregatorState*)> apply;
  };
  const Mutation mutations[] = {
      {"column one label short", [](auto* s) { s->columns[1].pop_back(); }},
      {"column one label long", [](auto* s) { s->columns[0].push_back(0); }},
      {"object count off by one", [](auto* s) { ++s->num_objects; }},
      {"weights count short",
       [&](auto* s) {
         s->weights.pop_back();
         resum(s);
       }},
      {"weights count long",
       [&](auto* s) {
         s->weights.push_back(1.0);
         resum(s);
       }},
      {"negative non-missing column label",
       [](auto* s) { s->columns[0][1] = -7; }},
      {"negative solution label", [](auto* s) { s->labels[0] = -2; }},
      {"zero weight",
       [&](auto* s) {
         s->weights[0] = 0.0;
         resum(s);
       }},
      {"negative weight",
       [&](auto* s) {
         s->weights[1] = -1.5;
         resum(s);
       }},
      {"NaN weight",
       [&](auto* s) {
         s->weights[0] = std::numeric_limits<double>::quiet_NaN();
         resum(s);
       }},
      {"infinite weight",
       [&](auto* s) {
         s->weights[0] = std::numeric_limits<double>::infinity();
         resum(s);
       }},
      {"total weight off its weights", [](auto* s) { s->total_weight += 1.0; }},
      {"object ids out of order",
       [](auto* s) {
         std::swap(s->object_ids.front(), s->object_ids.back());
       }},
      {"clustering ids out of order",
       [](auto* s) {
         std::swap(s->clustering_ids.front(), s->clustering_ids.back());
       }},
      {"duplicate object id",
       [](auto* s) { s->object_ids[1] = s->object_ids[0]; }},
      {"next object id not above the alive ids",
       [](auto* s) { s->next_object_id = s->object_ids.back(); }},
      {"labels over n + 1 objects", [](auto* s) { s->labels.push_back(0); }},
      {"labels over n - 1 objects", [](auto* s) { s->labels.pop_back(); }},
  };
  {
    // The unmutated control restores, so every failure below is the
    // mutation's doing.
    Result<StreamSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(valid));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    StreamAggregator stream(StreamOptions(/*fold=*/true, false));
    ASSERT_TRUE(stream.RestoreState(std::move(decoded->state)).ok());
  }
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.name);
    Result<StreamSnapshot> decoded = DecodeSnapshot(EncodeSnapshot(valid));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    mutation.apply(&decoded->state);
    Result<StreamSnapshot> reread = DecodeSnapshot(EncodeSnapshot(*decoded));
    if (!reread.ok()) {
      EXPECT_EQ(reread.status().code(), StatusCode::kDataLoss)
          << reread.status().message();
      continue;
    }
    StreamAggregator stream(StreamOptions(/*fold=*/true, false));
    const Status restored = stream.RestoreState(std::move(reread->state));
    EXPECT_EQ(restored.code(), StatusCode::kDataLoss) << restored.message();
  }

  // The cursor is only checkable against its journal: one past the
  // journal's record count (or far past it) refuses to open.
  const std::string journal = TempPath("mutated_cursor.journal");
  const std::string snapshot = journal + ".snap";
  const StreamAggregatorOptions options = StreamOptions(false, false);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.snapshot_every = 1;
  for (const std::uint64_t extra : {std::uint64_t{1}, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("cursor past the journal by " + std::to_string(extra));
    Clean({journal, snapshot, snapshot + ".tmp"});
    const std::vector<StreamRecord> records = Workload(59, /*fold=*/false);
    ASSERT_TRUE(
        DriveDurable(options, durability, FileSystem::Real(), records).ok());
    Result<StreamSnapshot> decoded = DecodeSnapshot(ReadBytes(snapshot));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    decoded->journal_records = records.size() + extra;
    WriteBytes(snapshot, EncodeSnapshot(*decoded));
    Result<std::unique_ptr<DurableStreamAggregator>> reopened =
        DurableStreamAggregator::Open(options, durability);
    ASSERT_FALSE(reopened.ok());
    EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
        << reopened.status().message();
  }
}

TEST(DurabilityTest, AJournalFailurePoisonsEveryLaterCall) {
  const std::string journal = TempPath("poison.journal");
  Clean({journal, journal + ".snap", journal + ".snap.tmp"});
  DurabilityOptions durability;
  durability.journal_path = journal;
  // Kill point 1 is the journal's open; 2 is the torn write of the
  // first appended frame.
  CrashPointFileSystem fs(FileSystem::Real(), /*kill_at_op=*/2);
  Result<std::unique_ptr<DurableStreamAggregator>> opened =
      DurableStreamAggregator::Open(StreamAggregatorOptions{}, durability,
                                    &fs);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::unique_ptr<DurableStreamAggregator> durable = std::move(opened).value();

  AddClusteringEvent event;
  event.labels = {0, 1, 1};
  const Status first = durable->Ingest(event);
  ASSERT_EQ(first.code(), StatusCode::kDataLoss);
  EXPECT_NE(first.message().find("append.torn"), std::string::npos);

  // In-memory state is now ahead of the durable state, so everything —
  // even a perfectly valid later call — must return the original error.
  EXPECT_EQ(durable->Ingest(event).message(), first.message());
  EXPECT_EQ(durable->Flush().status().message(), first.message());
  EXPECT_EQ(durable->Close().message(), first.message());
}

// ---------------------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------------------

struct CrashFixture {
  const char* name;
  bool fold;
  bool lazy_rebuild;
  std::uint64_t snapshot_every;  // 0 = journal only
  std::uint64_t fsync_every;
  bool removals = false;     // mix RemoveClustering/RemoveObject records in
  std::size_t window = 0;    // 0 = unbounded, else sliding-window eviction
};

/// Simulates a crash at every kill point of the fixture's workload and
/// pins, after each one:
///  (a) the journal on disk is an exact prefix of the driven record
///      sequence (every frame either fully durable or torn off),
///  (b) recovery over the real post-crash files succeeds and is
///      bit-identical to a fresh uninterrupted replay of that prefix,
///  (c) the recovered distances and fold grouping equal a from-scratch
///      batch build of the applied (flushed) prefix on BOTH backends.
void RunCrashMatrix(const CrashFixture& fixture) {
  const std::string journal =
      TempPath(std::string("crash_") + fixture.name + ".journal");
  const std::string snapshot = journal + ".snap";
  const std::vector<std::string> all_files = {journal, snapshot,
                                              snapshot + ".tmp"};
  StreamAggregatorOptions options =
      StreamOptions(fixture.fold, fixture.lazy_rebuild);
  options.window = fixture.window;
  const std::vector<StreamRecord> records =
      fixture.removals || fixture.window > 0
          ? WorkloadWithRemovals(7, fixture.fold, fixture.window)
          : Workload(7, fixture.fold);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.fsync_every = fixture.fsync_every;
  durability.snapshot_every = fixture.snapshot_every;

  // Dry run: with kill_at_op == 0 the fault filesystem only counts, so
  // this discovers how many kill points the (deterministic) workload
  // registers.
  Clean(all_files);
  CrashPointFileSystem dry(FileSystem::Real());
  ASSERT_TRUE(DriveDurable(options, durability, &dry, records).ok());
  const std::uint64_t total_ops = dry.ops();
  ASSERT_GT(total_ops, records.size());

  for (std::uint64_t kill = 1; kill <= total_ops; ++kill) {
    SCOPED_TRACE(std::string(fixture.name) + ", kill point " +
                 std::to_string(kill) + " of " + std::to_string(total_ops));
    Clean(all_files);
    if (::testing::Test::HasFatalFailure()) return;
    CrashPointFileSystem crashing(FileSystem::Real(), kill);
    const Status crash = DriveDurable(options, durability, &crashing, records);
    ASSERT_TRUE(crashing.crashed());
    EXPECT_EQ(crash.code(), StatusCode::kDataLoss) << crash.message();

    // (a) Prefix property. ReadJournal reports the valid frames; the
    // torn tail (if any) is exactly what was never acknowledged.
    std::vector<StreamRecord> durable_records;
    if (FileSystem::Real()->FileExists(journal)) {
      Result<JournalReadResult> read = ReadJournal(FileSystem::Real(), journal);
      ASSERT_TRUE(read.ok()) << read.status().message();
      durable_records = std::move(read->records);
    }
    ASSERT_LE(durable_records.size(), records.size());
    for (std::size_t i = 0; i < durable_records.size(); ++i) {
      ASSERT_EQ(FormatEventLog({durable_records[i]}),
                FormatEventLog({records[i]}))
          << "journal record " << i << " diverges from the driven sequence";
    }

    // (b) Recovery, then bit-identity against the uninterrupted replay.
    Result<std::unique_ptr<DurableStreamAggregator>> recovered_r =
        DurableStreamAggregator::Open(options, durability);
    ASSERT_TRUE(recovered_r.ok())
        << "recovery failed after kill point " << crashing.crash_point()
        << ": " << recovered_r.status().message();
    std::unique_ptr<DurableStreamAggregator> recovered =
        std::move(recovered_r).value();
    const RecoveryReport& report = recovered->recovery();
    EXPECT_EQ(report.journal_records, durable_records.size());
    EXPECT_EQ(report.snapshot_records + report.replayed_records,
              durable_records.size());
    EXPECT_EQ(recovered->journal_records(), durable_records.size());
    const StreamAggregator reference = PlainReplay(options, durable_records);
    oracle::ExpectStreamsBitIdentical(recovered->stream(), reference);
    if (::testing::Test::HasFatalFailure()) return;

    // (c) Batch oracle over the applied prefix: everything up to the
    // last durable marker is flushed state; later events are pending.
    std::size_t applied_end = 0;
    bool has_marker = false;
    for (std::size_t i = 0; i < durable_records.size(); ++i) {
      if (std::holds_alternative<FlushMarker>(durable_records[i])) {
        applied_end = i;
        has_marker = true;
      }
    }
    if (!has_marker) {
      EXPECT_EQ(recovered->stream().num_clusterings(), 0u);
      continue;
    }
    BatchMirror mirror(fixture.window);
    for (std::size_t i = 0; i < applied_end; ++i) {
      if (!std::holds_alternative<FlushMarker>(durable_records[i])) {
        mirror.Apply(ToStreamEvent(durable_records[i]));
      }
    }
    ASSERT_EQ(recovered->stream().num_objects(), mirror.num_objects());
    ASSERT_EQ(recovered->stream().num_clusterings(), mirror.num_clusterings());
    const ClusteringSet input = mirror.Input();
    oracle::ExpectSameDistances(
        recovered->stream(),
        BatchInstance(input, options.missing, DistanceBackend::kDense));
    oracle::ExpectSameDistances(
        recovered->stream(),
        BatchInstance(input, options.missing, DistanceBackend::kLazy));
    if (options.fold) {
      oracle::ExpectSameFold(recovered->stream(), SignatureIndex::Build(input));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DurabilityCrashMatrixTest, JournalOnlyDense) {
  RunCrashMatrix({"journal_dense", false, false, 0, 1});
}

TEST(DurabilityCrashMatrixTest, JournalOnlyDenseFolded) {
  RunCrashMatrix({"journal_dense_fold", true, false, 0, 1});
}

TEST(DurabilityCrashMatrixTest, JournalOnlyLazy) {
  RunCrashMatrix({"journal_lazy", false, true, 0, 2});
}

TEST(DurabilityCrashMatrixTest, JournalOnlyLazyFolded) {
  RunCrashMatrix({"journal_lazy_fold", true, true, 0, 2});
}

TEST(DurabilityCrashMatrixTest, SnapshottingDense) {
  RunCrashMatrix({"snap_dense", false, false, 2, 1});
}

TEST(DurabilityCrashMatrixTest, SnapshottingDenseFolded) {
  RunCrashMatrix({"snap_dense_fold", true, false, 2, 1});
}

TEST(DurabilityCrashMatrixTest, SnapshottingLazy) {
  RunCrashMatrix({"snap_lazy", false, true, 2, 3});
}

TEST(DurabilityCrashMatrixTest, SnapshottingLazyFoldedNoAutoFsync) {
  RunCrashMatrix({"snap_lazy_fold", true, true, 2, 0});
}

// Removal records in the journal: every kill point must still recover
// to the exact prefix, with the id vectors carrying holes.
TEST(DurabilityCrashMatrixTest, JournalOnlyDenseRemovals) {
  RunCrashMatrix({"journal_dense_rm", false, false, 0, 1, /*removals=*/true});
}

TEST(DurabilityCrashMatrixTest, JournalOnlyLazyFoldedRemovals) {
  RunCrashMatrix({"journal_lazy_fold_rm", true, true, 0, 2, /*removals=*/true});
}

TEST(DurabilityCrashMatrixTest, SnapshottingDenseFoldedRemovals) {
  RunCrashMatrix({"snap_dense_fold_rm", true, false, 2, 1, /*removals=*/true});
}

// Window legs: auto-evictions happen at flush time, so the journal holds
// only adds/removes — recovery must re-derive every eviction and the
// snapshots must round-trip the window queue.
TEST(DurabilityCrashMatrixTest, JournalOnlyDenseWindow) {
  RunCrashMatrix(
      {"journal_dense_win", false, false, 0, 1, /*removals=*/true, 3});
}

TEST(DurabilityCrashMatrixTest, SnapshottingLazyFoldedWindow) {
  RunCrashMatrix(
      {"snap_lazy_fold_win", true, true, 2, 0, /*removals=*/true, 3});
}

// ---------------------------------------------------------------------------
// Recover, then keep going
// ---------------------------------------------------------------------------

// A crash is not the end of the stream: recovery plus re-driving the
// lost suffix must land bit-identical to a run that never crashed —
// the flush boundaries re-align because recovery leaves exactly the
// events past the last durable marker pending.
TEST(DurabilityTest, RecoveryThenContinuingMatchesAnUninterruptedRun) {
  const std::string journal = TempPath("continue.journal");
  const std::string snapshot = journal + ".snap";
  const std::vector<std::string> all_files = {journal, snapshot,
                                              snapshot + ".tmp"};
  const StreamAggregatorOptions options = StreamOptions(true, true);
  const std::vector<StreamRecord> records = Workload(59, /*fold=*/true);
  DurabilityOptions durability;
  durability.journal_path = journal;
  durability.snapshot_every = 2;

  Clean(all_files);
  CrashPointFileSystem dry(FileSystem::Real());
  ASSERT_TRUE(DriveDurable(options, durability, &dry, records).ok());
  const std::uint64_t total_ops = dry.ops();
  const StreamAggregator uninterrupted = PlainReplay(options, records);

  for (const std::uint64_t kill :
       {total_ops / 4, total_ops / 2, (3 * total_ops) / 4}) {
    if (kill == 0) continue;
    SCOPED_TRACE("kill point " + std::to_string(kill));
    Clean(all_files);
    CrashPointFileSystem crashing(FileSystem::Real(), kill);
    ASSERT_FALSE(DriveDurable(options, durability, &crashing, records).ok());
    ASSERT_TRUE(crashing.crashed());

    Result<std::unique_ptr<DurableStreamAggregator>> recovered_r =
        DurableStreamAggregator::Open(options, durability);
    ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().message();
    std::unique_ptr<DurableStreamAggregator> durable =
        std::move(recovered_r).value();

    // Re-drive everything the journal did not capture.
    for (std::size_t i = durable->recovery().journal_records;
         i < records.size(); ++i) {
      Status status;
      if (std::holds_alternative<FlushMarker>(records[i])) {
        status = durable->Flush().status();
      } else {
        status = durable->Ingest(ToStreamEvent(records[i]));
      }
      ASSERT_TRUE(status.ok()) << status.message();
    }
    ASSERT_TRUE(durable->Close().ok());
    oracle::ExpectStreamsBitIdentical(durable->stream(), uninterrupted);

    // And the completed journal recovers to the same place once more.
    Result<std::unique_ptr<DurableStreamAggregator>> reopened =
        DurableStreamAggregator::Open(options, durability);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    EXPECT_EQ((*reopened)->recovery().journal_records, records.size());
    oracle::ExpectStreamsBitIdentical((*reopened)->stream(), uninterrupted);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace clustagg
