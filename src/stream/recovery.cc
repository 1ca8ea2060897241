#include "stream/recovery.h"

#include <utility>
#include <variant>
#include <vector>

#include "core/instrumentation.h"

namespace clustagg {

std::string EffectiveSnapshotPath(const DurabilityOptions& durability) {
  return durability.snapshot_path.empty()
             ? durability.journal_path + ".snap"
             : durability.snapshot_path;
}

Result<std::unique_ptr<DurableStreamAggregator>> DurableStreamAggregator::Open(
    StreamAggregatorOptions stream_options, DurabilityOptions durability,
    FileSystem* fs, Telemetry* telemetry) {
  if (durability.journal_path.empty()) {
    return Status::InvalidArgument(
        "a durable stream needs a journal path");
  }
  std::unique_ptr<DurableStreamAggregator> durable(new DurableStreamAggregator(
      StreamAggregator(std::move(stream_options)), std::move(durability), fs,
      telemetry));
  DurabilityOptions& opts = durable->options_;
  RecoveryReport& report = durable->recovery_;
  const std::string snapshot_path = EffectiveSnapshotPath(opts);

  // Seed from the newest valid snapshot, if any. A corrupt snapshot is
  // a hard error: silently falling back to a full journal replay would
  // mask real data loss when the journal predating the snapshot was
  // already pruned by the operator.
  std::uint64_t cursor = 0;
  if (fs->FileExists(snapshot_path)) {
    Result<StreamSnapshot> snapshot = ReadSnapshotFile(fs, snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    if (Status s = durable->stream_.RestoreState(std::move(snapshot->state));
        !s.ok()) {
      return Status::DataLoss(snapshot_path + ": " + s.message());
    }
    cursor = snapshot->journal_records;
    report.recovered = true;
    report.from_snapshot = true;
    report.snapshot_records = cursor;
  }

  // Read the journal; truncate a torn tail so the reopened writer
  // appends after the last durable frame instead of burying garbage
  // mid-file.
  std::vector<StreamRecord> records;
  if (fs->FileExists(opts.journal_path)) {
    Result<JournalReadResult> read = ReadJournal(fs, opts.journal_path);
    if (!read.ok()) return read.status();
    if (read->torn_tail) {
      if (Status s = fs->TruncateFile(opts.journal_path, read->valid_bytes);
          !s.ok()) {
        return s;
      }
      report.truncated_torn_tail = true;
      report.torn_bytes = read->torn_bytes;
      TelemetryCount(telemetry, "durability.recovery.torn_bytes_truncated",
                     read->torn_bytes);
    }
    records = std::move(read->records);
    report.recovered = true;
  }
  report.journal_records = records.size();
  if (cursor > records.size()) {
    return Status::DataLoss(
        snapshot_path + ": snapshot covers " + std::to_string(cursor) +
        " journal records but " + opts.journal_path + " holds only " +
        std::to_string(records.size()) +
        " — the journal was truncated behind the snapshot's back");
  }

  // Replay the suffix the snapshot does not cover. Markers replay with
  // an unrestricted budget: only fully-converged flushes were journaled
  // (see the class comment), so this reproduces them exactly.
  for (std::uint64_t i = cursor; i < records.size(); ++i) {
    const StreamRecord& record = records[i];
    Status status;
    if (std::holds_alternative<FlushMarker>(record)) {
      Result<StreamFlushReport> flushed = durable->stream_.Flush();
      status = flushed.status();
    } else {
      status = durable->stream_.Ingest(ToStreamEvent(record));
    }
    if (!status.ok()) {
      // The journal frame was CRC-valid, so this is the writer's state
      // and the stream's validation disagreeing — data loss, not a
      // caller mistake.
      return Status::DataLoss(opts.journal_path + ": record " +
                              std::to_string(i + 1) +
                              " does not replay: " + status.message());
    }
  }
  report.replayed_records = records.size() - cursor;
  if (report.recovered) {
    TelemetryCount(telemetry, "durability.recovery.runs");
    TelemetryCount(telemetry, "durability.recovery.replayed_records",
                   report.replayed_records);
  }

  Result<JournalWriter> journal = JournalWriter::Open(
      fs, opts.journal_path, JournalOptions{opts.fsync_every}, records.size(),
      telemetry);
  if (!journal.ok()) return journal.status();
  durable->journal_ =
      std::make_unique<JournalWriter>(std::move(journal).value());
  return durable;
}

Status DurableStreamAggregator::Poison(Status status) {
  if (poisoned_.ok()) poisoned_ = status;
  return status;
}

Status DurableStreamAggregator::Ingest(StreamEvent event) {
  if (!poisoned_.ok()) return poisoned_;
  if (closed_) return Status::FailedPrecondition("durable stream is closed");
  // Validate-then-journal: a record the stream rejects must never reach
  // the journal (it would poison every future recovery), and a record
  // the journal rejects poisons this wrapper instead of diverging
  // silently.
  const StreamRecord record = ToStreamRecord(event);
  if (Status s = stream_.Ingest(std::move(event)); !s.ok()) return s;
  if (Status s = journal_->Append(record); !s.ok()) return Poison(s);
  return Status::OK();
}

Result<StreamFlushReport> DurableStreamAggregator::Flush(
    const RunContext& run) {
  if (!poisoned_.ok()) return poisoned_;
  if (closed_) return Status::FailedPrecondition("durable stream is closed");
  Result<StreamFlushReport> report = stream_.Flush(run);
  if (!report.ok()) return report;
  if (report->outcome == RunOutcome::kConverged &&
      stream_.pending_events() == 0) {
    if (Status s = journal_->Append(FlushMarker{}); !s.ok()) {
      return Poison(s);
    }
    ++markers_since_snapshot_;
    if (Status s = MaybeSnapshot(); !s.ok()) return Poison(s);
  }
  return report;
}

Status DurableStreamAggregator::MaybeSnapshot() {
  if (options_.snapshot_every == 0 ||
      markers_since_snapshot_ < options_.snapshot_every) {
    return Status::OK();
  }
  // The cursor must count exactly the records whose effects the state
  // carries: everything journaled so far, and nothing pending (a
  // converged flush just drained the queue).
  Result<StreamAggregatorState> state = stream_.ExportState();
  if (!state.ok()) return state.status();
  StreamSnapshot snapshot;
  snapshot.state = *std::move(state);
  snapshot.journal_records = journal_->records_appended();
  // The journal must be durable up to the cursor before the snapshot
  // claims it: a snapshot pointing past a lost journal suffix is
  // exactly the kDataLoss case Open refuses.
  if (Status s = journal_->Sync(); !s.ok()) return s;
  Result<std::uint64_t> bytes =
      WriteSnapshotFile(fs_, EffectiveSnapshotPath(options_), snapshot);
  if (!bytes.ok()) return bytes.status();
  markers_since_snapshot_ = 0;
  TelemetryCount(telemetry_, "durability.snapshots_written");
  TelemetryCount(telemetry_, "durability.snapshot_bytes", *bytes);
  return Status::OK();
}

Status DurableStreamAggregator::Close() {
  if (!poisoned_.ok()) return poisoned_;
  if (closed_) return Status::OK();
  closed_ = true;
  if (Status s = journal_->Close(); !s.ok()) return Poison(s);
  return Status::OK();
}

}  // namespace clustagg
