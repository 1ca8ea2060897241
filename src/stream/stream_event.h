#ifndef CLUSTAGG_STREAM_STREAM_EVENT_H_
#define CLUSTAGG_STREAM_STREAM_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"
#include "core/clustering.h"

namespace clustagg {

/// Appends one input clustering to the stream: `labels[v]` is the new
/// clustering's label for object v (Clustering::kMissing allowed), so the
/// vector must cover every object the stream knows about at apply time —
/// including objects added by earlier events of the same batch. The
/// optional weight generalizes to the weighted median-partition objective
/// exactly like ClusteringSet weights do.
struct AddClusteringEvent {
  std::vector<Clustering::Label> labels;
  double weight = 1.0;
};

/// Appends one object to the stream: `labels[i]` is the label the i-th
/// existing input clustering assigns to the new object
/// (Clustering::kMissing = that clustering has no opinion), covering
/// every clustering known at apply time.
struct AddObjectEvent {
  std::vector<Clustering::Label> labels;
};

/// Removes one input clustering from the stream by its stable id.
/// Clusterings are numbered 0, 1, 2, ... in ingest order and ids are
/// never reused, so a removal names the same clustering no matter how
/// many earlier removals or window evictions happened in between.
/// Removing an unknown or already-removed id is rejected at Ingest with
/// kInvalidArgument — the label columns are never touched.
struct RemoveClusteringEvent {
  std::uint64_t id = 0;
};

/// Removes one object from the stream by its stable id (objects are
/// numbered 0, 1, 2, ... in ingest order, ids never reused). The object
/// leaves every label column, so every surviving pair keeps its exact
/// X_uv.
struct RemoveObjectEvent {
  std::uint64_t id = 0;
};

/// One ingestable stream event.
using StreamEvent = std::variant<AddClusteringEvent, AddObjectEvent,
                                 RemoveClusteringEvent, RemoveObjectEvent>;

/// Explicit batch boundary in a replayable event log: the replayer
/// flushes (applies pending deltas and repairs the solution) when it
/// reads one. Logs without markers are one big batch plus the final
/// flush.
struct FlushMarker {};

/// One line of a parsed event log.
using StreamRecord = std::variant<AddClusteringEvent, AddObjectEvent,
                                  RemoveClusteringEvent, RemoveObjectEvent,
                                  FlushMarker>;

/// Widens an ingestable event into a log record (the event alternatives
/// are a strict prefix of the record alternatives).
StreamRecord ToStreamRecord(const StreamEvent& event);

/// Narrows a log record into its ingestable event. Precondition: the
/// record is not a FlushMarker — callers dispatch markers to Flush()
/// before converting.
StreamEvent ToStreamEvent(const StreamRecord& record);

/// Text format for replayable event logs (see docs/streaming.md):
///   # comment (blank lines ignored)
///   clustering [weight=W] L1 L2 ... Ln
///   object L1 L2 ... Lm
///   remove_clustering ID
///   remove_object ID
///   flush
/// Labels are non-negative integers or `?` for missing, exactly like
/// label files. Malformed input — an unknown directive, a bad weight, a
/// label that overflows or exceeds kMaxParsedLabel, a malformed removal
/// id — yields InvalidArgument naming the offending 1-based line. Lines
/// end at \n, \r\n, or a lone \r, so the reported number always matches
/// the original file no matter which convention authored it.
///
/// When `lines` is non-null it is filled with one 1-based source line
/// number per returned record (lines->at(i) is where records[i] was
/// parsed), so callers can attribute later semantic errors — e.g. a
/// removal of an unknown id — to the offending line of the log.
Result<std::vector<StreamRecord>> ParseEventLog(
    std::string_view text, std::vector<std::size_t>* lines = nullptr);

/// Serializes records in the ParseEventLog format (one line per record,
/// trailing newline). Unit weights are omitted; missing labels become
/// `?`. ParseEventLog(FormatEventLog(r)) round-trips exactly.
std::string FormatEventLog(const std::vector<StreamRecord>& records);

/// Reads and parses an event log file.
Result<std::vector<StreamRecord>> ReadEventLogFile(
    const std::string& path, std::vector<std::size_t>* lines = nullptr);

}  // namespace clustagg

#endif  // CLUSTAGG_STREAM_STREAM_EVENT_H_
