#ifndef CLUSTAGG_STREAM_SNAPSHOT_H_
#define CLUSTAGG_STREAM_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/file_io.h"
#include "common/status.h"
#include "stream/stream_aggregator.h"

namespace clustagg {

/// A snapshot file: the full applied state of a StreamAggregator plus
/// the journal cursor it corresponds to (how many journal records were
/// applied when the state was captured). Recovery loads the snapshot
/// and replays only the journal suffix past the cursor.
struct StreamSnapshot {
  StreamAggregatorState state;
  std::uint64_t journal_records = 0;
};

/// First bytes of every snapshot file ("CAGS": Clustering AGgregation
/// Snapshot) and the one format version this build reads and writes.
/// Readers reject a wrong magic, a version they do not know, and any
/// checksum mismatch with StatusCode::kDataLoss — never a partial
/// decode.
inline constexpr char kSnapshotMagic[4] = {'C', 'A', 'G', 'S'};
/// Version history: 1 = no stable ids; 2 = windowed forgetting
/// (appends the clustering/object id vectors and next-id counters to
/// the body); 3 = label columns only (drops the two O(n^2) pair-counter
/// triangles v2 carried between the total weight and the solution
/// labels, so a snapshot is O(n m)). Older versions are rejected with
/// kDataLoss, never upgraded (see docs/durability.md): a stream whose
/// newest snapshot predates v3 recovers from its full journal once the
/// stale snapshot is moved aside.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Serializes a snapshot:
///   "CAGS" | u32 version | body | u32 CRC-32 of everything before it
/// with all integers little-endian and doubles as the little-endian
/// bytes of their IEEE-754 bit pattern (exact round-trip, no text
/// formatting involved). The body is the StreamAggregatorState fields
/// in declaration order, vectors length-prefixed.
std::string EncodeSnapshot(const StreamSnapshot& snapshot);

/// Decodes EncodeSnapshot's output; any deviation — short file, bad
/// magic, unknown version, trailing garbage, checksum mismatch,
/// internally inconsistent lengths — is kDataLoss with a message naming
/// the failed check.
Result<StreamSnapshot> DecodeSnapshot(std::string_view bytes);

/// Atomically (re)writes the snapshot at `path`: encodes to
/// `path`.tmp, fsyncs, closes, then renames over `path`. A crash at
/// any point leaves either the complete old snapshot or the complete
/// new one — never a torn file at `path`; an orphaned .tmp is
/// harmless and is clobbered by the next write. Returns the encoded
/// byte count.
Result<std::uint64_t> WriteSnapshotFile(FileSystem* fs,
                                        const std::string& path,
                                        const StreamSnapshot& snapshot);

/// Reads and decodes the snapshot at `path`. A missing file is
/// FailedPrecondition (callers treat it as "no snapshot yet");
/// everything DecodeSnapshot rejects is kDataLoss.
Result<StreamSnapshot> ReadSnapshotFile(const FileSystem* fs,
                                        const std::string& path);

}  // namespace clustagg

#endif  // CLUSTAGG_STREAM_SNAPSHOT_H_
