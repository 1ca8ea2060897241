#include "stream/snapshot.h"

#include <bit>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace clustagg {

namespace {

void PutU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(bytes, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(bytes, 8);
}

void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

void PutLabel(std::string* out, Clustering::Label v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

/// Bounds-checked little-endian cursor over the snapshot body. Every
/// read can fail (short input), so decoding tracks one sticky error and
/// checks it once at the end — corruption cannot smuggle a partial
/// decode out.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t U32() {
    if (!Need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!Need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double Double() { return std::bit_cast<double>(U64()); }

  Clustering::Label Label() {
    return static_cast<Clustering::Label>(static_cast<std::int32_t>(U32()));
  }

  /// A length prefix, guarded against lengths the remaining bytes
  /// cannot possibly satisfy (each element takes >= `element_bytes`),
  /// so a corrupt length fails cleanly instead of driving a
  /// multi-gigabyte reserve.
  std::size_t Length(std::size_t element_bytes) {
    const std::uint64_t len = U64();
    // Even zero-byte elements (a clustering column over zero objects)
    // cost at least one byte here, so a corrupt length cannot demand a
    // huge container allocation the remaining input could never fill.
    const std::uint64_t floor_bytes = element_bytes == 0 ? 1 : element_bytes;
    if (short_ || len > (bytes_.size() - pos_) / floor_bytes) {
      short_ = true;
      return 0;
    }
    return static_cast<std::size_t>(len);
  }

  bool Bool() { return U32() != 0; }

  bool exhausted() const { return pos_ == bytes_.size(); }
  bool failed() const { return short_; }

 private:
  bool Need(std::size_t count) {
    if (short_ || bytes_.size() - pos_ < count) {
      short_ = true;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool short_ = false;
};

}  // namespace

std::string EncodeSnapshot(const StreamSnapshot& snapshot) {
  const StreamAggregatorState& s = snapshot.state;
  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&out, kSnapshotVersion);
  PutU64(&out, snapshot.journal_records);
  PutU64(&out, s.num_objects);
  PutU64(&out, s.columns.size());
  for (const std::vector<Clustering::Label>& column : s.columns) {
    for (Clustering::Label label : column) PutLabel(&out, label);
  }
  PutU64(&out, s.weights.size());
  for (double w : s.weights) PutDouble(&out, w);
  PutDouble(&out, s.total_weight);
  PutU64(&out, s.labels.size());
  for (Clustering::Label label : s.labels) PutLabel(&out, label);
  PutU32(&out, s.ever_clustered ? 1 : 0);
  PutDouble(&out, s.cost);
  PutDouble(&out, s.predicted_cost);
  PutDouble(&out, s.drift_accum);
  PutU64(&out, s.flush_count);
  PutU64(&out, s.clustering_ids.size());
  for (std::uint64_t id : s.clustering_ids) PutU64(&out, id);
  PutU64(&out, s.object_ids.size());
  for (std::uint64_t id : s.object_ids) PutU64(&out, id);
  PutU64(&out, s.next_clustering_id);
  PutU64(&out, s.next_object_id);
  PutU32(&out, Crc32(out));
  return out;
}

Result<StreamSnapshot> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < sizeof(kSnapshotMagic) + 8) {
    return Status::DataLoss("snapshot is " + std::to_string(bytes.size()) +
                            " bytes, shorter than any valid snapshot");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::DataLoss(
        "snapshot magic mismatch: not a clustagg snapshot file");
  }
  const std::string_view checked = bytes.substr(0, bytes.size() - 4);
  Reader crc_reader(bytes.substr(bytes.size() - 4));
  const std::uint32_t stored_crc = crc_reader.U32();
  if (Crc32(checked) != stored_crc) {
    return Status::DataLoss(
        "snapshot checksum mismatch: the file is corrupt or truncated");
  }

  Reader r(checked.substr(sizeof(kSnapshotMagic)));
  const std::uint32_t version = r.U32();
  if (version != kSnapshotVersion) {
    return Status::DataLoss("snapshot format version " +
                            std::to_string(version) +
                            " is not supported by this build (expected " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  StreamSnapshot snapshot;
  StreamAggregatorState& s = snapshot.state;
  snapshot.journal_records = r.U64();
  s.num_objects = static_cast<std::size_t>(r.U64());
  const std::size_t m = r.Length(s.num_objects * 4);
  s.columns.resize(m);
  for (std::vector<Clustering::Label>& column : s.columns) {
    column.resize(s.num_objects);
    for (Clustering::Label& label : column) label = r.Label();
  }
  s.weights.resize(r.Length(8));
  for (double& w : s.weights) w = r.Double();
  s.total_weight = r.Double();
  s.labels.resize(r.Length(4));
  for (Clustering::Label& label : s.labels) label = r.Label();
  s.ever_clustered = r.Bool();
  s.cost = r.Double();
  s.predicted_cost = r.Double();
  s.drift_accum = r.Double();
  s.flush_count = r.U64();
  s.clustering_ids.resize(r.Length(8));
  for (std::uint64_t& id : s.clustering_ids) id = r.U64();
  s.object_ids.resize(r.Length(8));
  for (std::uint64_t& id : s.object_ids) id = r.U64();
  s.next_clustering_id = r.U64();
  s.next_object_id = r.U64();
  if (r.failed() || !r.exhausted()) {
    // The CRC passed, so the writer itself emitted an inconsistent
    // body — still data loss, just blamed on the producer.
    return Status::DataLoss(
        "snapshot body length disagrees with its own field lengths");
  }
  return snapshot;
}

Result<std::uint64_t> WriteSnapshotFile(FileSystem* fs,
                                        const std::string& path,
                                        const StreamSnapshot& snapshot) {
  const std::string tmp = path + ".tmp";
  const std::string encoded = EncodeSnapshot(snapshot);
  Result<std::unique_ptr<WritableFile>> file = fs->OpenForWrite(tmp);
  if (!file.ok()) return file.status();
  if (Status s = (*file)->Append(encoded); !s.ok()) return s;
  if (Status s = (*file)->Sync(); !s.ok()) return s;
  if (Status s = (*file)->Close(); !s.ok()) return s;
  // The rename is the commit point: before it readers see the old
  // snapshot, after it the new one, and POSIX rename is atomic within a
  // filesystem.
  if (Status s = fs->Rename(tmp, path); !s.ok()) return s;
  return static_cast<std::uint64_t>(encoded.size());
}

Result<StreamSnapshot> ReadSnapshotFile(const FileSystem* fs,
                                        const std::string& path) {
  if (!fs->FileExists(path)) {
    return Status::FailedPrecondition("no snapshot at " + path);
  }
  Result<std::string> bytes = fs->ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  Result<StreamSnapshot> snapshot = DecodeSnapshot(*bytes);
  if (!snapshot.ok() && snapshot.status().code() == StatusCode::kDataLoss) {
    return Status::DataLoss(path + ": " + snapshot.status().message());
  }
  return snapshot;
}

}  // namespace clustagg
