#include "stream/journal.h"

#include <cstring>
#include <limits>
#include <utility>

#include "core/instrumentation.h"

namespace clustagg {

namespace {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc

void PutU32(std::string* out, std::uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xFF);
  bytes[1] = static_cast<char>((v >> 8) & 0xFF);
  bytes[2] = static_cast<char>((v >> 16) & 0xFF);
  bytes[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(bytes, 4);
}

std::uint32_t GetU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

}  // namespace

Result<JournalWriter> JournalWriter::Open(FileSystem* fs, std::string path,
                                          JournalOptions options,
                                          std::uint64_t initial_records,
                                          Telemetry* telemetry) {
  Result<std::unique_ptr<WritableFile>> file = fs->OpenForAppend(path);
  if (!file.ok()) return file.status();
  return JournalWriter(std::move(file).value(), std::move(path), options,
                       initial_records, telemetry);
}

Status JournalWriter::Append(const StreamRecord& record) {
  const std::string line = FormatEventLog({record});
  std::string frame;
  frame.reserve(kFrameHeaderBytes + line.size());
  PutU32(&frame, static_cast<std::uint32_t>(line.size()));
  PutU32(&frame, Crc32(line));
  frame += line;
  if (Status s = file_->Append(frame); !s.ok()) return s;
  ++records_;
  ++unsynced_;
  TelemetryCount(telemetry_, "durability.journal_appends");
  TelemetryCount(telemetry_, "durability.journal_bytes", frame.size());
  if (options_.fsync_every != 0 && unsynced_ >= options_.fsync_every) {
    return Sync();
  }
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (Status s = file_->Sync(); !s.ok()) return s;
  unsynced_ = 0;
  TelemetryCount(telemetry_, "durability.journal_syncs");
  return Status::OK();
}

Status JournalWriter::Close() {
  if (unsynced_ > 0) {
    if (Status s = Sync(); !s.ok()) return s;
  }
  return file_->Close();
}

Result<JournalReadResult> ReadJournal(const FileSystem* fs,
                                      const std::string& path) {
  Result<std::string> data = fs->ReadFileToString(path);
  if (!data.ok()) return data.status();
  const std::string& bytes = *data;

  JournalReadResult result;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // A frame that cannot complete before EOF is a torn tail by
    // construction — there is no "more data beyond it".
    if (bytes.size() - pos < kFrameHeaderBytes) break;
    const std::uint32_t len = GetU32(bytes.data() + pos);
    const std::uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (bytes.size() - pos - kFrameHeaderBytes < len) break;

    const std::string_view payload(bytes.data() + pos + kFrameHeaderBytes,
                                   len);
    const std::size_t frame_end = pos + kFrameHeaderBytes + len;
    if (Crc32(payload) != crc) {
      if (frame_end >= bytes.size()) break;  // torn final frame
      return Status::DataLoss(
          path + ": journal frame at byte offset " + std::to_string(pos) +
          " failed its CRC-32 check with further frames beyond it — "
          "mid-file corruption, not a torn tail");
    }
    // The CRC passed, so the bytes are what the writer wrote; if they do
    // not parse as exactly one record the *writer's* output was bad (or
    // the file is not a journal), which truncation cannot repair.
    Result<std::vector<StreamRecord>> parsed = ParseEventLog(payload);
    if (!parsed.ok() || parsed->size() != 1) {
      return Status::DataLoss(
          path + ": journal frame at byte offset " + std::to_string(pos) +
          " has a CRC-valid payload that is not one event-log record" +
          (parsed.ok() ? "" : " (" + parsed.status().message() + ")"));
    }
    result.records.push_back(std::move(parsed->front()));
    pos = frame_end;
  }
  result.valid_bytes = pos;
  result.torn_tail = pos < bytes.size();
  result.torn_bytes = bytes.size() - pos;
  return result;
}

}  // namespace clustagg
