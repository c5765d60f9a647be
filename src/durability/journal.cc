#include "durability/journal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "durability/wire.h"
#include "util/crc32.h"

namespace receipt::durability {

namespace {

// "RCPTWAL1" little-endian, followed by a format version and the segment's
// own sequence number (so a renamed file cannot impersonate another slot).
constexpr uint64_t kSegmentMagic = 0x314C415754504352ull;
constexpr uint32_t kSegmentVersion = 1;
constexpr uint64_t kSegmentHeaderBytes = 8 + 4 + 8;
// Frames above this are rejected as corruption rather than attempted as a
// 4GB allocation.
constexpr uint32_t kMaxFrameBytes = 1u << 30;
// kBatch: fsync once this many unsynced bytes accumulate.
constexpr uint64_t kBatchSyncBytes = 256ull << 10;

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64 ".wal", seq);
  return buf;
}

/// Parses "<8 digits>.wal" into *seq; false for any other file name.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  if (name.size() != 12 || name.substr(8) != ".wal") return false;
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

std::string EncodePayload(const JournalRecord& record) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(record.type));
  w.Str(record.graph);
  w.U64(record.epoch);
  w.U64(record.new_epoch);
  w.U32(record.num_u);
  w.U32(record.num_v);
  w.U32(static_cast<uint32_t>(record.edges.size()));
  for (const auto& e : record.edges) {
    w.U32(e.u);
    w.U32(e.v);
  }
  w.U32(static_cast<uint32_t>(record.updates.size()));
  for (const auto& op : record.updates) {
    w.U8(op.insert ? 1 : 0);
    w.U32(op.u);
    w.U32(op.v);
  }
  return std::move(w.out);
}

bool DecodePayload(const char* data, size_t size, JournalRecord* record) {
  ByteReader r(data, size);
  record->type = static_cast<JournalRecord::Type>(r.U8());
  record->graph = r.Str();
  record->epoch = r.U64();
  record->new_epoch = r.U64();
  record->num_u = r.U32();
  record->num_v = r.U32();
  uint32_t num_edges = r.U32();
  if (!r.ok || static_cast<size_t>(num_edges) * 8 > size) return false;
  record->edges.resize(num_edges);
  for (auto& e : record->edges) {
    e.u = r.U32();
    e.v = r.U32();
  }
  uint32_t num_updates = r.U32();
  if (!r.ok || static_cast<size_t>(num_updates) * 9 > size) return false;
  record->updates.resize(num_updates);
  for (auto& op : record->updates) {
    op.insert = r.U8() != 0;
    op.u = r.U32();
    op.v = r.U32();
  }
  if (!r.AtEnd()) return false;
  switch (record->type) {
    case JournalRecord::Type::kRegister:
    case JournalRecord::Type::kUnregister:
    case JournalRecord::Type::kEdgeBatch:
    case JournalRecord::Type::kSeal:
      return true;
  }
  return false;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "unknown";
}

bool FsyncPolicyFromName(const std::string& name, FsyncPolicy* out) {
  if (name == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (name == "batch") {
    *out = FsyncPolicy::kBatch;
  } else if (name == "off") {
    *out = FsyncPolicy::kOff;
  } else {
    return false;
  }
  return true;
}

std::string EncodeFrame(const JournalRecord& record) {
  std::string payload = EncodePayload(record);
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(util::Crc32(payload.data(), payload.size()));
  frame.out.append(payload);
  return std::move(frame.out);
}

FrameStatus DecodeFrame(std::string_view bytes, JournalRecord* record,
                        size_t* frame_bytes, std::string* error) {
  if (bytes.size() < 8) return FrameStatus::kTorn;
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes.data(), 4);
  std::memcpy(&crc, bytes.data() + 4, 4);
  if (len > kMaxFrameBytes) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds limit";
    }
    return FrameStatus::kCorrupt;
  }
  if (bytes.size() - 8 < len) return FrameStatus::kTorn;
  const char* payload = bytes.data() + 8;
  if (util::Crc32(payload, len) != crc) {
    if (error != nullptr) *error = "CRC mismatch";
    return FrameStatus::kCorrupt;
  }
  if (!DecodePayload(payload, len, record)) {
    if (error != nullptr) *error = "undecodable record";
    return FrameStatus::kCorrupt;
  }
  *frame_bytes = 8 + size_t{len};
  return FrameStatus::kOk;
}

Journal::Journal(const JournalOptions& options,
                 obs::MetricsRegistry& metrics)
    : options_(options),
      appends_(metrics.GetCounter("receipt_journal_appends_total",
                                  "Journal records appended")),
      append_failures_(metrics.GetCounter(
          "receipt_journal_append_failures_total", "Journal append failures")),
      bytes_written_(metrics.GetCounter("receipt_journal_bytes_total",
                                        "Journal bytes written")),
      fsyncs_(metrics.GetCounter("receipt_journal_fsyncs_total",
                                 "Journal segment fsyncs")),
      rotations_(metrics.GetCounter("receipt_journal_rotations_total",
                                    "Journal segment rotations")),
      segments_dropped_(
          metrics.GetCounter("receipt_journal_segments_dropped_total",
                             "Journal segments deleted under a snapshot")) {}

std::unique_ptr<Journal> Journal::Open(const JournalOptions& options,
                                       obs::MetricsRegistry& metrics,
                                       std::string* error) {
  if (!util::io::EnsureDir(options.dir, error)) return nullptr;
  uint64_t max_seq = 0;
  for (const auto& name : util::io::ListDir(options.dir, nullptr)) {
    uint64_t seq = 0;
    if (ParseSegmentName(name, &seq)) max_seq = std::max(max_seq, seq);
  }
  std::unique_ptr<Journal> journal(new Journal(options, metrics));
  journal->segment_seq_ = max_seq;  // RotateLocked bumps to max_seq + 1
  if (!journal->RotateLocked(error)) return nullptr;
  return journal;
}

Journal::~Journal() {
  std::string error;
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_ && unsynced_bytes_ > 0) SyncLocked(&error);
}

bool Journal::RotateLocked(std::string* error) {
  util::io::CrashPoint("journal.rotate");
  segment_seq_ += 1;
  std::string path = options_.dir + "/" + SegmentName(segment_seq_);
  util::io::File file = util::io::File::OpenAppend(path, error);
  if (!file.valid()) return false;
  ByteWriter header;
  header.U64(kSegmentMagic);
  header.U32(kSegmentVersion);
  header.U64(segment_seq_);
  if (!file.WriteFully(header.out.data(), header.out.size(), error)) {
    return false;
  }
  if (!file.Sync(error)) return false;
  if (!util::io::SyncDir(options_.dir, error)) return false;
  segment_ = std::move(file);
  segment_size_ = kSegmentHeaderBytes;
  unsynced_bytes_ = 0;
  return true;
}

bool Journal::SyncLocked(std::string* error) {
  if (!segment_.Sync(error)) return false;
  unsynced_bytes_ = 0;
  fsyncs_->Increment();
  return true;
}

bool Journal::Append(const JournalRecord& record, std::string* error) {
  std::string frame = EncodeFrame(record);
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    if (error != nullptr) *error = "journal is broken (fail-stop)";
    append_failures_->Increment();
    return false;
  }
  if (segment_size_ >= options_.segment_bytes) {
    if (!RotateLocked(error)) {
      // segment_seq_ may already be bumped with no file installed; the
      // writer's position is no longer trustworthy. Fail-stop.
      broken_ = true;
      append_failures_->Increment();
      return false;
    }
    // Counted here, not in RotateLocked: the segment Open starts is not a
    // rotation.
    rotations_->Increment();
  }
  uint64_t pre_offset = segment_size_;
  util::io::CrashPoint("journal.append.pre-write");
  if (!segment_.WriteFully(frame.data(), frame.size(), error)) {
    // Roll the on-disk tail back to the acknowledged prefix. If even that
    // fails (halted shim, dead device) the tail may hold torn bytes we can
    // no longer remove — fail-stop so no later append lands after them.
    std::string trunc_error;
    if (!segment_.Truncate(pre_offset, &trunc_error)) {
      broken_ = true;
    }
    append_failures_->Increment();
    return false;
  }
  segment_size_ += frame.size();
  unsynced_bytes_ += frame.size();
  util::io::CrashPoint("journal.append.pre-fsync");
  bool need_sync = options_.fsync == FsyncPolicy::kAlways ||
                   (options_.fsync == FsyncPolicy::kBatch &&
                    unsynced_bytes_ >= kBatchSyncBytes);
  if (need_sync && !SyncLocked(error)) {
    // The record reached the page cache but not necessarily the platter;
    // the caller must not ack. Roll back so the acked prefix stays exact.
    std::string trunc_error;
    if (segment_.Truncate(pre_offset, &trunc_error)) {
      segment_size_ = pre_offset;
      unsynced_bytes_ = unsynced_bytes_ >= frame.size()
                            ? unsynced_bytes_ - frame.size()
                            : 0;
    } else {
      broken_ = true;
    }
    append_failures_->Increment();
    return false;
  }
  appends_->Increment();
  bytes_written_->Increment(frame.size());
  return true;
}

bool Journal::Sync(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    if (error != nullptr) *error = "journal is broken (fail-stop)";
    return false;
  }
  if (unsynced_bytes_ == 0) return true;
  return SyncLocked(error);
}

JournalLsn Journal::CurrentLsn() {
  std::lock_guard<std::mutex> lock(mu_);
  return {segment_seq_, segment_size_};
}

void Journal::DropSegmentsBelow(uint64_t min_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  util::io::CrashPoint("journal.truncate");
  bool dropped = false;
  for (const auto& name : util::io::ListDir(options_.dir, nullptr)) {
    uint64_t seq = 0;
    if (!ParseSegmentName(name, &seq)) continue;
    if (seq >= min_seq || seq == segment_seq_) continue;
    if (util::io::RemoveFile(options_.dir + "/" + name, nullptr)) {
      segments_dropped_->Increment();
      dropped = true;
    }
  }
  if (dropped) util::io::SyncDir(options_.dir, nullptr);
}

JournalStats Journal::stats() {
  JournalStats stats;
  stats.appends = appends_->Value();
  stats.append_failures = append_failures_->Value();
  stats.bytes_written = bytes_written_->Value();
  stats.fsyncs = fsyncs_->Value();
  stats.rotations = rotations_->Value();
  stats.segments_dropped = segments_dropped_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  stats.current_segment = segment_seq_;
  stats.broken = broken_;
  return stats;
}

bool ScanJournal(
    const std::string& dir,
    const std::function<bool(const JournalRecord&, const JournalLsn&)>& visit,
    JournalScanResult* result, std::string* error) {
  *result = JournalScanResult{};
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& name : util::io::ListDir(dir, nullptr)) {
    uint64_t seq = 0;
    if (ParseSegmentName(name, &seq)) segments.emplace_back(seq, name);
  }
  std::sort(segments.begin(), segments.end());
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first != segments[i].first + 1) {
      if (error != nullptr) {
        *error = "journal segment gap: " + segments[i].second + " -> " +
                 segments[i + 1].second;
      }
      return false;
    }
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    const bool final_segment = i + 1 == segments.size();
    std::string path = dir + "/" + name;
    std::string bytes;
    if (!util::io::ReadFileBytes(path, &bytes, error)) return false;
    result->segments += 1;
    ByteReader header(bytes.data(),
                      std::min<size_t>(bytes.size(), kSegmentHeaderBytes));
    uint64_t magic = header.U64();
    uint32_t version = header.U32();
    uint64_t header_seq = header.U64();
    if (!header.ok || magic != kSegmentMagic) {
      if (error != nullptr) *error = "bad journal segment header: " + path;
      return false;
    }
    if (version != kSegmentVersion) {
      if (error != nullptr) {
        *error = "journal segment version mismatch in " + path + ": got " +
                 std::to_string(version) + ", want " +
                 std::to_string(kSegmentVersion);
      }
      return false;
    }
    if (header_seq != seq) {
      if (error != nullptr) {
        *error = "journal segment sequence mismatch: " + path;
      }
      return false;
    }
    size_t pos = kSegmentHeaderBytes;
    while (pos < bytes.size()) {
      JournalRecord record;
      size_t frame_bytes = 0;
      std::string frame_error;
      const FrameStatus status =
          DecodeFrame(std::string_view(bytes).substr(pos), &record,
                      &frame_bytes, &frame_error);
      if (status == FrameStatus::kTorn) {
        if (!final_segment) {
          if (error != nullptr) {
            *error = "torn record in non-final journal segment: " + path;
          }
          return false;
        }
        result->torn_tail = true;
        result->torn_bytes = bytes.size() - pos;
        util::io::TruncateFile(path, pos, nullptr);
        return true;
      }
      if (status == FrameStatus::kCorrupt) {
        if (error != nullptr) {
          *error = "journal " + frame_error + " at " + path + " offset " +
                   std::to_string(pos);
        }
        return false;
      }
      result->records += 1;
      if (!visit(record, JournalLsn{seq, pos})) return true;
      pos += frame_bytes;
    }
  }
  return true;
}

}  // namespace receipt::durability
