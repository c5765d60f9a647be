#ifndef RECEIPT_DURABILITY_JOURNAL_H_
#define RECEIPT_DURABILITY_JOURNAL_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graph/bipartite_graph.h"
#include "obs/metrics.h"
#include "util/io.h"

namespace receipt::durability {

/// When appends reach the disk. `kAlways` fsyncs every record (acknowledged
/// means power-loss durable), `kBatch` fsyncs once at least 256 KiB
/// are unsynced (acknowledged means process-crash durable, power-loss
/// durable within one batch window), `kOff` never fsyncs (process-crash
/// durable only — the page cache still survives kill -9).
enum class FsyncPolicy : uint8_t { kAlways = 0, kBatch = 1, kOff = 2 };

const char* FsyncPolicyName(FsyncPolicy policy);
/// Parses "always" / "batch" / "off"; false on anything else.
bool FsyncPolicyFromName(const std::string& name, FsyncPolicy* out);

/// One edge mutation inside a journaled batch.
struct EdgeOp {
  bool insert = true;
  uint32_t u = 0;
  uint32_t v = 0;
};

/// A journal record. One struct covers all types; unused fields stay empty.
struct JournalRecord {
  enum class Type : uint8_t {
    kRegister = 1,    // graph registered: epoch, shape, full edge list
    kUnregister = 2,  // graph evicted
    kEdgeBatch = 3,   // accepted batch: epoch it was accepted against, ops
    kSeal = 4,        // seal committed: epoch (old) -> new_epoch
  };

  Type type = Type::kEdgeBatch;
  std::string graph;
  uint64_t epoch = 0;
  uint64_t new_epoch = 0;
  uint32_t num_u = 0;
  uint32_t num_v = 0;
  std::vector<BipartiteGraph::Edge> edges;  // kRegister only
  std::vector<EdgeOp> updates;              // kEdgeBatch only
};

/// Position of a record: (segment sequence number, byte offset within it).
struct JournalLsn {
  uint64_t segment = 0;
  uint64_t offset = 0;
  auto operator<=>(const JournalLsn&) const = default;
};

struct JournalOptions {
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// Rotate to a new segment once the current one exceeds this.
  uint64_t segment_bytes = 64ull << 20;
};

/// The counters are reads of the journal's receipt_journal_* instruments;
/// current_segment and broken are read from the journal's own state.
struct JournalStats {
  uint64_t appends = 0;
  uint64_t append_failures = 0;
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;
  uint64_t rotations = 0;
  uint64_t segments_dropped = 0;
  uint64_t current_segment = 0;
  bool broken = false;
};

/// Append-only write-ahead journal over CRC32-framed records in rotating
/// segment files (`<dir>/<seq>.wal`). Thread-safe. Fail-stop: if a failed
/// append cannot be rolled back (the on-disk tail no longer matches the
/// acknowledged prefix), the journal marks itself broken and refuses all
/// further appends — callers surface that as 503, never as a silent ack.
class Journal {
 public:
  /// Opens for writing, always starting a fresh segment numbered above any
  /// existing one (recovery reads the old ones; the writer never appends
  /// to a tail whose validity it has not examined).
  /// Counts appends, bytes, fsyncs, rotations and dropped segments in
  /// `metrics`.
  static std::unique_ptr<Journal> Open(const JournalOptions& options,
                                       obs::MetricsRegistry& metrics,
                                       std::string* error);
  ~Journal();

  /// Encodes, frames, and writes `record`; fsyncs per policy. Returns true
  /// only once the record is durable to the policy's standard — the
  /// caller's acknowledgment gate.
  bool Append(const JournalRecord& record, std::string* error);

  /// Forces an fsync regardless of policy (no-op if nothing is unsynced).
  bool Sync(std::string* error);

  /// Position the *next* record will get. Everything a snapshot captures
  /// is covered by records strictly below this.
  JournalLsn CurrentLsn();

  /// Deletes sealed segments with sequence < `min_seq`. The active segment
  /// is never deleted. Best-effort: failures leave extra segments behind,
  /// which recovery skips via snapshot coverage.
  void DropSegmentsBelow(uint64_t min_seq);

  JournalStats stats();

  const std::string& dir() const { return options_.dir; }

 private:
  Journal(const JournalOptions& options, obs::MetricsRegistry& metrics);
  bool RotateLocked(std::string* error);
  bool SyncLocked(std::string* error);

  JournalOptions options_;
  obs::Counter* const appends_;
  obs::Counter* const append_failures_;
  obs::Counter* const bytes_written_;
  obs::Counter* const fsyncs_;
  obs::Counter* const rotations_;
  obs::Counter* const segments_dropped_;

  std::mutex mu_;
  util::io::File segment_;
  uint64_t segment_seq_ = 0;
  uint64_t segment_size_ = 0;
  uint64_t unsynced_bytes_ = 0;
  bool broken_ = false;
};

/// Everything ScanJournal learned besides the records themselves.
struct JournalScanResult {
  uint64_t records = 0;
  uint64_t segments = 0;
  /// True when the final segment ended in a partial record — the write a
  /// crash interrupted. The torn bytes are truncated away in place so the
  /// next scan is clean. Never an error.
  bool torn_tail = false;
  uint64_t torn_bytes = 0;
};

/// Reads every segment in `dir` in sequence order, invoking `visit` per
/// record with its LSN; `visit` returning false stops the scan (still a
/// success). Hard errors — CRC mismatch on a complete record, bad segment
/// header, version mismatch, sequence gap, torn frame in a non-final
/// segment — fail the scan: refusing to serve beats serving from a journal
/// that lies.
bool ScanJournal(
    const std::string& dir,
    const std::function<bool(const JournalRecord&, const JournalLsn&)>& visit,
    JournalScanResult* result, std::string* error);

/// Exact byte framing of one record (no segment header): the unit the
/// journal appends, and the body of a replicated write.
std::string EncodeFrame(const JournalRecord& record);

enum class FrameStatus : uint8_t {
  kOk,
  kTorn,     ///< `bytes` ends inside the frame
  kCorrupt,  ///< oversize length, CRC mismatch, or undecodable payload
};

/// Decodes the frame at the front of `bytes` — the one frame decoder, used
/// by ScanJournal and by replicas reading frames off the wire. On kOk fills
/// `record` and sets `*frame_bytes` to the frame's length; on kCorrupt sets
/// `error` to the reason.
FrameStatus DecodeFrame(std::string_view bytes, JournalRecord* record,
                        size_t* frame_bytes, std::string* error);

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_JOURNAL_H_
