#ifndef RECEIPT_DURABILITY_MANAGER_H_
#define RECEIPT_DURABILITY_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "durability/journal.h"
#include "durability/snapshot.h"
#include "obs/observability.h"

namespace receipt::durability {

struct DurabilityOptions {
  /// Root data directory. Layout: `<data_dir>/journal/<seq>.wal` and
  /// `<data_dir>/snapshots/<graph>.snap`.
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  uint64_t segment_bytes = 64ull << 20;
  /// Write a snapshot after every seal (and truncate covered journal
  /// segments). Off leaves the journal to grow until an admin snapshot.
  bool snapshot_on_seal = true;
};

struct DurabilityStats {
  JournalStats journal;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_failures = 0;
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  bool snapshot_on_seal = true;
};

/// The service-facing durability facade: owns the journal and the snapshot
/// directory, tracks which journal segment each live graph still needs,
/// and truncates segments no graph needs. Knows nothing about the service
/// layer — `recovery.{h,cc}` is the one file that bridges the two.
class DurabilityManager {
 public:
  /// Creates directories, opens a fresh journal segment. `obs` may be
  /// null (instruments are skipped).
  static std::unique_ptr<DurabilityManager> Open(
      const DurabilityOptions& options, obs::Observability* obs,
      std::string* error);

  /// Recovery seeding: graph -> lowest journal segment still holding
  /// records the graph's snapshot does not cover.
  void SeedCoverage(const std::map<std::string, uint64_t>& needed_segment);

  /// Write-ahead logging: appends `record` and keeps the graph's replay
  /// floor (the oldest segment its recovery still needs) in step with it.
  /// Returns true once the record is durable per the fsync policy.
  bool Append(const JournalRecord& record, std::string* error);

  /// Writes `data` as the graph's snapshot. Fills in the covered LSN from
  /// the journal's current position — the caller must hold whatever lock
  /// makes `data` consistent with "no concurrent appends for this graph".
  /// On success, drops journal segments no live graph needs any more.
  bool WriteSnapshot(SnapshotData* data, std::string* error);

  bool snapshot_on_seal() const { return options_.snapshot_on_seal; }
  const std::string& data_dir() const { return options_.data_dir; }
  std::string journal_dir() const { return options_.data_dir + "/journal"; }
  std::string snapshot_dir() const {
    return options_.data_dir + "/snapshots";
  }

  DurabilityStats stats();

  static std::string JournalDirFor(const std::string& data_dir) {
    return data_dir + "/journal";
  }
  static std::string SnapshotDirFor(const std::string& data_dir) {
    return data_dir + "/snapshots";
  }

 private:
  explicit DurabilityManager(const DurabilityOptions& options)
      : options_(options) {}
  bool AppendInstrumented(const JournalRecord& record, std::string* error);

  DurabilityOptions options_;
  std::unique_ptr<Journal> journal_;
  obs::Counter* journal_appends_ = nullptr;
  obs::Counter* journal_bytes_ = nullptr;
  obs::Counter* journal_failures_ = nullptr;
  obs::Counter* snapshot_writes_ = nullptr;
  obs::Counter* snapshot_failures_counter_ = nullptr;
  obs::Histogram* append_latency_ = nullptr;
  obs::Histogram* snapshot_latency_ = nullptr;

  std::mutex mu_;
  /// graph -> lowest journal segment whose records the graph still needs
  /// on replay. Min over all graphs = the truncation floor.
  std::map<std::string, uint64_t> needed_segment_;
  uint64_t snapshots_written_ = 0;
  uint64_t snapshot_failures_ = 0;
};

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_MANAGER_H_
