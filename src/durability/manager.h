#ifndef RECEIPT_DURABILITY_MANAGER_H_
#define RECEIPT_DURABILITY_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "durability/journal.h"
#include "durability/snapshot.h"
#include "obs/metrics.h"

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

/// Snapshot counts are reads of receipt_snapshot_*_total; the policy
/// fields are the manager's options.
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
  /// Creates directories, opens a fresh journal segment. The journal and
  /// the snapshot writer count their events in `metrics`.
  static std::unique_ptr<DurabilityManager> Open(
      const DurabilityOptions& options, obs::MetricsRegistry& metrics,
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
  std::string snapshot_dir() const { return SnapshotDirFor(options_.data_dir); }

  DurabilityStats stats();

  static std::string JournalDirFor(const std::string& data_dir) {
    return data_dir + "/journal";
  }
  static std::string SnapshotDirFor(const std::string& data_dir) {
    return data_dir + "/snapshots";
  }

 private:
  DurabilityManager(const DurabilityOptions& options,
                    std::unique_ptr<Journal> journal,
                    obs::MetricsRegistry& metrics);

  DurabilityOptions options_;
  std::unique_ptr<Journal> journal_;
  obs::Counter* const snapshots_written_;
  obs::Counter* const snapshot_failures_;
  obs::Histogram* const append_latency_;
  obs::Histogram* const snapshot_latency_;

  std::mutex mu_;
  /// graph -> lowest journal segment whose records the graph still needs
  /// on replay. Min over all graphs = the truncation floor.
  std::map<std::string, uint64_t> needed_segment_;
};

}  // namespace receipt::durability

#endif  // RECEIPT_DURABILITY_MANAGER_H_
