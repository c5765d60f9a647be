#include "durability/manager.h"

#include <algorithm>
#include <limits>

#include "util/timer.h"

namespace receipt::durability {

DurabilityManager::DurabilityManager(const DurabilityOptions& options,
                                     std::unique_ptr<Journal> journal,
                                     obs::MetricsRegistry& metrics)
    : options_(options),
      journal_(std::move(journal)),
      snapshots_written_(metrics.GetCounter("receipt_snapshot_writes_total",
                                            "Snapshot files written")),
      snapshot_failures_(metrics.GetCounter("receipt_snapshot_failures_total",
                                            "Snapshot write failures")),
      append_latency_(metrics.GetHistogram("receipt_journal_append_seconds",
                                           "Journal append latency")),
      snapshot_latency_(metrics.GetHistogram("receipt_snapshot_write_seconds",
                                             "Snapshot write latency")) {}

std::unique_ptr<DurabilityManager> DurabilityManager::Open(
    const DurabilityOptions& options, obs::MetricsRegistry& metrics,
    std::string* error) {
  if (options.data_dir.empty()) {
    if (error != nullptr) *error = "durability: empty data_dir";
    return nullptr;
  }
  if (!util::io::EnsureDir(SnapshotDirFor(options.data_dir), error)) {
    return nullptr;
  }
  JournalOptions journal_options;
  journal_options.dir = JournalDirFor(options.data_dir);
  journal_options.fsync = options.fsync;
  journal_options.segment_bytes = options.segment_bytes;
  std::unique_ptr<Journal> journal =
      Journal::Open(journal_options, metrics, error);
  if (journal == nullptr) return nullptr;
  return std::unique_ptr<DurabilityManager>(
      new DurabilityManager(options, std::move(journal), metrics));
}

void DurabilityManager::SeedCoverage(
    const std::map<std::string, uint64_t>& needed_segment) {
  std::lock_guard<std::mutex> lock(mu_);
  needed_segment_ = needed_segment;
}

bool DurabilityManager::Append(const JournalRecord& record,
                               std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t segment = journal_->CurrentLsn().segment;
    if (record.type == JournalRecord::Type::kRegister) {
      // A re-register supersedes all earlier records for the name, so the
      // registration record itself is the graph's new replay floor.
      needed_segment_[record.graph] = segment;
    } else if (record.type != JournalRecord::Type::kUnregister) {
      // First journaled activity for a graph with no snapshot coverage
      // yet: it needs the active segment onward.
      needed_segment_.emplace(record.graph, segment);
    }
  }
  WallTimer timer;
  const bool ok = journal_->Append(record, error);
  if (ok) append_latency_->ObserveSeconds(timer.Seconds());
  if (ok && record.type == JournalRecord::Type::kUnregister) {
    std::lock_guard<std::mutex> lock(mu_);
    needed_segment_.erase(record.graph);
  }
  return ok;
}

bool DurabilityManager::WriteSnapshot(SnapshotData* data, std::string* error) {
  WallTimer timer;
  JournalLsn lsn = journal_->CurrentLsn();
  data->covered_segment = lsn.segment;
  data->covered_offset = lsn.offset;
  if (!WriteSnapshotFile(snapshot_dir(), *data, error)) {
    snapshot_failures_->Increment();
    return false;
  }
  uint64_t floor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The snapshot covers everything below the current segment; this
    // graph only needs the active segment onward now.
    needed_segment_[data->graph] = lsn.segment;
    floor = lsn.segment;
    for (const auto& [name, seq] : needed_segment_) {
      floor = std::min(floor, seq);
    }
  }
  journal_->DropSegmentsBelow(floor);
  snapshots_written_->Increment();
  snapshot_latency_->ObserveSeconds(timer.Seconds());
  return true;
}

DurabilityStats DurabilityManager::stats() {
  DurabilityStats stats;
  stats.journal = journal_->stats();
  stats.snapshots_written = snapshots_written_->Value();
  stats.snapshot_failures = snapshot_failures_->Value();
  stats.fsync = options_.fsync;
  stats.snapshot_on_seal = options_.snapshot_on_seal;
  return stats;
}

}  // namespace receipt::durability
