#include "durability/manager.h"

#include <algorithm>
#include <limits>

#include "util/timer.h"

namespace receipt::durability {

std::unique_ptr<DurabilityManager> DurabilityManager::Open(
    const DurabilityOptions& options, obs::Observability* obs,
    std::string* error) {
  if (options.data_dir.empty()) {
    if (error != nullptr) *error = "durability: empty data_dir";
    return nullptr;
  }
  std::unique_ptr<DurabilityManager> manager(new DurabilityManager(options));
  if (!util::io::EnsureDir(manager->journal_dir(), error) ||
      !util::io::EnsureDir(manager->snapshot_dir(), error)) {
    return nullptr;
  }
  JournalOptions journal_options;
  journal_options.dir = manager->journal_dir();
  journal_options.fsync = options.fsync;
  journal_options.segment_bytes = options.segment_bytes;
  manager->journal_ = Journal::Open(journal_options, error);
  if (manager->journal_ == nullptr) return nullptr;
  if (obs != nullptr) {
    auto& m = obs->metrics;
    manager->journal_appends_ = m.GetCounter(
        "receipt_journal_appends_total", "Journal records appended");
    manager->journal_bytes_ = m.GetCounter("receipt_journal_bytes_total",
                                           "Journal bytes written");
    manager->journal_failures_ = m.GetCounter(
        "receipt_journal_append_failures_total", "Journal append failures");
    manager->snapshot_writes_ = m.GetCounter(
        "receipt_snapshot_writes_total", "Snapshot files written");
    manager->snapshot_failures_counter_ = m.GetCounter(
        "receipt_snapshot_failures_total", "Snapshot write failures");
    manager->append_latency_ = m.GetHistogram(
        "receipt_journal_append_seconds", "Journal append latency");
    manager->snapshot_latency_ = m.GetHistogram(
        "receipt_snapshot_write_seconds", "Snapshot write latency");
  }
  return manager;
}

void DurabilityManager::SeedCoverage(
    const std::map<std::string, uint64_t>& needed_segment) {
  std::lock_guard<std::mutex> lock(mu_);
  needed_segment_ = needed_segment;
}

bool DurabilityManager::AppendInstrumented(const JournalRecord& record,
                                           std::string* error) {
  WallTimer timer;
  uint64_t bytes = 0;
  const bool ok = journal_->Append(record, error, &bytes);
  if (ok) {
    if (journal_appends_ != nullptr) journal_appends_->Increment();
    if (journal_bytes_ != nullptr) journal_bytes_->Increment(bytes);
    if (append_latency_ != nullptr) {
      append_latency_->ObserveSeconds(timer.Seconds());
    }
  } else if (journal_failures_ != nullptr) {
    journal_failures_->Increment();
  }
  return ok;
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
  const bool ok = AppendInstrumented(record, error);
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
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_failures_ += 1;
    if (snapshot_failures_counter_ != nullptr) {
      snapshot_failures_counter_->Increment();
    }
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
    snapshots_written_ += 1;
  }
  journal_->DropSegmentsBelow(floor);
  if (snapshot_writes_ != nullptr) snapshot_writes_->Increment();
  if (snapshot_latency_ != nullptr) {
    snapshot_latency_->ObserveSeconds(timer.Seconds());
  }
  return true;
}

DurabilityStats DurabilityManager::stats() {
  DurabilityStats stats;
  stats.journal = journal_->stats();
  stats.fsync = options_.fsync;
  stats.snapshot_on_seal = options_.snapshot_on_seal;
  std::lock_guard<std::mutex> lock(mu_);
  stats.snapshots_written = snapshots_written_;
  stats.snapshot_failures = snapshot_failures_;
  return stats;
}

}  // namespace receipt::durability
