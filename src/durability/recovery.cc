#include "durability/recovery.h"

#include <algorithm>
#include <map>

#include "util/io.h"
#include "util/timer.h"

namespace receipt::durability {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::unique_ptr<DurabilityManager> OpenWithRecovery(
    const DurabilityOptions& options, service::GraphRegistry& registry,
    service::LiveGraphManager& live, obs::MetricsRegistry& metrics,
    RecoveryReport* report, std::string* error) {
  WallTimer timer;
  *report = RecoveryReport{};
  const std::string journal_dir =
      DurabilityManager::JournalDirFor(options.data_dir);
  const std::string snapshot_dir =
      DurabilityManager::SnapshotDirFor(options.data_dir);

  // -- 1. snapshots: newest durable baseline per graph --------------------
  // graph -> journal LSN its snapshot covers; records below it are already
  // reflected in the restored state and must not replay twice.
  std::map<std::string, JournalLsn> covered;
  // graph -> lowest segment recovery still needed (snapshot coverage, or
  // the registration record's segment for never-snapshotted graphs).
  std::map<std::string, uint64_t> needed_segment;
  for (const std::string& name : util::io::ListDir(snapshot_dir, nullptr)) {
    const std::string path = snapshot_dir + "/" + name;
    if (EndsWith(name, ".tmp")) {
      // An install a crash interrupted before the rename; the real file —
      // if any — still holds the previous complete snapshot.
      util::io::RemoveFile(path, nullptr);
      continue;
    }
    if (!EndsWith(name, ".snap")) continue;
    std::string bytes;
    if (!util::io::ReadFileBytes(path, &bytes, error)) return nullptr;
    SnapshotData data;
    std::string decode_error;
    if (!DecodeSnapshot(bytes, &data, &decode_error)) {
      // Snapshots are installed atomically, so a bad one is media
      // corruption, not a crash artifact — refuse to serve guessed state.
      if (error != nullptr) *error = path + ": " + decode_error;
      return nullptr;
    }
    std::string restore_error;
    if (live.RestoreSnapshot(data, &restore_error) != service::Status::kOk) {
      if (error != nullptr) *error = path + ": " + restore_error;
      return nullptr;
    }
    covered[data.graph] = JournalLsn{data.covered_segment,
                                     data.covered_offset};
    needed_segment[data.graph] = data.covered_segment;
    report->snapshots_loaded += 1;
  }

  // -- 2. journal suffix: replay everything the snapshots don't cover -----
  std::string replay_error;
  auto visit = [&](const JournalRecord& record, const JournalLsn& lsn) {
    report->records_scanned += 1;
    const auto it = covered.find(record.graph);
    if (it != covered.end() && lsn < it->second) {
      report->records_skipped += 1;
      return true;
    }
    const service::ApplyResult result = live.Apply(record);
    if (result.status != service::Status::kOk) {
      replay_error = result.error;
      return false;
    }
    switch (record.type) {
      case JournalRecord::Type::kRegister:
        // A re-registration supersedes the snapshot and everything
        // buffered: from here on this graph replays from the record.
        covered.erase(record.graph);
        needed_segment[record.graph] = lsn.segment;
        report->registrations_replayed += 1;
        break;
      case JournalRecord::Type::kUnregister:
        covered.erase(record.graph);
        needed_segment.erase(record.graph);
        report->unregistrations_replayed += 1;
        break;
      case JournalRecord::Type::kEdgeBatch:
        report->batches_replayed += 1;
        report->updates_replayed += record.updates.size();
        break;
      case JournalRecord::Type::kSeal:
        report->seals_replayed += 1;
        break;
    }
    return true;
  };
  JournalScanResult scan;
  if (!ScanJournal(journal_dir, visit, &scan, error)) return nullptr;
  if (!replay_error.empty()) {
    if (error != nullptr) *error = "journal replay: " + replay_error;
    return nullptr;
  }
  report->torn_tail = scan.torn_tail;
  report->torn_bytes = scan.torn_bytes;
  report->graphs_recovered = registry.size();
  report->fresh_start =
      report->snapshots_loaded == 0 && report->records_scanned == 0;

  // -- 3. open the journal for the new life of the process ----------------
  std::unique_ptr<DurabilityManager> manager =
      DurabilityManager::Open(options, metrics, error);
  if (manager == nullptr) return nullptr;
  manager->SeedCoverage(needed_segment);
  live.SetDurability(manager.get());
  report->seconds = timer.Seconds();
  return manager;
}

}  // namespace receipt::durability
