// Durability micro-benchmark: the per-append overhead the write-ahead
// journal adds to the ack path, per fsync policy, plus the cost of a full
// snapshot write. The serving layer journals every accepted batch before
// acking, so journal append latency is a direct tax on update throughput
// — this bench keeps it visible and gated.
//
// Gate (exit non-zero on violation): with fsync=batch — the recommended
// serving policy — the mean append of a 64-update batch must stay under a
// fixed 750µs budget. That is generous for a page-cache write plus an
// amortized fsync every 256KB, but catches accidental per-record fsyncs or
// O(journal) rescans sneaking into the hot path.
//
// `--json <path>` emits per-policy append stats as a
// BENCH_durability_micro trajectory file. Plain executable: wall-clock
// means over thousands of appends are stable enough without a harness.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "util/io.h"
#include "util/timer.h"

namespace receipt::bench {
namespace {

using durability::EdgeOp;
using durability::FsyncPolicy;
using durability::FsyncPolicyName;
using durability::Journal;
using durability::JournalOptions;
using durability::JournalRecord;
using durability::JournalStats;

constexpr size_t kAppends = 2000;
constexpr size_t kBatchSize = 64;
constexpr double kBatchBudgetSeconds = 750e-6;

/// A fixed-shape 64-update record; contents don't affect the IO path.
JournalRecord SampleBatch() {
  JournalRecord record;
  record.type = JournalRecord::Type::kEdgeBatch;
  record.graph = "bench";
  record.epoch = 1;
  record.updates.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    record.updates.push_back(EdgeOp{(i % 3) != 0,
                                    static_cast<uint32_t>(i * 37 % 5000),
                                    static_cast<uint32_t>(i * 53 % 4000)});
  }
  return record;
}

struct AppendRun {
  double mean_seconds = 0.0;
  double total_seconds = 0.0;
  JournalStats stats;
};

bool RunAppends(const std::string& dir, FsyncPolicy policy, AppendRun* run) {
  JournalOptions options;
  options.dir = dir;
  options.fsync = policy;
  std::string error;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
  if (journal == nullptr) {
    std::fprintf(stderr, "journal open: %s\n", error.c_str());
    return false;
  }
  const JournalRecord record = SampleBatch();
  WallTimer timer;
  for (size_t i = 0; i < kAppends; ++i) {
    if (!journal->Append(record, &error)) {
      std::fprintf(stderr, "append %zu: %s\n", i, error.c_str());
      return false;
    }
  }
  run->total_seconds = timer.Seconds();
  run->mean_seconds = run->total_seconds / kAppends;
  run->stats = journal->stats();
  return true;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "durability micro-bench — WAL append overhead per fsync policy, "
      "snapshot write cost");

  std::string root = "/tmp/receipt_bench_durXXXXXX";
  if (::mkdtemp(root.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  std::vector<JsonRecord> records;
  bool ok = true;
  double batch_mean = 0.0;
  for (const FsyncPolicy policy :
       {FsyncPolicy::kOff, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    const std::string dir =
        root + "/journal_" + FsyncPolicyName(policy);
    AppendRun run;
    if (!RunAppends(dir, policy, &run)) {
      ok = false;
      continue;
    }
    if (policy == FsyncPolicy::kBatch) batch_mean = run.mean_seconds;
    std::printf(
        "fsync=%-6s  %5zu appends x %zu updates  mean %8.1f us  "
        "(%llu fsyncs, %llu rotations, %.1f MB)\n",
        FsyncPolicyName(policy), kAppends, kBatchSize,
        run.mean_seconds * 1e6,
        static_cast<unsigned long long>(run.stats.fsyncs),
        static_cast<unsigned long long>(run.stats.rotations),
        static_cast<double>(run.stats.bytes_written) / (1 << 20));
    JsonRecord record;
    record.name = std::string("append_fsync_") + FsyncPolicyName(policy);
    record.counters = {
        {"appends", run.stats.appends},
        {"bytes_written", run.stats.bytes_written},
        {"fsyncs", run.stats.fsyncs},
        {"rotations", run.stats.rotations},
        {"batch_updates", kBatchSize},
    };
    record.values = {
        {"mean_append_seconds", run.mean_seconds},
        {"total_seconds", run.total_seconds},
    };
    records.push_back(std::move(record));
  }

  // Snapshot write: a mid-sized graph image through the real encode +
  // fsync + atomic-rename path. Informational (no gate — size-dependent).
  {
    durability::SnapshotData data;
    data.graph = "bench";
    data.epoch = 3;
    data.num_u = 50000;
    data.num_v = 40000;
    data.edges.reserve(500000);
    for (uint32_t i = 0; i < 500000; ++i) {
      data.edges.push_back({i % 50000, (i * 7919) % 40000});
    }
    const std::string dir = root + "/snapshots";
    std::string error;
    WallTimer timer;
    if (!util::io::EnsureDir(dir, &error) ||
        !durability::WriteSnapshotFile(dir, data, &error)) {
      std::fprintf(stderr, "snapshot write: %s\n", error.c_str());
      ok = false;
    } else {
      const double seconds = timer.Seconds();
      const uint64_t bytes = std::filesystem::file_size(
          durability::SnapshotPath(dir, data.graph));
      std::printf("snapshot      %zu edges  %.1f MB  in %.3f s\n",
                  data.edges.size(),
                  static_cast<double>(bytes) / (1 << 20), seconds);
      JsonRecord record;
      record.name = "snapshot_write";
      record.counters = {{"edges", data.edges.size()}, {"bytes", bytes}};
      record.values = {{"seconds", seconds}};
      records.push_back(std::move(record));
    }
  }

  PrintRule();
  const bool within_budget = batch_mean > 0.0 && batch_mean < kBatchBudgetSeconds;
  std::printf("gate: fsync=batch mean append %.1f us vs budget %.1f us — %s\n",
              batch_mean * 1e6, kBatchBudgetSeconds * 1e6,
              within_budget ? "OK" : "FAILED");
  ok = ok && within_budget;
  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");

  if (!json_path.empty()) {
    if (!WriteBenchJson(json_path, "durability_micro", records)) ok = false;
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) { return receipt::bench::Main(argc, argv); }
