// The crash-recovery suite: CRC framing and torn-tail handling of the
// write-ahead journal, snapshot round-trips and corruption refusal, the
// fault-injection shim (counted failures, named crash points, env-var
// plans), and the property the whole durability layer exists for — after a
// crash at *any* injected point under churn, recovery restores a state
// whose logical edge set equals an acknowledged prefix of the batch stream
// (every acked batch survives; an unacked one may or may not), and a
// recovered service answers decompositions bit-identically to one that
// never crashed.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "durability/journal.h"
#include "durability/manager.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "service/live_graph.h"
#include "service/result_cache.h"
#include "tip/receipt.h"
#include "util/crc32.h"
#include "util/io.h"
#include "wing/wing_decomposition.h"

namespace receipt::durability {
namespace {

namespace io = util::io;
using service::EdgeUpdate;
using service::LiveConfig;
using service::LiveGraphManager;
using service::LiveOptions;
using service::RequestKind;
using Edge = BipartiteGraph::Edge;

/// A throwaway directory, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/receipt_crash_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Always disarm injection, even when a test fails mid-plan.
class FaultGuard {
 public:
  ~FaultGuard() { io::ClearFaultPlan(); }
};

JournalRecord BatchRecord(const std::string& graph, uint64_t epoch,
                          std::vector<EdgeOp> ops) {
  JournalRecord record;
  record.type = JournalRecord::Type::kEdgeBatch;
  record.graph = graph;
  record.epoch = epoch;
  record.updates = std::move(ops);
  return record;
}

// ---------------------------------------------------------------------------
// CRC32 and frame encoding
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVectorsAndChaining) {
  // The CRC-32/ISO-HDLC check value.
  EXPECT_EQ(util::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::Crc32("", 0), 0u);
  // Seeded continuation must equal the one-shot digest.
  const uint32_t head = util::Crc32("12345", 5);
  EXPECT_EQ(util::Crc32("6789", 4, head), 0xCBF43926u);
}

TEST(Journal, FsyncPolicyNamesRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kAlways, FsyncPolicy::kBatch, FsyncPolicy::kOff}) {
    FsyncPolicy parsed;
    ASSERT_TRUE(FsyncPolicyFromName(FsyncPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  FsyncPolicy parsed;
  EXPECT_FALSE(FsyncPolicyFromName("sometimes", &parsed));
}

// ---------------------------------------------------------------------------
// Fork-based crash-exit coverage. Declared early: the child must fork
// before any test in this binary spawns OpenMP teams.
// ---------------------------------------------------------------------------

TEST(FaultInjection, CrashPointExitsChildProcess) {
  TempDir dir;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm a crash-exit at the journal's pre-fsync point, then
    // append — the crash point must _exit(137) with the record bytes
    // already written.
    io::FaultPlan plan;
    plan.crash_site = "journal.append.pre-fsync";
    plan.crash_exit = true;
    io::SetFaultPlan(plan);
    JournalOptions options;
    options.dir = dir.path();
    std::string error;
    obs::MetricsRegistry metrics;
    std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
    if (journal == nullptr) ::_exit(4);
    journal->Append(BatchRecord("g", 1, {{true, 1, 2}}), &error);
    ::_exit(5);  // the crash point should never let us get here
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);

  // The record was fully written before the crash point: the scan finds it
  // intact (durable-but-unacked, which the invariant allows).
  JournalScanResult scan;
  std::string error;
  size_t records = 0;
  ASSERT_TRUE(ScanJournal(
      dir.path(), [&](const JournalRecord&, const JournalLsn&) {
        ++records;
        return true;
      },
      &scan, &error))
      << error;
  EXPECT_EQ(records, 1u);
  EXPECT_FALSE(scan.torn_tail);
}

// ---------------------------------------------------------------------------
// Journal framing, rotation, torn tails, corruption
// ---------------------------------------------------------------------------

TEST(Journal, AppendScanRoundTrip) {
  TempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
    ASSERT_NE(journal, nullptr) << error;

    JournalRecord reg;
    reg.type = JournalRecord::Type::kRegister;
    reg.graph = "g";
    reg.epoch = 1;
    reg.num_u = 4;
    reg.num_v = 3;
    reg.edges = {{0, 0}, {1, 2}, {3, 1}};
    ASSERT_TRUE(journal->Append(reg, &error)) << error;
    ASSERT_TRUE(journal->Append(
        BatchRecord("g", 1, {{true, 2, 2}, {false, 0, 0}}), &error));
    JournalRecord seal;
    seal.type = JournalRecord::Type::kSeal;
    seal.graph = "g";
    seal.epoch = 1;
    seal.new_epoch = 2;
    ASSERT_TRUE(journal->Append(seal, &error)) << error;
    JournalRecord unreg;
    unreg.type = JournalRecord::Type::kUnregister;
    unreg.graph = "g";
    ASSERT_TRUE(journal->Append(unreg, &error)) << error;
    EXPECT_EQ(journal->stats().appends, 4u);
  }

  std::vector<JournalRecord> records;
  std::vector<JournalLsn> lsns;
  JournalScanResult scan;
  ASSERT_TRUE(ScanJournal(
      dir.path(),
      [&](const JournalRecord& r, const JournalLsn& lsn) {
        records.push_back(r);
        lsns.push_back(lsn);
        return true;
      },
      &scan, &error))
      << error;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(scan.records, 4u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(records[0].type, JournalRecord::Type::kRegister);
  EXPECT_EQ(records[0].num_u, 4u);
  EXPECT_EQ(records[0].num_v, 3u);
  ASSERT_EQ(records[0].edges.size(), 3u);
  EXPECT_EQ(records[0].edges[1], (Edge{1, 2}));
  EXPECT_EQ(records[1].type, JournalRecord::Type::kEdgeBatch);
  ASSERT_EQ(records[1].updates.size(), 2u);
  EXPECT_TRUE(records[1].updates[0].insert);
  EXPECT_FALSE(records[1].updates[1].insert);
  EXPECT_EQ(records[2].new_epoch, 2u);
  EXPECT_EQ(records[3].type, JournalRecord::Type::kUnregister);
  EXPECT_TRUE(std::is_sorted(lsns.begin(), lsns.end()));
}

TEST(Journal, RotationAndSegmentDrop) {
  TempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  options.segment_bytes = 256;  // force rotation every couple of records
  options.fsync = FsyncPolicy::kOff;
  std::string error;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
  ASSERT_NE(journal, nullptr) << error;
  for (int i = 0; i < 20; ++i) {
    std::vector<EdgeOp> ops(8, EdgeOp{true, static_cast<uint32_t>(i), 0});
    ASSERT_TRUE(journal->Append(BatchRecord("g", 1, ops), &error)) << error;
  }
  const JournalStats mid = journal->stats();
  EXPECT_GT(mid.rotations, 0u);
  EXPECT_GT(io::ListDir(dir.path(), nullptr).size(), 1u);

  // Dropping below the active segment removes the sealed prefix; the scan
  // over what remains still succeeds (contiguous suffix).
  journal->DropSegmentsBelow(mid.current_segment);
  EXPECT_GT(journal->stats().segments_dropped, 0u);
  size_t suffix_records = 0;
  JournalScanResult scan;
  ASSERT_TRUE(ScanJournal(
      dir.path(),
      [&](const JournalRecord&, const JournalLsn& lsn) {
        EXPECT_GE(lsn.segment, mid.current_segment);
        ++suffix_records;
        return true;
      },
      &scan, &error))
      << error;
  EXPECT_LT(suffix_records, 20u);
}

TEST(Journal, TornTailTruncatedOnScan) {
  TempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  std::string segment_path;
  {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 1, 1}}), &error));
    ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 2, 2}}), &error));
    const std::vector<std::string> names = io::ListDir(dir.path(), nullptr);
    ASSERT_EQ(names.size(), 1u);
    segment_path = dir.path() + "/" + names[0];
  }
  // Simulate a crash mid-append: a frame header that promises more payload
  // than the file holds.
  {
    std::ofstream torn(segment_path, std::ios::binary | std::ios::app);
    const uint32_t promised_len = 1000;
    torn.write(reinterpret_cast<const char*>(&promised_len), 4);
    torn.write("\xde\xad\xbe\xef partial", 12);
  }
  const uint64_t torn_size = std::filesystem::file_size(segment_path);

  size_t records = 0;
  JournalScanResult scan;
  ASSERT_TRUE(ScanJournal(
      dir.path(),
      [&](const JournalRecord&, const JournalLsn&) {
        ++records;
        return true;
      },
      &scan, &error))
      << error;
  EXPECT_EQ(records, 2u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.torn_bytes, 0u);
  // The torn bytes were cut away in place: the next scan is clean.
  EXPECT_LT(std::filesystem::file_size(segment_path), torn_size);
  JournalScanResult rescan;
  ASSERT_TRUE(ScanJournal(
      dir.path(), [](const JournalRecord&, const JournalLsn&) { return true; },
      &rescan, &error))
      << error;
  EXPECT_FALSE(rescan.torn_tail);
  EXPECT_EQ(rescan.records, 2u);
}

TEST(Journal, CorruptCrcRejected) {
  TempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  std::string segment_path;
  {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 1, 1}}), &error));
    segment_path =
        dir.path() + "/" + io::ListDir(dir.path(), nullptr).front();
  }
  // Flip one byte of the record payload (the last byte of the file): the
  // frame is complete, so this is corruption, not a torn tail.
  std::fstream file(segment_path,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(-1, std::ios::end);
  char byte;
  file.get(byte);
  file.seekp(-1, std::ios::end);
  file.put(static_cast<char>(byte ^ 0x40));
  file.close();

  JournalScanResult scan;
  EXPECT_FALSE(ScanJournal(
      dir.path(), [](const JournalRecord&, const JournalLsn&) { return true; },
      &scan, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(Journal, VersionMismatchRefused) {
  TempDir dir;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  std::string segment_path;
  {
    obs::MetricsRegistry metrics;
    std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 1, 1}}), &error));
    segment_path =
        dir.path() + "/" + io::ListDir(dir.path(), nullptr).front();
  }
  // The version field sits right after the 8-byte magic.
  std::fstream file(segment_path,
                    std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8);
  const uint32_t future_version = 99;
  file.write(reinterpret_cast<const char*>(&future_version), 4);
  file.close();

  JournalScanResult scan;
  EXPECT_FALSE(ScanJournal(
      dir.path(), [](const JournalRecord&, const JournalLsn&) { return true; },
      &scan, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Injected IO failures against the journal's fail-stop contract
// ---------------------------------------------------------------------------

TEST(Journal, InjectedWriteFailureLeavesAckedPrefix) {
  TempDir dir;
  FaultGuard guard;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 1, 1}}), &error));

  // Fail the next record's write cleanly (nothing hits the disk). The
  // journal rolls back and stays usable.
  io::FaultPlan plan;
  plan.fail_write_at = 1;
  io::SetFaultPlan(plan);
  EXPECT_FALSE(journal->Append(BatchRecord("g", 1, {{true, 2, 2}}), &error));
  io::ClearFaultPlan();
  EXPECT_FALSE(journal->stats().broken);
  ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 3, 3}}), &error))
      << error;
  journal.reset();

  std::vector<uint32_t> seen;
  JournalScanResult scan;
  ASSERT_TRUE(ScanJournal(
      dir.path(),
      [&](const JournalRecord& r, const JournalLsn&) {
        seen.push_back(r.updates.at(0).u);
        return true;
      },
      &scan, &error))
      << error;
  // Exactly the acknowledged records — the failed one left no trace.
  EXPECT_EQ(seen, (std::vector<uint32_t>{1, 3}));
}

TEST(Journal, TornWriteWithHaltBreaksJournal) {
  TempDir dir;
  FaultGuard guard;
  JournalOptions options;
  options.dir = dir.path();
  std::string error;
  obs::MetricsRegistry metrics;
  std::unique_ptr<Journal> journal = Journal::Open(options, metrics, &error);
  ASSERT_NE(journal, nullptr) << error;
  ASSERT_TRUE(journal->Append(BatchRecord("g", 1, {{true, 1, 1}}), &error));

  // A torn write whose cleanup truncate also fails (the disk died): the
  // journal must go fail-stop, refusing every later append.
  io::FaultPlan plan;
  plan.fail_write_at = 1;
  plan.short_write_bytes = 6;
  plan.halt_on_write_failure = true;
  io::SetFaultPlan(plan);
  EXPECT_FALSE(journal->Append(BatchRecord("g", 1, {{true, 2, 2}}), &error));
  EXPECT_TRUE(journal->stats().broken);
  io::ClearFaultPlan();
  EXPECT_FALSE(journal->Append(BatchRecord("g", 1, {{true, 3, 3}}), &error));
  EXPECT_NE(error.find("broken"), std::string::npos) << error;
  journal.reset();

  // Recovery still reads the acked prefix: the torn bytes are a tail cut.
  std::vector<uint32_t> seen;
  JournalScanResult scan;
  ASSERT_TRUE(ScanJournal(
      dir.path(),
      [&](const JournalRecord& r, const JournalLsn&) {
        seen.push_back(r.updates.at(0).u);
        return true;
      },
      &scan, &error))
      << error;
  EXPECT_EQ(seen, (std::vector<uint32_t>{1}));
  EXPECT_TRUE(scan.torn_tail);
}

// ---------------------------------------------------------------------------
// Snapshot format
// ---------------------------------------------------------------------------

SnapshotData SampleSnapshot() {
  SnapshotData data;
  data.graph = "g one/two";  // exercises name sanitization
  data.epoch = 7;
  data.covered_segment = 3;
  data.covered_offset = 1234;
  data.num_u = 5;
  data.num_v = 4;
  data.edges = {{0, 0}, {1, 3}, {4, 2}};
  data.pending = {{true, 2, 2}, {false, 0, 0}};
  SnapshotConfig config;
  config.kind = 0;
  config.partitions = 8;
  config.numbers = {0, 3, 1, 4, 1};
  config.bounds = {0, 2, 4};
  config.old_support = {5, 9, 2, 6, 5};
  data.configs.push_back(config);
  return data;
}

void ExpectSnapshotEq(const SnapshotData& a, const SnapshotData& b) {
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.covered_segment, b.covered_segment);
  EXPECT_EQ(a.covered_offset, b.covered_offset);
  EXPECT_EQ(a.num_u, b.num_u);
  EXPECT_EQ(a.num_v, b.num_v);
  EXPECT_EQ(a.edges, b.edges);
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (size_t i = 0; i < a.pending.size(); ++i) {
    EXPECT_EQ(a.pending[i].insert, b.pending[i].insert);
    EXPECT_EQ(a.pending[i].u, b.pending[i].u);
    EXPECT_EQ(a.pending[i].v, b.pending[i].v);
  }
  ASSERT_EQ(a.configs.size(), b.configs.size());
  for (size_t i = 0; i < a.configs.size(); ++i) {
    EXPECT_EQ(a.configs[i].kind, b.configs[i].kind);
    EXPECT_EQ(a.configs[i].partitions, b.configs[i].partitions);
    EXPECT_EQ(a.configs[i].numbers, b.configs[i].numbers);
    EXPECT_EQ(a.configs[i].bounds, b.configs[i].bounds);
    EXPECT_EQ(a.configs[i].old_support, b.configs[i].old_support);
  }
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const SnapshotData data = SampleSnapshot();
  const std::string bytes = EncodeSnapshot(data);
  SnapshotData decoded;
  std::string error;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error)) << error;
  ExpectSnapshotEq(data, decoded);
}

TEST(Snapshot, CorruptionAndVersionRefused) {
  const std::string bytes = EncodeSnapshot(SampleSnapshot());
  SnapshotData decoded;
  std::string error;

  std::string flipped = bytes;
  flipped[flipped.size() - 3] ^= 0x01;
  EXPECT_FALSE(DecodeSnapshot(flipped, &decoded, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  std::string future = bytes;
  future[8] = 42;  // version field follows the 8-byte magic
  EXPECT_FALSE(DecodeSnapshot(future, &decoded, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  EXPECT_FALSE(DecodeSnapshot(bytes.substr(0, bytes.size() / 2), &decoded,
                              &error));
  EXPECT_FALSE(DecodeSnapshot("", &decoded, &error));
}

TEST(Snapshot, FileInstallRoundTripAndSanitizedNames) {
  TempDir dir;
  const SnapshotData data = SampleSnapshot();
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), data, &error)) << error;
  const std::string path = SnapshotPath(dir.path(), data.graph);
  ASSERT_TRUE(io::FileExists(path));
  // The sanitized file name never contains the raw space or slash.
  EXPECT_EQ(path.find(' ', dir.path().size()), std::string::npos);
  EXPECT_EQ(path.find('/', dir.path().size() + 1), std::string::npos);
  EXPECT_NE(SanitizeSnapshotName("a/b"), SanitizeSnapshotName("a_b"));

  std::string bytes;
  ASSERT_TRUE(io::ReadFileBytes(path, &bytes, &error)) << error;
  SnapshotData decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error)) << error;
  ExpectSnapshotEq(data, decoded);
}

TEST(Snapshot, FailedRenameLeavesPreviousSnapshot) {
  TempDir dir;
  FaultGuard guard;
  SnapshotData data = SampleSnapshot();
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), data, &error)) << error;

  // The replacement write dies at the rename: the installed file must
  // still be the previous complete snapshot.
  data.epoch = 8;
  io::FaultPlan plan;
  plan.fail_rename_at = 1;
  io::SetFaultPlan(plan);
  EXPECT_FALSE(WriteSnapshotFile(dir.path(), data, &error));
  io::ClearFaultPlan();

  std::string bytes;
  ASSERT_TRUE(io::ReadFileBytes(SnapshotPath(dir.path(), data.graph), &bytes,
                                &error));
  SnapshotData decoded;
  ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error)) << error;
  EXPECT_EQ(decoded.epoch, 7u);
}

// ---------------------------------------------------------------------------
// Recovery through the live serving stack
// ---------------------------------------------------------------------------

/// Registry + cache + live manager + durability, the way the service wires
/// them, but owned directly so tests can tear the stack down (the "crash")
/// and recover into a fresh one.
struct DurableStack {
  explicit DurableStack(
      const std::string& data_dir,
      uint64_t segment_bytes = DurabilityOptions{}.segment_bytes) {
    cache = std::make_unique<service::ResultCache>(size_t{64} << 20, metrics);
    live = std::make_unique<LiveGraphManager>(registry, *cache, LiveOptions{},
                                              metrics);
    DurabilityOptions options;
    options.data_dir = data_dir;
    options.segment_bytes = segment_bytes;
    durability = OpenWithRecovery(options, registry, *live, metrics, &report,
                                  &error);
  }

  /// What the service's RegisterGraph does: one kRegister record at a
  /// fresh epoch, through the live manager's Apply.
  uint64_t Register(const std::string& name, const BipartiteGraph& graph) {
    JournalRecord record;
    record.type = JournalRecord::Type::kRegister;
    record.graph = name;
    record.epoch = registry.AllocateEpoch();
    record.num_u = graph.num_u();
    record.num_v = graph.num_v();
    record.edges = graph.ToEdges();
    const service::ApplyResult result = live->Apply(record);
    EXPECT_EQ(result.status, service::Status::kOk) << result.error;
    return record.epoch;
  }

  /// The graph's logical edge set: registered edges folded with pending.
  std::vector<Edge> LogicalEdges(const std::string& name) {
    std::set<Edge> edges;
    for (const Edge& edge : registry.Acquire(name).graph().ToEdges()) {
      edges.insert(edge);
    }
    // Seal the pending buffer instead of reimplementing the fold: an empty
    // forced ApplyEdges folds exactly the recovered buffer.
    service::ApplyResult folded =
        live->ApplyEdges(name, {}, /*force_seal=*/true);
    EXPECT_EQ(folded.status, service::Status::kOk) << folded.error;
    if (folded.sealed) {
      edges.clear();
      for (const Edge& edge : registry.Acquire(name).graph().ToEdges()) {
        edges.insert(edge);
      }
    }
    return {edges.begin(), edges.end()};
  }

  service::GraphRegistry registry;
  obs::MetricsRegistry metrics;
  std::unique_ptr<service::ResultCache> cache;
  std::unique_ptr<LiveGraphManager> live;
  std::unique_ptr<DurabilityManager> durability;
  RecoveryReport report;
  std::string error;
};

TEST(Recovery, FreshStartOnEmptyAndMissingDir) {
  TempDir dir;
  {
    DurableStack stack(dir.path() + "/never_created");
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    EXPECT_TRUE(stack.report.fresh_start);
    EXPECT_EQ(stack.registry.size(), 0u);
  }
  {
    ASSERT_TRUE(io::EnsureDir(dir.path() + "/empty", nullptr));
    DurableStack stack(dir.path() + "/empty");
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    EXPECT_TRUE(stack.report.fresh_start);
  }
}

TEST(Recovery, RestoresGraphEpochAndPendingBitIdentical) {
  TempDir dir;
  const BipartiteGraph initial = ChungLuBipartite(60, 50, 260, 0.6, 0.6, 7);
  const LiveConfig config{RequestKind::kTipU, 16};
  std::vector<EdgeUpdate> sealed_batch = {{true, 3, 7},  {true, 10, 11},
                                          {false, 0, 0}, {true, 42, 13}};
  std::vector<EdgeUpdate> pending_batch = {{true, 5, 5}, {false, 3, 7}};
  uint64_t epoch_before_crash = 0;

  {
    DurableStack stack(dir.path());
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    stack.Register("g", initial);
    ASSERT_EQ(stack.live->Track("g", config, 2, nullptr),
              service::Status::kOk);
    // One sealed batch (journals batch + seal, snapshots on seal), then one
    // acked-but-unsealed batch that only the journal holds.
    service::ApplyResult sealed =
        stack.live->ApplyEdges("g", sealed_batch, /*force_seal=*/true, 2);
    ASSERT_EQ(sealed.status, service::Status::kOk) << sealed.error;
    ASSERT_TRUE(sealed.sealed);
    service::ApplyResult buffered =
        stack.live->ApplyEdges("g", pending_batch, /*force_seal=*/false, 2);
    ASSERT_EQ(buffered.status, service::Status::kOk) << buffered.error;
    EXPECT_EQ(buffered.pending, pending_batch.size());
    epoch_before_crash = stack.registry.Acquire("g").epoch();
  }  // crash: the stack dies with a batch still buffered

  DurableStack recovered(dir.path());
  ASSERT_NE(recovered.durability, nullptr) << recovered.error;
  EXPECT_FALSE(recovered.report.fresh_start);
  EXPECT_EQ(recovered.report.graphs_recovered, 1u);
  ASSERT_TRUE(static_cast<bool>(recovered.registry.Acquire("g")));
  // Same epoch chain as the never-crashed process.
  EXPECT_EQ(recovered.registry.Acquire("g").epoch(), epoch_before_crash);
  // The acked-but-unsealed batch survived.
  EXPECT_EQ(recovered.live->PendingEdges("g"), pending_batch.size());

  // Build the never-crashed oracle and compare final states bit-identically:
  // same logical edge set, and — after sealing the recovered buffer — the
  // same decomposition numbers from the engine.
  TempDir oracle_dir;
  DurableStack oracle(oracle_dir.path());
  oracle.Register("g", initial);
  ASSERT_EQ(oracle.live->Track("g", config, 2, nullptr), service::Status::kOk);
  ASSERT_EQ(
      oracle.live->ApplyEdges("g", sealed_batch, true, 2).status,
      service::Status::kOk);
  ASSERT_EQ(
      oracle.live->ApplyEdges("g", pending_batch, false, 2).status,
      service::Status::kOk);

  EXPECT_EQ(recovered.LogicalEdges("g"), oracle.LogicalEdges("g"));
  const BipartiteGraph& recovered_graph =
      recovered.registry.Acquire("g").graph();
  const BipartiteGraph& oracle_graph = oracle.registry.Acquire("g").graph();
  TipOptions tip_options;
  tip_options.num_threads = 2;
  tip_options.num_partitions = static_cast<int>(config.partitions);
  EXPECT_EQ(ReceiptDecompose(recovered_graph, tip_options).tip_numbers,
            ReceiptDecompose(oracle_graph, tip_options).tip_numbers);
}

// A seal's snapshot holds each tracked config's numbers and leaves the
// retired `bounds`/`old_support` fields empty; recovery primes the cache
// with exactly those numbers.
TEST(Recovery, SealSnapshotsCarryNumbersOnly) {
  TempDir dir;
  const BipartiteGraph initial = ChungLuBipartite(60, 50, 260, 0.6, 0.6, 23);
  const LiveConfig tip{RequestKind::kTipV, 6};
  const LiveConfig wing{RequestKind::kWing, 4};
  uint64_t epoch = 0;
  {
    DurableStack stack(dir.path());
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    stack.Register("g", initial);
    ASSERT_EQ(stack.live->Track("g", tip, 2, nullptr), service::Status::kOk);
    ASSERT_EQ(stack.live->Track("g", wing, 2, nullptr), service::Status::kOk);
    const std::vector<EdgeUpdate> batch = {{true, 1, 2}, {true, 4, 9}};
    const service::ApplyResult sealed =
        stack.live->ApplyEdges("g", batch, /*force_seal=*/true, 2);
    ASSERT_EQ(sealed.status, service::Status::kOk) << sealed.error;
    ASSERT_TRUE(sealed.sealed);
    epoch = sealed.epoch;
  }

  std::string bytes;
  std::string error;
  ASSERT_TRUE(io::ReadFileBytes(
      SnapshotPath(DurabilityManager::SnapshotDirFor(dir.path()), "g"),
      &bytes, &error))
      << error;
  SnapshotData data;
  ASSERT_TRUE(DecodeSnapshot(bytes, &data, &error)) << error;
  EXPECT_EQ(data.epoch, epoch);
  ASSERT_EQ(data.configs.size(), 2u);
  for (const SnapshotConfig& config : data.configs) {
    EXPECT_FALSE(config.numbers.empty());
    EXPECT_TRUE(config.bounds.empty());
    EXPECT_TRUE(config.old_support.empty());
  }

  DurableStack recovered(dir.path());
  ASSERT_NE(recovered.durability, nullptr) << recovered.error;
  const service::GraphHandle handle = recovered.registry.Acquire("g");
  ASSERT_EQ(handle.epoch(), epoch);
  TipOptions tip_options;
  tip_options.side = Side::kV;
  tip_options.num_partitions = static_cast<int>(tip.partitions);
  const auto tip_payload = recovered.cache->Get(service::CacheKey{
      "g", epoch, tip.kind, service::Algorithm::kReceipt, tip.partitions});
  ASSERT_NE(tip_payload, nullptr);
  EXPECT_EQ(tip_payload->numbers,
            ReceiptDecompose(handle.graph(), tip_options).tip_numbers);
  const auto wing_payload = recovered.cache->Get(service::CacheKey{
      "g", epoch, wing.kind, service::Algorithm::kReceiptWing,
      wing.partitions});
  ASSERT_NE(wing_payload, nullptr);
  EXPECT_EQ(wing_payload->numbers, WingDecompose(handle.graph()).wing_numbers);
}

TEST(Recovery, UnregisterReplayedAndIdempotentReRecovery) {
  TempDir dir;
  const BipartiteGraph keep = ChungLuBipartite(40, 30, 120, 0.5, 0.5, 3);
  const BipartiteGraph drop = ChungLuBipartite(20, 20, 60, 0.5, 0.5, 4);
  {
    DurableStack stack(dir.path());
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    stack.Register("keep", keep);
    stack.Register("drop", drop);
    JournalRecord unregister;
    unregister.type = JournalRecord::Type::kUnregister;
    unregister.graph = "drop";
    const service::ApplyResult result = stack.live->Apply(unregister);
    ASSERT_EQ(result.status, service::Status::kOk) << result.error;
  }
  // Recovery is read-only apart from tail truncation and temp-file cleanup,
  // so recovering the same directory twice yields the same state.
  for (int round = 0; round < 2; ++round) {
    DurableStack recovered(dir.path());
    ASSERT_NE(recovered.durability, nullptr) << recovered.error;
    EXPECT_TRUE(static_cast<bool>(recovered.registry.Acquire("keep")));
    EXPECT_FALSE(static_cast<bool>(recovered.registry.Acquire("drop")));
    EXPECT_EQ(recovered.registry.Acquire("keep").graph().num_edges(),
              keep.num_edges());
  }
}

TEST(Recovery, EpochChainBreakRefused) {
  TempDir dir;
  {
    DurableStack stack(dir.path());
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    stack.Register("g", BipartiteGraph::FromEdges(4, 4, {{0, 0}, {1, 1}}));
    // Journal a batch claiming an epoch the chain never reaches: replay
    // must refuse rather than guess.
    std::string error;
    ASSERT_TRUE(stack.durability->Append(
        BatchRecord("g", /*epoch=*/99, {{true, 2, 2}}), &error))
        << error;
  }
  DurableStack recovered(dir.path());
  EXPECT_EQ(recovered.durability, nullptr);
  EXPECT_NE(recovered.error.find("epoch"), std::string::npos)
      << recovered.error;
}

// A re-registration journals after the batches buffered against the graph
// it replaced; the next seal must chain onto the registration, and the
// data dir must recover to the same graph — from the seal's snapshot, and
// from the journal alone — rather than the old one or a refused history.
TEST(Recovery, ReRegistrationThenSealRecoversTheNewGraph) {
  const std::vector<Edge> expected = {{1, 2}, {2, 2}, {3, 3}};
  for (const bool snapshot_on_seal : {true, false}) {
    SCOPED_TRACE(snapshot_on_seal ? "from snapshot" : "from journal");
    TempDir dir;
    service::ServiceOptions options;
    options.num_workers = 0;
    options.data_dir = dir.path();
    options.snapshot_on_seal = snapshot_on_seal;
    uint64_t sealed_epoch = 0;
    {
      service::GraphRegistry registry;
      service::DecompositionService service(registry, options);
      ASSERT_TRUE(service.durable()) << service.durability_error();
      std::string error;
      ASSERT_EQ(service.RegisterGraph(
                    "g", BipartiteGraph::FromEdges(4, 4, {{0, 0}, {1, 1}}),
                    nullptr, &error),
                service::Status::kOk)
          << error;
      const std::vector<EdgeUpdate> before = {{true, 0, 3}};
      ASSERT_EQ(service.live().ApplyEdges("g", before, false).status,
                service::Status::kOk);
      ASSERT_EQ(service.RegisterGraph(
                    "g", BipartiteGraph::FromEdges(4, 4, {{2, 2}, {3, 3}}),
                    nullptr, &error),
                service::Status::kOk)
          << error;
      const std::vector<EdgeUpdate> after = {{true, 1, 2}};
      const service::ApplyResult sealed =
          service.live().ApplyEdges("g", after, /*force_seal=*/true);
      ASSERT_EQ(sealed.status, service::Status::kOk) << sealed.error;
      sealed_epoch = sealed.epoch;
      EXPECT_EQ(registry.Acquire("g").graph().ToEdges(), expected);
    }  // crash

    service::GraphRegistry registry;
    service::DecompositionService service(registry, options);
    ASSERT_TRUE(service.durable()) << service.durability_error();
    ASSERT_TRUE(static_cast<bool>(registry.Acquire("g")));
    EXPECT_EQ(registry.Acquire("g").epoch(), sealed_epoch);
    EXPECT_EQ(registry.Acquire("g").graph().ToEdges(), expected);
    EXPECT_EQ(service.live().PendingEdges("g"), 0u);
  }
}

TEST(Recovery, AdminSnapshotCoversPendingAndTruncatesReplay) {
  TempDir dir;
  const BipartiteGraph graph = ChungLuBipartite(40, 30, 150, 0.5, 0.5, 9);
  {
    DurableStack stack(dir.path());
    ASSERT_NE(stack.durability, nullptr) << stack.error;
    stack.Register("g", graph);
    std::vector<EdgeUpdate> batch = {{true, 1, 2}, {true, 3, 4}};
    ASSERT_EQ(stack.live->ApplyEdges("g", batch, false).status,
              service::Status::kOk);
    std::string error;
    ASSERT_EQ(stack.live->SnapshotNow("g", &error), service::Status::kOk)
        << error;
  }
  DurableStack recovered(dir.path());
  ASSERT_NE(recovered.durability, nullptr) << recovered.error;
  EXPECT_EQ(recovered.report.snapshots_loaded, 1u);
  // Everything before the snapshot replays as a skip, not a re-apply.
  EXPECT_EQ(recovered.report.batches_replayed, 0u);
  EXPECT_GT(recovered.report.records_skipped, 0u);
  EXPECT_EQ(recovered.live->PendingEdges("g"), 2u);
}

// receipt_journal_bytes_total counts the frames the journal wrote, once:
// the metric, JournalStats and the segment files all agree.
TEST(Recovery, JournalBytesMetricMatchesTheFramesOnDisk) {
  TempDir dir;
  DurableStack stack(dir.path());
  ASSERT_NE(stack.durability, nullptr) << stack.error;

  JournalRecord reg;
  reg.type = JournalRecord::Type::kRegister;
  reg.graph = "g";
  reg.epoch = stack.registry.AllocateEpoch();
  const BipartiteGraph graph = ChungLuBipartite(40, 30, 150, 0.5, 0.5, 9);
  reg.num_u = graph.num_u();
  reg.num_v = graph.num_v();
  reg.edges = graph.ToEdges();
  ASSERT_EQ(stack.live->Apply(reg).status, service::Status::kOk);
  uint64_t frame_bytes = EncodeFrame(reg).size();

  for (uint32_t i = 0; i < 4; ++i) {
    const std::vector<EdgeUpdate> batch = {{true, i, i + 1}, {false, 0, i}};
    const bool seal = i == 3;
    const service::ApplyResult result =
        stack.live->ApplyEdges("g", batch, seal);
    ASSERT_EQ(result.status, service::Status::kOk) << result.error;
    ASSERT_EQ(result.records.size(), seal ? 2u : 1u);
    for (const JournalRecord& record : result.records) {
      frame_bytes += EncodeFrame(record).size();
    }
  }
  ASSERT_EQ(stack.durability->stats().journal.appends, 6u);

  const uint64_t metric =
      stack.metrics
          .GetCounter("receipt_journal_bytes_total", "Journal bytes written")
          ->Value();
  EXPECT_EQ(metric, frame_bytes);
  EXPECT_EQ(stack.durability->stats().journal.bytes_written, frame_bytes);

  // On disk: each segment is a 20-byte header (magic, version, sequence)
  // followed by the frames.
  const std::string journal_dir =
      DurabilityManager::JournalDirFor(dir.path());
  uint64_t disk_bytes = 0;
  for (const std::string& name : io::ListDir(journal_dir, nullptr)) {
    disk_bytes += std::filesystem::file_size(journal_dir + "/" + name) - 20;
  }
  EXPECT_EQ(disk_bytes, frame_bytes);
}

// ---------------------------------------------------------------------------
// The property: randomized crashes under churn never lose an acked batch
// ---------------------------------------------------------------------------

/// Folds batches[0..count) over the initial edge set.
std::vector<Edge> OracleEdges(const BipartiteGraph& initial,
                              const std::vector<std::vector<EdgeUpdate>>& batches,
                              size_t count) {
  std::set<Edge> edges;
  for (const Edge& edge : initial.ToEdges()) edges.insert(edge);
  for (size_t i = 0; i < count; ++i) {
    for (const EdgeUpdate& update : batches[i]) {
      if (update.insert) {
        edges.insert(Edge{update.u, update.v});
      } else {
        edges.erase(Edge{update.u, update.v});
      }
    }
  }
  return {edges.begin(), edges.end()};
}

TEST(CrashProperty, AckedBatchesSurviveAnyInjectedCrash) {
  struct Scenario {
    const char* site;   // crash-halt site, or nullptr for a torn write
    uint64_t at;        // 1-based hit count
    uint64_t short_bytes = 0;
  };
  const Scenario scenarios[] = {
      {"journal.append.pre-write", 3},
      {"journal.append.pre-fsync", 2},
      {"journal.append.pre-fsync", 5},
      {"journal.rotate", 1},
      {"journal.truncate", 1},
      {"snapshot.rename", 1},
      {nullptr, 4, 10},  // torn write + dead disk mid-churn
      {nullptr, 7, 3},
  };
  // A few records per segment, so the churn rotates and truncates the
  // journal and every site above is actually reached.
  constexpr uint64_t kSegmentBytes = 300;

  for (size_t scenario_index = 0; scenario_index < std::size(scenarios);
       ++scenario_index) {
    const Scenario& scenario = scenarios[scenario_index];
    SCOPED_TRACE(::testing::Message()
                 << "scenario " << scenario_index << " site="
                 << (scenario.site ? scenario.site : "torn-write")
                 << " at=" << scenario.at);
    TempDir dir;
    FaultGuard guard;
    std::mt19937_64 rng(1000 + scenario_index);
    const BipartiteGraph initial =
        ChungLuBipartite(50, 40, 200, 0.6, 0.6, 21 + scenario_index);

    // Pre-draw the whole batch stream so the oracle can replay any prefix.
    std::vector<std::vector<EdgeUpdate>> batches;
    for (int b = 0; b < 12; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 6; ++i) {
        batch.push_back(EdgeUpdate{(rng() % 3) != 0,
                                   static_cast<VertexId>(rng() % 50),
                                   static_cast<VertexId>(rng() % 40)});
      }
      batches.push_back(std::move(batch));
    }

    size_t acked = 0;
    size_t attempted = 0;
    {
      DurableStack stack(dir.path(), kSegmentBytes);
      ASSERT_NE(stack.durability, nullptr) << stack.error;
      stack.Register("g", initial);
      ASSERT_EQ(stack.live->Track("g", LiveConfig{RequestKind::kTipU, 8}, 2,
                                  nullptr),
                service::Status::kOk);

      io::FaultPlan plan;
      if (scenario.site != nullptr) {
        plan.crash_site = scenario.site;
        plan.crash_at = scenario.at;
      } else {
        plan.fail_write_at = scenario.at;
        plan.short_write_bytes = scenario.short_bytes;
        plan.halt_on_write_failure = true;
      }
      io::SetFaultPlan(plan);

      for (size_t b = 0; b < batches.size(); ++b) {
        attempted = b + 1;
        const bool seal = (b % 3) == 2;  // seal every third batch
        const service::ApplyResult result =
            stack.live->ApplyEdges("g", batches[b], seal, 2);
        if (result.status == service::Status::kOk) {
          acked = b + 1;
        } else {
          ASSERT_EQ(result.status, service::Status::kShutdown)
              << result.error;
          break;  // the simulated disk is gone; the process "crashes" here
        }
      }
      io::ClearFaultPlan();
    }  // crash
    // The injected fault fired: a scenario that acks every batch tests
    // nothing.
    EXPECT_LT(attempted, batches.size())
        << "acked=" << acked << " attempted=" << attempted;

    DurableStack recovered(dir.path(), kSegmentBytes);
    ASSERT_NE(recovered.durability, nullptr) << recovered.error;
    const std::vector<Edge> state = recovered.LogicalEdges("g");

    // The invariant: the recovered logical edge set is the fold of some
    // acknowledged-or-better prefix — at least every acked batch, at most
    // the one additionally written-but-unacked batch.
    bool matched = false;
    for (size_t k = acked; k <= attempted && !matched; ++k) {
      matched = state == OracleEdges(initial, batches, k);
    }
    EXPECT_TRUE(matched)
        << "recovered state matches no prefix in [" << acked << ", "
        << attempted << "]";
  }
}

// ---------------------------------------------------------------------------
// Service-level restart: the full stack, including cache priming
// ---------------------------------------------------------------------------

TEST(ServiceRestart, RecoveredServiceAnswersBitIdentically) {
  TempDir dir;
  service::Request request;
  request.graph = "g";
  request.kind = RequestKind::kTipU;
  request.algorithm = service::Algorithm::kReceipt;
  request.partitions = 8;
  request.threads = 2;

  std::vector<Count> before;
  uint64_t epoch_before = 0;
  {
    service::GraphRegistry registry;
    service::ServiceOptions options;
    options.num_workers = 1;
    options.data_dir = dir.path();
    service::DecompositionService service(registry, options);
    ASSERT_TRUE(service.durability_error().empty())
        << service.durability_error();
    ASSERT_TRUE(service.durable());

    std::string error;
    ASSERT_EQ(service.RegisterGraph(
                  "g", ChungLuBipartite(60, 50, 240, 0.6, 0.6, 13), nullptr,
                  &error),
              service::Status::kOk)
        << error;
    std::vector<EdgeUpdate> batch = {{true, 7, 7}, {true, 8, 9}, {false, 0, 0}};
    const LiveConfig track[] = {{RequestKind::kTipU, 8}};
    const service::ApplyResult applied =
        service.live().ApplyEdges("g", batch, /*force_seal=*/true, 2, track);
    ASSERT_EQ(applied.status, service::Status::kOk) << applied.error;
    ASSERT_TRUE(applied.sealed);

    const service::Response response = service.Execute(request);
    ASSERT_EQ(response.status, service::Status::kOk) << response.error;
    before = response.payload->numbers;
    epoch_before = response.graph_epoch;
    service.Shutdown();
  }  // "crash" (destructor; the journal and snapshot are already durable)

  service::GraphRegistry registry;
  service::ServiceOptions options;
  options.num_workers = 1;
  options.data_dir = dir.path();
  service::DecompositionService service(registry, options);
  ASSERT_TRUE(service.durability_error().empty())
      << service.durability_error();
  EXPECT_FALSE(service.recovery_report().fresh_start);

  const service::Response response = service.Execute(request);
  ASSERT_EQ(response.status, service::Status::kOk) << response.error;
  EXPECT_EQ(response.graph_epoch, epoch_before);
  EXPECT_EQ(response.payload->numbers, before);
  // The snapshot restored the sealed baseline's numbers into the cache:
  // answering must not have needed an engine run.
  EXPECT_TRUE(response.cache_hit);
}

}  // namespace
}  // namespace receipt::durability
