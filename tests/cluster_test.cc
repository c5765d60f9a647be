// Replicated-serving suite (`ctest -L cluster`): hash-ring placement,
// replica fan-out over real loopback HTTP, router failover, crash/rejoin
// at the recorded epoch, and the offline PRAM trace checker.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/consistency.h"
#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "durability/journal.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/client_trace.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "util/crc32.h"
#include "util/json.h"

namespace receipt::cluster {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/receipt_cluster_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

TEST(HashRingTest, OwnershipIsDeterministicAndOrderIndependent) {
  const HashRing ring_abc({"a", "b", "c"});
  const HashRing ring_cba({"c", "b", "a"});
  const std::set<std::string> members = {"a", "b", "c"};
  std::set<std::string> owners_seen;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "graph-" + std::to_string(i);
    const std::string& owner = ring_abc.Owner(key);
    EXPECT_TRUE(members.count(owner)) << key;
    EXPECT_EQ(owner, ring_cba.Owner(key)) << key;
    owners_seen.insert(owner);
  }
  // 64 vnodes per member over 200 keys: every member owns something.
  EXPECT_EQ(owners_seen.size(), 3u);
}

TEST(HashRingTest, HoldersAreDistinctOwnerFirstAndCapped) {
  const HashRing ring({"a", "b", "c"});
  for (int i = 0; i < 50; ++i) {
    const std::string key = "g" + std::to_string(i);
    const std::vector<std::string> holders = ring.Holders(key, 2);
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_EQ(holders[0], ring.Owner(key));
    EXPECT_NE(holders[0], holders[1]);
    // Asking for more members than exist returns them all, once each.
    const std::vector<std::string> all = ring.Holders(key, 10);
    EXPECT_EQ(all.size(), 3u);
    EXPECT_EQ(std::set<std::string>(all.begin(), all.end()).size(), 3u);
  }
}

TEST(HashRingTest, RemovingAMemberRemapsOnlyItsOwnKeys) {
  const HashRing before({"a", "b", "c"});
  const HashRing after({"a", "b"});
  int moved = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "graph-" + std::to_string(i);
    if (before.Owner(key) == "c") {
      ++moved;
      continue;  // c's keys must land somewhere else; anywhere is legal
    }
    EXPECT_EQ(before.Owner(key), after.Owner(key)) << key;
  }
  EXPECT_GT(moved, 0);    // c owned a share...
  EXPECT_LT(moved, 500);  // ...but not everything
}

TEST(HashRingTest, DuplicateIdsCollapse) {
  const HashRing ring({"a", "a", "b"});
  EXPECT_EQ(ring.members().size(), 2u);
}

// ---------------------------------------------------------------------------
// Member-spec parsing
// ---------------------------------------------------------------------------

TEST(ParseClusterMembersTest, AcceptsHostPortAndBarePortForms) {
  std::vector<ClusterMember> members;
  std::string error;
  ASSERT_TRUE(
      ParseClusterMembers("a=10.0.0.1:18201,b=18202", &members, &error))
      << error;
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].id, "a");
  EXPECT_EQ(members[0].host, "10.0.0.1");
  EXPECT_EQ(members[0].port, 18201);
  EXPECT_EQ(members[1].host, "127.0.0.1");
  EXPECT_EQ(members[1].port, 18202);
}

TEST(ParseClusterMembersTest, RejectsMalformedSpecs) {
  std::vector<ClusterMember> members;
  std::string error;
  EXPECT_FALSE(ParseClusterMembers("a", &members, &error));
  EXPECT_FALSE(ParseClusterMembers("=18201", &members, &error));
  EXPECT_FALSE(ParseClusterMembers("a=notaport", &members, &error));
}

// ---------------------------------------------------------------------------
// PRAM checker
// ---------------------------------------------------------------------------

TraceOp Op(uint64_t seq, const std::string& client, bool read,
           const std::string& graph, uint64_t epoch) {
  TraceOp op;
  op.seq = seq;
  op.client = client;
  op.read = read;
  op.graph = graph;
  op.epoch = epoch;
  op.request_id = "r" + std::to_string(seq);
  op.file = "test";
  op.line = seq + 1;
  return op;
}

TEST(ConsistencyTest, LegalHistoryPasses) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1), Op(1, "c1", true, "g", 1),
      Op(2, "c2", true, "g", 1),  Op(3, "c1", false, "g", 2),
      Op(4, "c2", true, "g", 2),  Op(5, "c1", true, "g", 2),
      // Unsealed batches repeat the epoch: writes are non-strict.
      Op(6, "c1", false, "g", 2), Op(7, "c2", true, "g", 2),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, ReadGoingBackwardsIsReadMonotonicViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1), Op(1, "c1", false, "g", 2),
      Op(2, "c2", true, "g", 2),  Op(3, "c2", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-monotonic");
  EXPECT_EQ(violation->first.seq, 2u);
  EXPECT_EQ(violation->second.seq, 3u);
}

TEST(ConsistencyTest, ReadBelowOwnAckedWriteIsReadYourWritesViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1),
      Op(1, "c1", false, "g", 2),
      Op(2, "c1", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-your-writes");
  EXPECT_EQ(violation->first.seq, 1u);
  EXPECT_EQ(violation->second.seq, 2u);
}

TEST(ConsistencyTest, RegressingAckedWritesIsWriteMonotonicViolation) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 3),
      Op(1, "c1", false, "g", 2),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "write-monotonic");
}

TEST(ConsistencyTest, ReadOfEpochNoWriteProducedIsFlagged) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 1),
      Op(1, "c1", false, "g", 2),
      Op(2, "c2", true, "g", 7),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->rule, "read-of-unwritten-epoch");
}

TEST(ConsistencyTest, GraphsWithNoTracedWritesAreExemptFromWriteSet) {
  // Pre-registered graphs are read at epochs no traced write produced;
  // that is legal as long as the per-client reads stay monotonic.
  const std::vector<TraceOp> ops = {
      Op(0, "c1", true, "seeded", 5),
      Op(1, "c1", true, "seeded", 5),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, StreamsAreIndependentPerClientAndGraph) {
  // Epoch orderings interleaved across clients/graphs are fine; PRAM only
  // constrains each (client, graph) stream.
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g1", 1), Op(1, "c2", false, "g2", 5),
      Op(2, "c1", true, "g1", 1),  Op(3, "c2", true, "g2", 5),
      Op(4, "c1", true, "g2", 5),  Op(5, "c2", true, "g1", 1),
  };
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ConsistencyTest, ViolationFormatNamesBothOps) {
  const std::vector<TraceOp> ops = {
      Op(0, "c1", false, "g", 2),
      Op(1, "c1", true, "g", 1),
  };
  const auto violation = CheckPramConsistency(ops);
  ASSERT_TRUE(violation.has_value());
  const std::string text = FormatViolation(*violation);
  EXPECT_NE(text.find("violating pair"), std::string::npos);
  EXPECT_NE(text.find("seq=0"), std::string::npos);
  EXPECT_NE(text.find("seq=1"), std::string::npos);
}

TEST(ClientTraceTest, LogAndParserRoundTrip) {
  TempDir dir;
  const std::string path = dir.path() + "/trace.jsonl";
  {
    obs::ClientTraceLog log;
    std::string error;
    ASSERT_TRUE(log.Open(path, &error)) << error;
    obs::ClientTraceRecord record;
    record.client = "c1";
    record.read = false;
    record.graph = "g";
    record.epoch = 1;
    record.request_id = "req-1";
    log.Record(record);
    record.read = true;
    record.request_id = "req-2";
    log.Record(record);
    EXPECT_EQ(log.records_written(), 2u);
  }
  std::vector<TraceOp> ops;
  std::string error;
  ASSERT_TRUE(ParseTraceFile(path, &ops, &error)) << error;
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].client, "c1");
  EXPECT_FALSE(ops[0].read);
  EXPECT_EQ(ops[0].graph, "g");
  EXPECT_EQ(ops[0].epoch, 1u);
  EXPECT_EQ(ops[0].request_id, "req-1");
  EXPECT_TRUE(ops[1].read);
  EXPECT_EQ(ops[1].seq, 1u);
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST(ClientTraceTest, ParserRejectsMistypedRecords) {
  TempDir dir;
  const std::string path = dir.path() + "/bad.jsonl";
  std::ofstream(path) << "{\"seq\":0,\"client\":\"c\",\"op\":\"peek\","
                         "\"graph\":\"g\",\"epoch\":1,\"request_id\":\"r\"}\n";
  std::vector<TraceOp> ops;
  std::string error;
  EXPECT_FALSE(ParseTraceFile(path, &ops, &error));
  EXPECT_NE(error.find(":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-process replica set
// ---------------------------------------------------------------------------

/// One replica process' worth of stack, in-process: registry + service +
/// frontend (no routes) + cluster node on an ephemeral port.
struct TestReplica {
  std::string id;
  std::unique_ptr<service::GraphRegistry> registry;
  std::unique_ptr<service::DecompositionService> service;
  std::unique_ptr<server::HttpServer> server;
  std::unique_ptr<server::DecompositionHttpFrontend> frontend;
  std::unique_ptr<ClusterNode> node;

  void Start(const std::string& self_id,
             const std::vector<std::string>& member_ids, size_t replication,
             bool proxy, const std::string& data_dir) {
    id = self_id;
    registry = std::make_unique<service::GraphRegistry>();
    service::ServiceOptions service_options;
    service_options.num_workers = 1;
    service_options.data_dir = data_dir;
    service = std::make_unique<service::DecompositionService>(*registry,
                                                              service_options);
    ASSERT_TRUE(service->durability_error().empty())
        << service->durability_error();
    server::HttpServerOptions http_options;
    http_options.port = 0;
    http_options.num_threads = 2;
    server = std::make_unique<server::HttpServer>(http_options);
    frontend = std::make_unique<server::DecompositionHttpFrontend>(
        *registry, *service, *server, /*register_routes=*/false);
    ClusterNodeOptions options;
    options.self_id = self_id;
    for (const std::string& member : member_ids) {
      options.members.push_back(ClusterMember{member, "127.0.0.1", 0});
    }
    options.replication_factor = replication;
    options.proxy = proxy;
    options.peer_timeout_ms = 5000;
    node = std::make_unique<ClusterNode>(options, *registry, *service,
                                         *frontend, *server);
    std::string error;
    ASSERT_TRUE(server->Start(&error)) << error;
  }

  void Stop() {
    if (server != nullptr) server->Stop();
    node.reset();
    frontend.reset();
    if (service != nullptr) service->Shutdown(/*drain=*/true);
    service.reset();
    server.reset();
    registry.reset();
  }

  uint16_t port() const { return server->port(); }
};

class ClusterFixture : public ::testing::Test {
 protected:
  static constexpr size_t kReplication = 2;

  void StartCluster(bool proxy = true, bool durable = false) {
    ids_ = {"a", "b", "c"};
    for (const std::string& id : ids_) {
      replicas_[id] = std::make_unique<TestReplica>();
      const std::string data_dir =
          durable ? dir_.path() + "/data-" + id : std::string();
      if (durable) std::filesystem::create_directories(data_dir);
      replicas_[id]->Start(id, ids_, kReplication, proxy, data_dir);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    ConnectAll();
  }

  /// Every node learns every member's bound (ephemeral) port.
  void ConnectAll() {
    for (auto& [id, replica] : replicas_) {
      if (replica->node == nullptr) continue;
      for (auto& [peer_id, peer] : replicas_) {
        if (peer->server != nullptr) {
          replica->node->SetMemberEndpoint(peer_id, "127.0.0.1",
                                           peer->port());
        }
      }
    }
  }

  void TearDown() override {
    for (auto& [id, replica] : replicas_) replica->Stop();
  }

  /// Stops `id` and starts it again over its own data dir (durable
  /// clusters): a crash and rejoin.
  void RestartReplica(const std::string& id) {
    replicas_[id]->Stop();
    replicas_[id] = std::make_unique<TestReplica>();
    replicas_[id]->Start(id, ids_, kReplication, /*proxy=*/true,
                         dir_.path() + "/data-" + id);
    ConnectAll();
  }

  HttpClientResponse Post(
      uint16_t port, const std::string& path, const std::string& body,
      std::vector<std::pair<std::string, std::string>> headers = {}) {
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(client_.Post("127.0.0.1", port, path, body, headers,
                             &response, &error))
        << path << ": " << error;
    return response;
  }

  HttpClientResponse Get(uint16_t port, const std::string& path) {
    HttpClientResponse response;
    std::string error;
    EXPECT_TRUE(client_.Get("127.0.0.1", port, path, &response, &error))
        << path << ": " << error;
    return response;
  }

  /// Registers a 60x60 random graph under `name` through the node at
  /// `port` (any member: non-owners forward to the owner).
  void RegisterGraph(uint16_t port, const std::string& name) {
    const std::string file = dir_.path() + "/" + name + ".konect";
    ASSERT_TRUE(SaveKonect(RandomBipartite(60, 60, 400, /*seed=*/11), file));
    const auto response =
        Post(port, "/v1/graphs",
             "{\"name\":\"" + name + "\",\"path\":\"" + file + "\"}");
    ASSERT_EQ(response.status, 200) << response.body;
  }

  static std::vector<uint64_t> Numbers(const std::string& body) {
    const auto json = util::JsonValue::Parse(body);
    std::vector<uint64_t> numbers;
    if (!json.has_value()) return numbers;
    const util::JsonValue* array = json->Find("numbers");
    if (array == nullptr) return numbers;
    for (const util::JsonValue& item : array->Items()) {
      numbers.push_back(item.AsUint());
    }
    return numbers;
  }

  static uint64_t UintField(const std::string& body, const std::string& key) {
    const auto json = util::JsonValue::Parse(body);
    if (!json.has_value()) return 0;
    const util::JsonValue* field = json->Find(key);
    return field != nullptr && field->IsInt() ? field->AsUint() : 0;
  }

  /// The X-Graph-Epoch a response carries; "" when it carries none.
  static std::string EpochHeader(const HttpClientResponse& response) {
    const auto it = response.headers.find("x-graph-epoch");
    return it == response.headers.end() ? std::string() : it->second;
  }

  TestReplica& Owner(const std::string& graph) {
    const HashRing ring(ids_);
    return *replicas_[ring.Owner(graph)];
  }

  std::vector<std::string> Holders(const std::string& graph) {
    return HashRing(ids_).Holders(graph, kReplication);
  }

  TempDir dir_;
  std::vector<std::string> ids_;
  std::map<std::string, std::unique_ptr<TestReplica>> replicas_;
  HttpClient client_{2000};
};

constexpr const char* kDecomposeBody =
    "{\"graph\":\"g\",\"kind\":\"tip-U\",\"partitions\":6}";

/// The value of the unlabelled-or-exactly-labelled sample `name` in a
/// Prometheus exposition; fails the test when it is missing.
uint64_t MetricSample(const std::string& text, const std::string& name) {
  const size_t pos = text.find("\n" + name + " ");
  EXPECT_NE(pos, std::string::npos) << "missing sample: " << name;
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + name.size() + 2, nullptr, 10);
}

/// Number of families declared more than once in an exposition.
size_t DuplicateFamilies(const std::string& text) {
  std::set<std::string> seen;
  size_t duplicates = 0;
  for (size_t pos = text.find("# TYPE "); pos != std::string::npos;
       pos = text.find("# TYPE ", pos + 1)) {
    if (!seen.insert(text.substr(pos, text.find('\n', pos) - pos)).second) {
      ++duplicates;
    }
  }
  return duplicates;
}

TEST_F(ClusterFixture, RegisterReplicatesToExactlyTheHolders) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  const std::set<std::string> holders = [this] {
    const auto list = Holders("g");
    return std::set<std::string>(list.begin(), list.end());
  }();
  ASSERT_EQ(holders.size(), kReplication);
  for (const std::string& id : ids_) {
    const auto info = Get(replicas_[id]->port(), "/v1/cluster/info");
    ASSERT_EQ(info.status, 200);
    const bool resident =
        info.body.find("\"name\":\"g\"") != std::string::npos;
    EXPECT_EQ(resident, holders.count(id) > 0) << id << ": " << info.body;
  }
}

TEST_F(ClusterFixture, SealedBatchesReplicateBitIdentically) {
  StartCluster();
  RegisterGraph(replicas_["b"]->port(), "g");
  const auto sealed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":1,\"v\":2},"
           "{\"op\":\"insert\",\"u\":3,\"v\":4}],\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  EXPECT_EQ(UintField(sealed.body, "epoch"), 2u);
  EXPECT_EQ(EpochHeader(sealed), "2");

  std::vector<std::vector<uint64_t>> per_holder;
  for (const std::string& id : Holders("g")) {
    const auto response =
        Post(replicas_[id]->port(), "/v1/decompose", kDecomposeBody);
    ASSERT_EQ(response.status, 200) << id << ": " << response.body;
    EXPECT_EQ(UintField(response.body, "graph_epoch"), 2u) << id;
    EXPECT_EQ(EpochHeader(response), "2") << id;
    per_holder.push_back(Numbers(response.body));
    ASSERT_FALSE(per_holder.back().empty()) << id;
  }
  ASSERT_EQ(per_holder.size(), kReplication);
  EXPECT_EQ(per_holder[0], per_holder[1]);
}

TEST_F(ClusterFixture, WritesThroughAnyMemberLandOnTheOwnerChain) {
  StartCluster();
  RegisterGraph(replicas_["c"]->port(), "g");
  // Push a sealed batch through every member in turn: each must forward
  // to the owner and come back with the next epoch in the chain.
  uint64_t expected_epoch = 1;
  for (const std::string& id : ids_) {
    const auto response =
        Post(replicas_[id]->port(), "/v1/graphs/g/edges",
             "{\"edges\":[{\"op\":\"insert\",\"u\":5,\"v\":" +
                 std::to_string(10 + expected_epoch) + "}],\"seal\":true}");
    ASSERT_EQ(response.status, 200) << id << ": " << response.body;
    ++expected_epoch;
    EXPECT_EQ(UintField(response.body, "epoch"), expected_epoch) << id;
  }
}

TEST_F(ClusterFixture, NonHolderRedirectsWhenProxyingIsOff) {
  StartCluster(/*proxy=*/false);
  RegisterGraph(Owner("g").port(), "g");
  const auto holders = Holders("g");
  const std::set<std::string> holder_set(holders.begin(), holders.end());
  for (const std::string& id : ids_) {
    if (holder_set.count(id)) continue;
    const server::HttpServer::Stats before = replicas_[id]->server->stats();
    const auto response =
        Post(replicas_[id]->port(), "/v1/decompose", kDecomposeBody);
    EXPECT_EQ(response.status, 307) << id << ": " << response.body;
    const auto location = response.headers.find("location");
    ASSERT_NE(location, response.headers.end());
    EXPECT_NE(location->second.find("/v1/decompose"), std::string::npos);
    // A redirect is a 3xx, not a client error.
    const server::HttpServer::Stats after = replicas_[id]->server->stats();
    EXPECT_EQ(after.responses_3xx, before.responses_3xx + 1) << id;
    EXPECT_EQ(after.responses_4xx, before.responses_4xx) << id;
    EXPECT_EQ(replicas_[id]->node->stats().redirected, 1u) << id;
  }
}

TEST_F(ClusterFixture, StaleReplicaRejectsReadsBelowTheMinEpoch) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  const std::string follower = Holders("g")[1];
  const auto stale = Post(replicas_[follower]->port(), "/v1/decompose",
                          kDecomposeBody, {{"X-Cluster-Min-Epoch", "99"}});
  EXPECT_EQ(stale.status, 412) << stale.body;
  const auto fresh = Post(replicas_[follower]->port(), "/v1/decompose",
                          kDecomposeBody, {{"X-Cluster-Min-Epoch", "1"}});
  EXPECT_EQ(fresh.status, 200) << fresh.body;
}

TEST_F(ClusterFixture, RouterSpreadsReadsAndFailsOverWhenAHolderDies) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");

  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;  // passive marking only: deterministic
  options.trace_log_path = dir_.path() + "/trace.jsonl";
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;

  const std::vector<std::pair<std::string, std::string>> as_c1 = {
      {"X-Client-Id", "c1"}};
  auto first = Post(router.port(), "/v1/decompose", kDecomposeBody, as_c1);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_FALSE(first.headers["x-request-id"].empty());
  const std::vector<uint64_t> baseline = Numbers(first.body);

  // Kill one holder outright; reads must keep succeeding via the other.
  const std::string victim = Holders("g")[1];
  replicas_[victim]->Stop();
  for (int i = 0; i < 6; ++i) {
    const auto response =
        Post(router.port(), "/v1/decompose", kDecomposeBody, as_c1);
    ASSERT_EQ(response.status, 200) << i << ": " << response.body;
    EXPECT_EQ(Numbers(response.body), baseline) << i;
  }
  const Router::Stats stats = router.stats();
  EXPECT_GE(stats.reads_routed, 7u);
  EXPECT_EQ(stats.no_replica, 0u);
  // The router's counters are its /metrics samples.
  const auto metrics = Get(router.port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(stats.reads_routed,
            MetricSample(metrics.body, "receipt_router_reads_routed_total"));
  EXPECT_EQ(stats.writes_routed,
            MetricSample(metrics.body, "receipt_router_writes_routed_total"));
  EXPECT_EQ(stats.failovers,
            MetricSample(metrics.body, "receipt_router_failovers_total"));
  EXPECT_EQ(stats.no_replica,
            MetricSample(metrics.body, "receipt_router_no_replica_total"));
  EXPECT_EQ(DuplicateFamilies(metrics.body), 0u);
  router.Stop();

  // The trace the router wrote is parseable and PRAM-consistent.
  std::vector<TraceOp> ops;
  ASSERT_TRUE(ParseTraceFile(options.trace_log_path, &ops, &error)) << error;
  EXPECT_EQ(ops.size(), 7u);
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

TEST_F(ClusterFixture, RouterEchoesTheCallersRequestId) {
  StartCluster();
  RegisterGraph(replicas_["a"]->port(), "g");
  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;
  const auto response = Post(router.port(), "/v1/decompose", kDecomposeBody,
                             {{"X-Request-Id", "00000000deadbeef"}});
  EXPECT_EQ(response.status, 200) << response.body;
  const auto echoed = response.headers.find("x-request-id");
  ASSERT_NE(echoed, response.headers.end());
  EXPECT_EQ(echoed->second, "00000000deadbeef");
  EXPECT_EQ(UintField(response.body, "graph_epoch"), 1u);
  router.Stop();
}

// The router learns epochs from X-Graph-Epoch alone, so every hop must
// carry it: a direct holder, and a non-holder that proxies to the owner.
// The router here spreads reads over all three members (the nodes hold
// each graph on two), so one read of three enters through the non-holder.
TEST_F(ClusterFixture, RouterTracesHeaderEpochsThroughAProxyingNonHolder) {
  StartCluster();
  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = ids_.size();
  options.health_interval_ms = 0;
  options.trace_log_path = dir_.path() + "/trace.jsonl";
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;
  const std::vector<std::pair<std::string, std::string>> as_c1 = {
      {"X-Client-Id", "c1"}};

  const std::string file = dir_.path() + "/g.konect";
  ASSERT_TRUE(SaveKonect(RandomBipartite(60, 60, 400, /*seed=*/11), file));
  const auto registered =
      Post(router.port(), "/v1/graphs",
           "{\"name\":\"g\",\"path\":\"" + file + "\"}", as_c1);
  ASSERT_EQ(registered.status, 200) << registered.body;
  EXPECT_EQ(EpochHeader(registered), "1");
  const auto sealed = Post(router.port(), "/v1/graphs/g/edges",
                           "{\"edges\":[{\"op\":\"insert\",\"u\":1,"
                           "\"v\":2}],\"seal\":true}",
                           as_c1);
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  EXPECT_EQ(EpochHeader(sealed), "2");

  std::vector<uint64_t> read_epochs;
  for (size_t i = 0; i < ids_.size(); ++i) {
    const auto read =
        Post(router.port(), "/v1/decompose", kDecomposeBody, as_c1);
    ASSERT_EQ(read.status, 200) << i << ": " << read.body;
    read_epochs.push_back(UintField(read.body, "graph_epoch"));
    EXPECT_EQ(EpochHeader(read), std::to_string(read_epochs.back())) << i;
  }
  EXPECT_EQ(read_epochs, std::vector<uint64_t>(ids_.size(), 2u));
  const std::vector<std::string> holders = Holders("g");
  for (const std::string& id : ids_) {
    const bool holder =
        std::find(holders.begin(), holders.end(), id) != holders.end();
    EXPECT_EQ(replicas_[id]->node->stats().proxied, holder ? 0u : 1u) << id;
  }
  router.Stop();

  // The trace holds the epochs the bodies named, and passes PRAM.
  std::vector<TraceOp> ops;
  ASSERT_TRUE(ParseTraceFile(options.trace_log_path, &ops, &error)) << error;
  ASSERT_EQ(ops.size(), 2 + ids_.size());
  EXPECT_FALSE(ops[0].read);
  EXPECT_EQ(ops[0].epoch, UintField(registered.body, "epoch"));
  EXPECT_FALSE(ops[1].read);
  EXPECT_EQ(ops[1].epoch, UintField(sealed.body, "epoch"));
  for (size_t i = 0; i < read_epochs.size(); ++i) {
    EXPECT_TRUE(ops[2 + i].read) << i;
    EXPECT_EQ(ops[2 + i].epoch, read_epochs[i]) << i;
  }
  EXPECT_FALSE(CheckPramConsistency(ops).has_value());
}

// An upstream whose X-Graph-Epoch is missing or malformed is relayed
// unchanged and teaches the router nothing — the router reads no body,
// so the stub's body epoch of 7 never counts either. A well-formed
// header is observed: the next read carries it as the min epoch.
TEST_F(ClusterFixture, RouterObservesNoEpochWithoutAWellFormedHeader) {
  std::mutex mu;
  std::optional<std::string> epoch_header;  // what the stub answers with
  std::vector<std::string> min_epochs;      // X-Cluster-Min-Epoch it saw
  const auto stub_answer = [&](const server::HttpRequest& request,
                               const char* body) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = request.headers.find("x-cluster-min-epoch");
    min_epochs.push_back(it == request.headers.end() ? "" : it->second);
    server::HttpResponse response;
    response.body = body;
    if (epoch_header.has_value()) {
      response.extra_headers.emplace_back("X-Graph-Epoch", *epoch_header);
    }
    return response;
  };
  constexpr const char* kReadBody =
      "{\"status\":\"ok\",\"graph_epoch\":7,\"numbers\":[1,2]}";
  constexpr const char* kWriteBody = "{\"status\":\"ok\",\"epoch\":7}";
  server::HttpServerOptions http_options;
  http_options.port = 0;
  server::HttpServer stub(http_options);
  stub.Handle("POST", "/v1/decompose", [&](const server::HttpRequest& r) {
    return stub_answer(r, kReadBody);
  });
  stub.HandlePrefix("POST", "/v1/graphs/", [&](const server::HttpRequest& r) {
    return stub_answer(r, kWriteBody);
  });
  std::string error;
  ASSERT_TRUE(stub.Start(&error)) << error;

  RouterOptions options;
  options.replication_factor = 1;
  options.health_interval_ms = 0;
  options.trace_log_path = dir_.path() + "/trace.jsonl";
  Router router({{"s", "127.0.0.1", stub.port()}}, options);
  ASSERT_TRUE(router.Start(&error)) << error;

  const std::string batch = "{\"edges\":[{\"op\":\"insert\",\"u\":1,\"v\":2}]}";
  for (const std::optional<std::string>& header :
       {std::optional<std::string>(), std::optional<std::string>("12x")}) {
    {
      std::lock_guard<std::mutex> lock(mu);
      epoch_header = header;
    }
    const auto read = Post(router.port(), "/v1/decompose", kDecomposeBody);
    const auto write = Post(router.port(), "/v1/graphs/g/edges", batch);
    ASSERT_EQ(read.status, 200) << read.body;
    ASSERT_EQ(write.status, 200) << write.body;
    EXPECT_EQ(read.body, kReadBody);
    EXPECT_EQ(write.body, kWriteBody);
    EXPECT_EQ(EpochHeader(read), header.value_or(""));
    EXPECT_EQ(EpochHeader(write), header.value_or(""));
  }
  const auto statz = Get(router.port(), "/statz");
  EXPECT_NE(statz.body.find("\"epochs\":{}"), std::string::npos)
      << statz.body;

  {
    std::lock_guard<std::mutex> lock(mu);
    epoch_header = "5";
  }
  EXPECT_EQ(EpochHeader(Post(router.port(), "/v1/decompose", kDecomposeBody)),
            "5");
  EXPECT_EQ(Post(router.port(), "/v1/decompose", kDecomposeBody).status, 200);
  router.Stop();
  stub.Stop();

  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(min_epochs,
              (std::vector<std::string>{"", "", "", "", "", "5"}));
  }
  std::vector<TraceOp> ops;
  ASSERT_TRUE(ParseTraceFile(options.trace_log_path, &ops, &error)) << error;
  ASSERT_EQ(ops.size(), 6u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(ops[i].epoch, 0u) << i;
  EXPECT_EQ(ops[4].epoch, 5u);
  EXPECT_EQ(ops[5].epoch, 5u);
}

TEST_F(ClusterFixture, RouterListsEveryGraphInTheCluster) {
  StartCluster();
  // A graph "a" does not hold: "a" is the first member in id order, so a
  // router that relays one member's list would miss it.
  std::string away;
  for (int i = 0; away.empty(); ++i) {
    const std::string name = "g" + std::to_string(i);
    const std::vector<std::string> holders = Holders(name);
    if (std::find(holders.begin(), holders.end(), "a") == holders.end()) {
      away = name;
    }
  }
  RegisterGraph(replicas_["a"]->port(), away);
  RegisterGraph(replicas_["a"]->port(), "g");
  const auto sealed =
      Post(Owner(away).port(), "/v1/graphs/" + away + "/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":1,\"v\":2}],"
           "\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;

  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;

  const auto listed = Get(router.port(), "/v1/graphs");
  ASSERT_EQ(listed.status, 200) << listed.body;
  const auto json = util::JsonValue::Parse(listed.body);
  ASSERT_TRUE(json.has_value()) << listed.body;
  const util::JsonValue* graphs = json->Find("graphs");
  ASSERT_NE(graphs, nullptr) << listed.body;
  std::map<std::string, uint64_t> epochs;
  for (const util::JsonValue& item : graphs->Items()) {
    std::string name;
    ASSERT_TRUE(item.GetString("name", &name)) << listed.body;
    EXPECT_TRUE(epochs.emplace(name, item.Find("epoch")->AsUint()).second)
        << name << " listed twice: " << listed.body;
    int64_t num_u = 0;
    ASSERT_TRUE(item.GetInt("num_u", &num_u));
    EXPECT_EQ(num_u, 60) << name;
  }
  // Each graph at its owner's (newest) epoch.
  std::map<std::string, uint64_t> expected;
  for (const std::string& name : {away, std::string("g")}) {
    expected[name] = Owner(name).registry->Acquire(name).epoch();
  }
  EXPECT_EQ(epochs, expected) << listed.body;

  // Only when no member answers is the list unavailable.
  for (auto& [id, replica] : replicas_) replica->Stop();
  EXPECT_EQ(Get(router.port(), "/v1/graphs").status, 503);
  router.Stop();
}

TEST_F(ClusterFixture, CrashedFollowerRejoinsFromItsOwnDataDir) {
  StartCluster(/*proxy=*/true, /*durable=*/true);
  RegisterGraph(Owner("g").port(), "g");
  const auto sealed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":7,\"v\":9}],\"seal\":true}");
  ASSERT_EQ(sealed.status, 200) << sealed.body;

  // "Crash" the follower, then write a sealed batch it never sees.
  const std::string follower = Holders("g")[1];
  replicas_[follower]->Stop();
  const auto missed =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":8,\"v\":2}],\"seal\":true}");
  ASSERT_EQ(missed.status, 200) << missed.body;
  EXPECT_EQ(UintField(missed.body, "epoch"), 3u);

  // Rejoin from its own journal: recovers to the epoch it saw (2).
  replicas_[follower] = std::make_unique<TestReplica>();
  replicas_[follower]->Start(follower, ids_, kReplication, /*proxy=*/true,
                             dir_.path() + "/data-" + follower);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ConnectAll();
  const auto info = Get(replicas_[follower]->port(), "/v1/cluster/info");
  EXPECT_NE(info.body.find("\"epoch\":2"), std::string::npos) << info.body;

  // The next replicated batch 409s on the diverged chain and triggers a
  // full-state sync; after it the follower is bit-identical to the owner.
  const auto converge =
      Post(Owner("g").port(), "/v1/graphs/g/edges",
           "{\"edges\":[{\"op\":\"insert\",\"u\":9,\"v\":5}],\"seal\":true}");
  ASSERT_EQ(converge.status, 200) << converge.body;
  EXPECT_EQ(UintField(converge.body, "epoch"), 4u);
  // The owner counts both sides of the recovery, on its /metrics too: the
  // fan-out that died against the stopped follower, and the sync after.
  const ClusterNode::Stats owner_stats = Owner("g").node->stats();
  EXPECT_GE(owner_stats.chain_syncs, 1u);
  EXPECT_GE(owner_stats.replication_failures, 1u);
  const auto metrics = Get(Owner("g").port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(owner_stats.chain_syncs,
            MetricSample(metrics.body, "receipt_cluster_chain_syncs_total"));
  EXPECT_EQ(owner_stats.replication_failures,
            MetricSample(metrics.body,
                         "receipt_cluster_replication_failures_total"));
  EXPECT_EQ(DuplicateFamilies(metrics.body), 0u);

  const auto from_owner =
      Post(Owner("g").port(), "/v1/decompose", kDecomposeBody);
  const auto from_follower =
      Post(replicas_[follower]->port(), "/v1/decompose", kDecomposeBody);
  ASSERT_EQ(from_owner.status, 200) << from_owner.body;
  ASSERT_EQ(from_follower.status, 200) << from_follower.body;
  EXPECT_EQ(UintField(from_follower.body, "graph_epoch"), 4u);
  EXPECT_EQ(Numbers(from_owner.body), Numbers(from_follower.body));
}

TEST_F(ClusterFixture, CatchUpCarriesPendingUpdatesAcrossARestart) {
  StartCluster(/*proxy=*/true, /*durable=*/true);
  RegisterGraph(Owner("g").port(), "g");
  const auto write = [this](const std::string& edges, bool seal) {
    const auto response =
        Post(Owner("g").port(), "/v1/graphs/g/edges",
             "{\"edges\":[" + edges + "],\"seal\":" +
                 (seal ? "true" : "false") + "}");
    EXPECT_EQ(response.status, 200) << response.body;
  };
  const std::string id = Holders("g")[1];
  service::LiveGraphManager& owner_live = Owner("g").service->live();

  // The follower misses an unsealed batch while it is down, so it rejoins
  // at the owner's epoch with a shorter buffer.
  replicas_[id]->Stop();
  write("{\"op\":\"insert\",\"u\":7,\"v\":9},"
        "{\"op\":\"insert\",\"u\":8,\"v\":2}",
        false);
  RestartReplica(id);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(replicas_[id]->registry->Acquire("g").epoch(), 1u);
  EXPECT_EQ(replicas_[id]->service->live().PendingEdges("g"), 0u);

  // The next unsealed batch finds the gap and syncs the whole buffer.
  write("{\"op\":\"insert\",\"u\":9,\"v\":5}", false);
  EXPECT_EQ(Owner("g").node->stats().chain_syncs, 1u);
  EXPECT_EQ(owner_live.PendingEdges("g"), 3u);
  EXPECT_EQ(replicas_[id]->service->live().PendingEdges("g"),
            owner_live.PendingEdges("g"));

  // The synced state is the follower's own history now: it survives a
  // restart from its data dir at the synced epoch and buffer.
  RestartReplica(id);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(replicas_[id]->registry->Acquire("g").epoch(), 1u);
  EXPECT_EQ(replicas_[id]->service->live().PendingEdges("g"), 3u);

  // The next seal chains cleanly and lands bit-identically on both.
  write("{\"op\":\"delete\",\"u\":7,\"v\":9}", true);
  EXPECT_EQ(Owner("g").node->stats().chain_syncs, 1u);
  const auto from_owner =
      Post(Owner("g").port(), "/v1/decompose", kDecomposeBody);
  const auto from_follower =
      Post(replicas_[id]->port(), "/v1/decompose", kDecomposeBody);
  ASSERT_EQ(from_owner.status, 200) << from_owner.body;
  ASSERT_EQ(from_follower.status, 200) << from_follower.body;
  EXPECT_EQ(UintField(from_owner.body, "graph_epoch"), 2u);
  EXPECT_EQ(UintField(from_follower.body, "graph_epoch"), 2u);
  EXPECT_EQ(Numbers(from_owner.body), Numbers(from_follower.body));
  EXPECT_EQ(replicas_[id]->service->live().PendingEdges("g"), 0u);
}

TEST_F(ClusterFixture, ApplyEndpointRejectsBadFramesWithoutSideEffects) {
  StartCluster(/*proxy=*/true, /*durable=*/true);
  RegisterGraph(Owner("g").port(), "g");
  TestReplica& follower = *replicas_[Holders("g")[1]];
  const auto state = [&follower] {
    return std::make_tuple(
        follower.registry->Acquire("g").epoch(),
        follower.service->live().PendingEdges("g"),
        follower.service->durability()->stats().journal.appends);
  };
  const auto before = state();

  const auto batch = [](uint32_t u, uint32_t v) {
    durability::JournalRecord record;
    record.type = durability::JournalRecord::Type::kEdgeBatch;
    record.graph = "g";
    record.epoch = 1;
    record.updates = {{true, u, v}};
    return durability::EncodeFrame(record);
  };
  const std::string good = batch(1, 2);
  std::string flipped_crc = good;
  flipped_crc[4] ^= 0x01;
  std::string unknown_type = good;
  unknown_type[8] = 9;  // first payload byte: the record type
  const uint32_t crc =
      util::Crc32(unknown_type.data() + 8, unknown_type.size() - 8);
  std::memcpy(unknown_type.data() + 4, &crc, 4);
  std::string oversize = good;
  const uint32_t huge = 0xFFFFFFF0u;
  std::memcpy(oversize.data(), &huge, 4);

  const std::map<std::string, std::string> bad = {
      {"flipped CRC byte", flipped_crc},
      {"truncated frame", good.substr(0, good.size() - 1)},
      {"unknown record type", unknown_type},
      {"oversize length", oversize},
      {"out-of-shape edge", batch(100000, 0)},
      {"valid frame after a truncated one", good + good.substr(0, 9)},
  };
  for (const auto& [what, body] : bad) {
    const auto response =
        Post(follower.port(), "/v1/cluster/apply?threads=1", body);
    EXPECT_GE(response.status, 400) << what << ": " << response.body;
    EXPECT_LT(response.status, 500) << what << ": " << response.body;
    EXPECT_EQ(state(), before) << what;
  }

  // The same endpoint takes the undamaged frame.
  const auto accepted =
      Post(follower.port(), "/v1/cluster/apply?threads=1", good);
  EXPECT_EQ(accepted.status, 200) << accepted.body;
  EXPECT_EQ(follower.service->live().PendingEdges("g"), 1u);
}

TEST_F(ClusterFixture, RouteEndpointAgreesAcrossAllMembers) {
  StartCluster();
  std::string expected;
  for (const std::string& id : ids_) {
    const auto response =
        Get(replicas_[id]->port(), "/v1/cluster/route?graph=g");
    ASSERT_EQ(response.status, 200);
    const auto json = util::JsonValue::Parse(response.body);
    ASSERT_TRUE(json.has_value());
    std::string owner;
    ASSERT_TRUE(json->GetString("owner", &owner));
    if (expected.empty()) expected = owner;
    EXPECT_EQ(owner, expected) << id;
  }
  EXPECT_EQ(expected, HashRing(ids_).Owner("g"));
}

TEST_F(ClusterFixture, RouterRouteLookupMatchesTheWholeGraphKey) {
  StartCluster();
  std::vector<ClusterMember> members;
  for (const std::string& id : ids_) {
    members.push_back(ClusterMember{id, "127.0.0.1", replicas_[id]->port()});
  }
  RouterOptions options;
  options.replication_factor = kReplication;
  options.health_interval_ms = 0;
  Router router(members, options);
  std::string error;
  ASSERT_TRUE(router.Start(&error)) << error;

  // "subgraph=x" must not be read as graph "x".
  const auto response =
      Get(router.port(), "/v1/cluster/route?subgraph=x&graph=g1");
  ASSERT_EQ(response.status, 200) << response.body;
  const auto json = util::JsonValue::Parse(response.body);
  ASSERT_TRUE(json.has_value());
  std::string graph;
  std::string owner;
  ASSERT_TRUE(json->GetString("graph", &graph));
  ASSERT_TRUE(json->GetString("owner", &owner));
  EXPECT_EQ(graph, "g1");
  EXPECT_EQ(owner, HashRing(ids_).Owner("g1"));

  EXPECT_EQ(Get(router.port(), "/v1/cluster/route?subgraph=x").status, 400);
  router.Stop();
}

TEST_F(ClusterFixture, NodeUnavailableAnswersCarryRetryAfter) {
  StartCluster();
  const std::string owner = HashRing(ids_).Owner("g");
  std::string other;
  for (const std::string& id : ids_) {
    if (id != owner) other = id;
  }
  ClusterNode& node = *replicas_[other]->node;

  // The owner's port closed: the forward cannot connect.
  replicas_[owner]->Stop();
  auto response =
      Post(replicas_[other]->port(), "/v1/decompose", kDecomposeBody);
  EXPECT_EQ(response.status, 503) << response.body;
  EXPECT_NE(response.body.find("is unreachable"), std::string::npos)
      << response.body;
  EXPECT_EQ(response.headers["retry-after"], "1");

  // No endpoint known for the owner at all.
  node.SetMemberEndpoint(owner, "127.0.0.1", 0);
  response = Post(replicas_[other]->port(), "/v1/decompose", kDecomposeBody);
  EXPECT_EQ(response.status, 503) << response.body;
  EXPECT_NE(response.body.find("no endpoint known"), std::string::npos)
      << response.body;
  EXPECT_EQ(response.headers["retry-after"], "1");
}

}  // namespace
}  // namespace receipt::cluster
