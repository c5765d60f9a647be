#ifndef RECEIPT_CLUSTER_ROUTER_H_
#define RECEIPT_CLUSTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "cluster/node.h"
#include "obs/client_trace.h"
#include "obs/metrics.h"
#include "server/http_server.h"

namespace receipt::cluster {

struct RouterOptions {
  server::HttpServerOptions http;  ///< port 0 = ephemeral (default)
  /// Must match the replicas' --replication so reads spread over exactly
  /// the members that hold each graph.
  size_t replication_factor = 2;
  int peer_timeout_ms = 5000;
  /// Active /healthz probe period. 0 disables the prober (passive
  /// marking on forward failures still applies) — used by tests.
  int health_interval_ms = 250;
  /// JSONL client trace sink (see obs::ClientTraceLog); "" disables.
  std::string trace_log_path;
};

/// The thin front-end of the replicated tier: clients talk to one
/// address, the router spreads reads and steers writes.
///
///   reads   POST /v1/decompose round-robins over the healthy holders of
///           the graph, carrying X-Cluster-Min-Epoch — the highest epoch
///           any response has reported for that graph — so a lagging
///           replica answers 412 and the read fails over instead of
///           going backwards in time (monotonic reads by construction).
///   epochs  a replica's 200 names its epoch in X-Graph-Epoch; the router
///           reads that header and relays read and write bodies without
///           parsing them (a missing or malformed header observes none).
///   writes  POST /v1/graphs and /v1/graphs/{name}/edges go to the shard
///           owner; the owner replicates (see ClusterNode).
///   list    GET /v1/graphs asks every member and merges the lists by
///           name, keeping each graph's highest-epoch entry.
///   metrics GET /metrics renders the router's HTTP server registry:
///           its receipt_transport_* families and the router's own
///           receipt_router_<field>_total counters.
///   health  a prober thread GETs /healthz on every replica; transport
///           failures also mark a replica down passively. Requests fail
///           over on down/412/429/5xx responses and the first healthy
///           answer wins.
///
/// X-Request-Id is propagated end to end: accepted from the client or
/// minted here, forwarded to the replica (whose frontend adopts it as
/// the trace id), and echoed in the response. When a trace log is
/// configured, every successful client op is appended as one JSONL line
/// (client id from X-Client-Id, op, graph, epoch, request id) — the
/// input to tools/consistency_check.
class Router {
 public:
  Router(std::vector<ClusterMember> members, const RouterOptions& options);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  bool Start(std::string* error);
  void Stop();
  uint16_t port() const;

  /// The four counters are reads of registry instruments; trace_records
  /// and healthy_replicas are state, read from the object.
  struct Stats {
    uint64_t reads_routed = 0;
    uint64_t writes_routed = 0;
    uint64_t failovers = 0;       ///< per-candidate retries on reads
    uint64_t no_replica = 0;      ///< 503s: every candidate failed
    uint64_t trace_records = 0;
    size_t healthy_replicas = 0;
  };
  Stats stats() const;

  /// The GET /statz document: stats(), members with their health, and the
  /// per-graph epoch floors. HandleStatz serves it; the CLI's drain prints
  /// it.
  std::string StatzJson() const;

 private:
  struct Member {
    ClusterMember endpoint;
    std::atomic<bool> healthy{true};
  };

  server::HttpResponse HandleDecompose(const server::HttpRequest& request);
  server::HttpResponse HandleWrite(const server::HttpRequest& request);
  server::HttpResponse HandleListGraphs(const server::HttpRequest& request);
  server::HttpResponse HandleHealthz(const server::HttpRequest& request);
  server::HttpResponse HandleStatz(const server::HttpRequest& request);
  server::HttpResponse HandleMetrics(const server::HttpRequest& request);
  server::HttpResponse HandleRoute(const server::HttpRequest& request);

  /// Forwards to one member; false on transport failure (marks it down).
  bool Forward(Member& member, const server::HttpRequest& request,
               const std::vector<std::pair<std::string, std::string>>& headers,
               HttpClientResponse* upstream);

  uint64_t KnownMinEpoch(const std::string& graph) const;
  void ObserveEpoch(const std::string& graph, uint64_t epoch);

  void RecordTrace(const server::HttpRequest& request,
                   const std::string& request_id, bool read,
                   const std::string& graph, uint64_t epoch);

  void ProbeLoop();

  const RouterOptions options_;
  HashRing ring_;
  HttpClient client_;
  server::HttpServer server_;
  std::map<std::string, std::unique_ptr<Member>> members_;
  obs::ClientTraceLog trace_log_;

  mutable std::mutex epochs_mu_;
  std::map<std::string, uint64_t> epochs_;  ///< per-graph monotonic floor

  std::thread prober_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> rr_{0};  ///< round-robin cursor over holders

  /// Instruments of server_.metrics().
  obs::Counter* const reads_routed_;
  obs::Counter* const writes_routed_;
  obs::Counter* const failovers_;
  obs::Counter* const no_replica_;
};

}  // namespace receipt::cluster

#endif  // RECEIPT_CLUSTER_ROUTER_H_
