#ifndef RECEIPT_PERFBENCH_CLUSTER_H_
#define RECEIPT_PERFBENCH_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"

namespace perfbench {

/// Pool sizes and policies of the benchmark cluster (also recorded in
/// ../README.md and manifest.json).
inline constexpr size_t kReplication = 2;
inline constexpr int kHttpThreads = 2;
inline constexpr int kWorkers = 1;

/// Sums of the public stats() accessors over every replica and the router
/// at one instant; the traced runs report deltas of these.
struct LayerCounters {
  double router_failovers = 0;
  double router_no_replica = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double engine_runs = 0;
  double queue_waits = 0;
  double queue_wait_s = 0;
  double seals_incremental = 0;
  double seals_full = 0;
  double ranges_reused = 0;
  double ranges_repeeled = 0;
  double journal_appends = 0;
  double journal_fsyncs = 0;
  double journal_bytes = 0;
  double snapshots = 0;
  double replicated_out = 0;
  double replication_failures = 0;
  double chain_syncs = 0;
  double stale_rejects = 0;
};

/// Three durable in-process replicas (fsync "always") behind an in-process
/// Router, every server on an ephemeral loopback port.
class Cluster {
 public:
  explicit Cluster(std::string data_root);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool Start(std::string* error);
  /// Stops the router, then every replica. Idempotent.
  void Stop();

  uint16_t router_port() const;
  uint16_t port_of(const std::string& member) const;
  /// Holder ids of `graph`, owner first.
  std::vector<std::string> HoldersOf(const std::string& graph) const;
  receipt::service::DecompositionService& service_of(
      const std::string& member);
  LayerCounters Counters();

  static const std::vector<std::string>& MemberIds();

 private:
  struct Replica {
    std::unique_ptr<receipt::service::GraphRegistry> registry;
    std::unique_ptr<receipt::service::DecompositionService> service;
    std::unique_ptr<receipt::server::HttpServer> server;
    std::unique_ptr<receipt::server::DecompositionHttpFrontend> frontend;
    std::unique_ptr<receipt::cluster::ClusterNode> node;
  };

  std::string data_root_;
  std::map<std::string, Replica> replicas_;
  std::unique_ptr<receipt::cluster::Router> router_;
};

/// One HTTP exchange as a client sees it.
struct Exchange {
  bool ok = false;  ///< transport succeeded and status was 200
  int status = 0;
  double ms = 0;
  receipt::cluster::HttpClientResponse response;
  std::string error;
};

/// A timed POST to a loopback port.
Exchange Post(uint16_t port, const std::string& path, const std::string& body,
              const std::vector<std::pair<std::string, std::string>>&
                  headers = {});

}  // namespace perfbench

#endif  // RECEIPT_PERFBENCH_CLUSTER_H_
