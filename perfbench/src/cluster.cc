#include "cluster.h"

#include <filesystem>

#include "durability/manager.h"
#include "util/timer.h"

namespace perfbench {

namespace rc = receipt::cluster;
namespace rs = receipt::service;

Cluster::Cluster(std::string data_root) : data_root_(std::move(data_root)) {}

Cluster::~Cluster() { Stop(); }

const std::vector<std::string>& Cluster::MemberIds() {
  static const std::vector<std::string> ids = {"a", "b", "c"};
  return ids;
}

bool Cluster::Start(std::string* error) {
  for (const std::string& id : MemberIds()) {
    Replica& replica = replicas_[id];
    const std::string data_dir = data_root_ + "/" + id;
    std::filesystem::create_directories(data_dir);
    replica.registry = std::make_unique<rs::GraphRegistry>();
    rs::ServiceOptions service_options;
    service_options.num_workers = kWorkers;
    service_options.data_dir = data_dir;
    service_options.durability_fsync =
        receipt::durability::FsyncPolicy::kAlways;
    replica.service = std::make_unique<rs::DecompositionService>(
        *replica.registry, service_options);
    if (!replica.service->durability_error().empty()) {
      *error = "replica " + id + ": " + replica.service->durability_error();
      return false;
    }
    receipt::server::HttpServerOptions http_options;
    http_options.port = 0;
    http_options.num_threads = kHttpThreads;
    replica.server =
        std::make_unique<receipt::server::HttpServer>(http_options);
    replica.frontend =
        std::make_unique<receipt::server::DecompositionHttpFrontend>(
            *replica.registry, *replica.service, *replica.server,
            /*register_routes=*/false);
    rc::ClusterNodeOptions node_options;
    node_options.self_id = id;
    for (const std::string& member : MemberIds()) {
      node_options.members.push_back({member, "127.0.0.1", 0});
    }
    node_options.replication_factor = kReplication;
    replica.node = std::make_unique<rc::ClusterNode>(
        node_options, *replica.registry, *replica.service, *replica.frontend,
        *replica.server);
    if (!replica.server->Start(error)) return false;
  }
  std::vector<rc::ClusterMember> members;
  for (const std::string& id : MemberIds()) {
    members.push_back({id, "127.0.0.1", port_of(id)});
    for (auto& [peer_id, replica] : replicas_) {
      replica.node->SetMemberEndpoint(id, "127.0.0.1", port_of(id));
    }
  }
  rc::RouterOptions router_options;
  router_options.replication_factor = kReplication;
  router_ = std::make_unique<rc::Router>(members, router_options);
  return router_->Start(error);
}

void Cluster::Stop() {
  if (router_ != nullptr) router_->Stop();
  router_.reset();
  // Same order as the server binary: HTTP first, then the node and
  // frontend that its handlers use, then a draining service shutdown.
  for (auto& [id, replica] : replicas_) {
    if (replica.server != nullptr) replica.server->Stop();
    replica.node.reset();
    replica.frontend.reset();
    if (replica.service != nullptr) replica.service->Shutdown(/*drain=*/true);
    replica.service.reset();
    replica.server.reset();
    replica.registry.reset();
  }
  replicas_.clear();
}

uint16_t Cluster::router_port() const { return router_->port(); }

uint16_t Cluster::port_of(const std::string& member) const {
  return replicas_.at(member).server->port();
}

std::vector<std::string> Cluster::HoldersOf(const std::string& graph) const {
  return replicas_.begin()->second.node->HoldersOf(graph);
}

rs::DecompositionService& Cluster::service_of(const std::string& member) {
  return *replicas_.at(member).service;
}

LayerCounters Cluster::Counters() {
  LayerCounters c;
  const rc::Router::Stats router = router_->stats();
  c.router_failovers = static_cast<double>(router.failovers);
  c.router_no_replica = static_cast<double>(router.no_replica);
  for (auto& [id, replica] : replicas_) {
    const rs::ResultCache::Stats cache = replica.service->cache_stats();
    c.cache_hits += static_cast<double>(cache.hits);
    c.cache_misses += static_cast<double>(cache.misses);
    c.engine_runs += static_cast<double>(replica.service->stats().engine_runs);
    const receipt::obs::Histogram* wait =
        replica.service->queue_wait_histogram();
    c.queue_waits += static_cast<double>(wait->Count());
    c.queue_wait_s += wait->SumSeconds();
    const rs::LiveGraphManager::Stats live = replica.service->live().stats();
    c.seals_incremental += static_cast<double>(live.runs_incremental);
    c.seals_full += static_cast<double>(live.runs_full);
    c.ranges_reused += static_cast<double>(live.ranges_reused);
    c.ranges_repeeled += static_cast<double>(live.ranges_repeeled);
    if (receipt::durability::DurabilityManager* durability =
            replica.service->durability()) {
      const receipt::durability::DurabilityStats d = durability->stats();
      c.journal_appends += static_cast<double>(d.journal.appends);
      c.journal_fsyncs += static_cast<double>(d.journal.fsyncs);
      c.journal_bytes += static_cast<double>(d.journal.bytes_written);
      c.snapshots += static_cast<double>(d.snapshots_written);
    }
    const rc::ClusterNode::Stats node = replica.node->stats();
    c.replicated_out += static_cast<double>(node.replicated_out);
    c.replication_failures += static_cast<double>(node.replication_failures);
    c.chain_syncs += static_cast<double>(node.chain_syncs);
    c.stale_rejects += static_cast<double>(node.stale_rejects);
  }
  return c;
}

Exchange Post(uint16_t port, const std::string& path, const std::string& body,
              const std::vector<std::pair<std::string, std::string>>&
                  headers) {
  static const rc::HttpClient client(/*timeout_ms=*/30000);
  Exchange exchange;
  const receipt::WallTimer timer;
  const bool sent = client.Post("127.0.0.1", port, path, body, headers,
                                &exchange.response, &exchange.error);
  exchange.ms = timer.Seconds() * 1e3;
  exchange.status = exchange.response.status;
  exchange.ok = sent && exchange.status == 200;
  if (sent && !exchange.ok) exchange.error = exchange.response.body;
  return exchange;
}

}  // namespace perfbench
