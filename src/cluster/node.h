#ifndef RECEIPT_CLUSTER_NODE_H_
#define RECEIPT_CLUSTER_NODE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/http_client.h"
#include "obs/metrics.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"

namespace receipt::cluster {

struct ClusterMember {
  std::string id;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Parses "a=127.0.0.1:18201,b=127.0.0.1:18202" (host defaults to
/// 127.0.0.1 when "id=port" is given). False + `error` on malformed specs.
bool ParseClusterMembers(const std::string& spec,
                         std::vector<ClusterMember>* out, std::string* error);

struct ClusterNodeOptions {
  std::string self_id;
  std::vector<ClusterMember> members;
  /// Copies of each graph, owner included. Placement is the first
  /// `replication_factor` distinct members clockwise on the hash ring.
  size_t replication_factor = 2;
  /// True: a non-holder answers for the owner by proxying server-side.
  /// False: it answers 307 with a Location header and the client retries.
  bool proxy = true;
  int peer_timeout_ms = 5000;
};

/// One replica process of the sharded serving tier. Wraps the single-node
/// stack (registry + service + HTTP frontend) with cluster-aware routes:
///
///   reads   /v1/decompose is served locally whenever the graph is
///           resident (any holder — reads scale with the replication
///           factor), honoring X-Cluster-Min-Epoch: a replica whose chain
///           is behind answers 412 so the router can fail over without
///           ever serving a client a past epoch.
///   writes  /v1/graphs and /v1/graphs/{name}/edges are applied by the
///           shard owner (non-owners proxy or redirect). The owner
///           journals + applies locally first, then ships the journal
///           records it committed — the CRC-framed bytes its own journal
///           holds — to the other holders, which apply them through the
///           same LiveGraphManager::Apply at the owner's epochs. Epochs are
///           the replication token, so replica chains are identical by
///           construction; a follower whose chain diverged (it missed
///           records while down) answers 409 and is caught up with a
///           full-state sync.
///
/// Internal endpoints (replica-to-replica, same HTTP surface):
///   POST /v1/cluster/apply?threads=N&pending=P
///                  apply a body of journal frames (EncodeFrame bytes) in
///                  order; N is the seal's engine thread count. Damaged
///                  frames answer 400 and apply nothing. A batch or seal
///                  that does not continue the local chain answers 409: its
///                  epoch is not the local one, or the local pending buffer
///                  does not hold the P updates the owner's did before it.
///                  A registration fan-out and a 409 catch-up send the
///                  same body: a kRegister frame with the sealed edges,
///                  plus a kEdgeBatch frame with the pending buffer.
///   GET  /v1/cluster/info       membership, placement, resident graphs
///   GET  /v1/cluster/route?graph=g   owner + holders for one name
///
/// Crash/rejoin: followers journal the records they apply (Apply journals
/// before it mutates, like the local path), so a killed replica recovers
/// from its *own* --data-dir at its recorded (graph, epoch, pending
/// buffer) — no peer resync — and the next replicated write either chains
/// cleanly or triggers the 409 → sync catch-up.
class ClusterNode {
 public:
  /// Registers cluster routes on `server` (construct the frontend with
  /// register_routes=false). All referenced objects must outlive the node.
  ClusterNode(const ClusterNodeOptions& options,
              service::GraphRegistry& registry,
              service::DecompositionService& service,
              server::DecompositionHttpFrontend& frontend,
              server::HttpServer& server);

  /// Post-bind endpoint fix-up for ephemeral ports: tells this node where
  /// a member actually listens. Ring placement depends only on member
  /// *ids*, so updating an endpoint never moves ownership.
  void SetMemberEndpoint(const std::string& id, const std::string& host,
                         uint16_t port);

  const std::string& self_id() const { return options_.self_id; }
  bool IsOwner(const std::string& graph) const;
  /// Holder ids for `graph`, owner first.
  std::vector<std::string> HoldersOf(const std::string& graph) const;

  /// Reads of the node's instruments, receipt_cluster_<field>_total in
  /// the service's registry (so the replica's /metrics shows them).
  struct Stats {
    uint64_t local_reads = 0;        ///< decomposes served from this replica
    uint64_t proxied = 0;            ///< requests answered via a peer
    uint64_t redirected = 0;         ///< 307s answered (proxy=false)
    uint64_t stale_rejects = 0;      ///< 412s (behind X-Cluster-Min-Epoch)
    uint64_t replicated_out = 0;     ///< writes/registrations fanned out
    uint64_t replication_failures = 0;
    uint64_t chain_syncs = 0;        ///< full-state syncs sent after a 409
    uint64_t replicated_applies = 0; ///< /v1/cluster/apply bodies applied
  };
  Stats stats() const;

  /// The GET /v1/cluster/info document: identity, members, resident graphs
  /// and stats(). HandleInfo serves it; the CLI's drain prints it.
  std::string InfoJson() const;

 private:
  server::HttpResponse HandleDecompose(const server::HttpRequest& request);
  server::HttpResponse HandleRegister(const server::HttpRequest& request);
  server::HttpResponse HandleEdges(const server::HttpRequest& request);
  server::HttpResponse HandleClusterApply(const server::HttpRequest& request);
  server::HttpResponse HandleInfo(const server::HttpRequest& request);
  server::HttpResponse HandleRoute(const server::HttpRequest& request);

  /// Proxies `request` to `member` verbatim (plus propagated headers) or
  /// answers 307, per options_.proxy.
  server::HttpResponse ForwardToMember(const std::string& member_id,
                                       const server::HttpRequest& request);

  /// Posts journal `frames` to `member`'s /v1/cluster/apply?`query`.
  /// False on a transport failure or an unknown endpoint.
  bool PostFrames(const ClusterMember& member, const std::string& frames,
                  const std::string& query, HttpClientResponse* peer);

  /// Owner-side fan-out of journal frames to every other holder; a 409
  /// (diverged follower) triggers a full-state sync: the frames of
  /// LiveGraphManager::StateRecords, which a registration sends too.
  void Replicate(const std::string& name, const std::string& frames,
                 const std::string& query);

  ClusterMember MemberById(const std::string& id) const;

  const ClusterNodeOptions options_;
  service::GraphRegistry* registry_;
  service::DecompositionService* service_;
  server::DecompositionHttpFrontend* frontend_;
  HashRing ring_;
  HttpClient client_;

  mutable std::mutex members_mu_;  ///< guards endpoints of members_
  std::map<std::string, ClusterMember> members_;

  /// Serializes the owner-side write path (local apply + fan-out), so
  /// followers see batches in the owner's journal order.
  std::mutex write_mu_;

  obs::Counter* const local_reads_;
  obs::Counter* const proxied_;
  obs::Counter* const redirected_;
  obs::Counter* const stale_rejects_;
  obs::Counter* const replicated_out_;
  obs::Counter* const replication_failures_;
  obs::Counter* const chain_syncs_;
  obs::Counter* const replicated_applies_;
};

}  // namespace receipt::cluster

#endif  // RECEIPT_CLUSTER_NODE_H_
