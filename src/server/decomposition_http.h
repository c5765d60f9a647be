#ifndef RECEIPT_SERVER_DECOMPOSITION_HTTP_H_
#define RECEIPT_SERVER_DECOMPOSITION_HTTP_H_

#include <array>
#include <cstdint>
#include <string>

#include "obs/observability.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"

namespace receipt::server {

/// The JSON endpoint surface over GraphRegistry + DecompositionService —
/// the piece that turns the in-process serving layer into a network
/// service. Registers its routes on an HttpServer; the caller owns all
/// three objects and starts/stops the server (stop the HTTP server first,
/// then shut the service down, so draining handlers can still resolve
/// their futures).
///
///   POST /v1/decompose   run (or cache-serve) a decomposition
///   GET  /v1/graphs      list resident graphs
///   POST /v1/graphs      register/load a graph (re-register bumps epoch)
///   POST /v1/graphs/{name}/edges
///                        buffer an edge-update batch against a live graph;
///                        seals (recompute + epoch bump) per the
///                        service's live policy or an explicit "seal":true
///   GET  /healthz        liveness
///   GET  /statz          queue depth, cache hit rate, worker utilization
///   GET  /metrics        Prometheus text exposition of every instrument:
///                        the service's registry (a cluster node's
///                        receipt_cluster_* included), then the server's
///                        receipt_transport_* families
///   GET  /v1/traces      recent spans from the trace ring (?limit=N)
///   GET  /v1/traces/{id} all spans of one trace, oldest first
///
/// Every /v1/decompose request gets a trace id — minted here, or accepted
/// from an X-Request-Id header — that is echoed in the response (header and
/// body) and keys the spans recorded across transport parse, queue wait and
/// the engine phases. The service's Observability bundle is the single sink.
///
/// Admission control: a full service queue turns into HTTP 429 (ticketed
/// non-blocking submit — handler threads never block on backpressure), and
/// a client that disconnects mid-decomposition abandons its ticket, which
/// cancels the engine run through PeelControl once no coalesced twin still
/// wants the result.
class DecompositionHttpFrontend {
 public:
  /// `register_routes` false skips route registration: a wrapper (the
  /// cluster node) installs its own cluster-aware routes and delegates to
  /// the public handlers below for everything it serves locally.
  DecompositionHttpFrontend(service::GraphRegistry& registry,
                            service::DecompositionService& service,
                            HttpServer& server, bool register_routes = true);

  // Handlers are public so a wrapping route table can reuse them verbatim.
  HttpResponse HandleDecompose(const HttpRequest& request);
  HttpResponse HandleListGraphs(const HttpRequest& request);
  HttpResponse HandleRegisterGraph(const HttpRequest& request);
  /// `applied` (optional) receives the ApplyResult, including the journal
  /// records the batch committed — what a shard owner replicates.
  HttpResponse HandleGraphEdges(const HttpRequest& request,
                                service::ApplyResult* applied = nullptr);
  HttpResponse HandleAdminSnapshot(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleStatz(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleTraces(const HttpRequest& request);
  HttpResponse HandleTraceById(const HttpRequest& request);

  /// The /statz document. HandleStatz serves it; a caller that renders it
  /// directly (the CLI's drain summary) counts no HTTP request.
  std::string StatzJson() const;

  /// Reads of the frontend's registry instruments: decompose_requests is
  /// receipt_http_requests_total{path="/v1/decompose"}, the rest are
  /// receipt_http_<field>_total.
  struct Stats {
    uint64_t decompose_requests = 0;
    uint64_t rejected_busy = 0;       ///< 429s from queue admission
    uint64_t disconnect_cancels = 0;  ///< tickets abandoned on disconnect
    uint64_t graphs_registered = 0;
    uint64_t edge_batches = 0;  ///< /v1/graphs/{name}/edges batches accepted
    uint64_t snapshots_taken = 0;  ///< /v1/admin/snapshot graph snapshots
  };
  Stats stats() const;

 private:
  /// The routes counted in receipt_http_requests_total, one path label
  /// each (both /v1/graphs methods share one).
  enum Route : size_t {
    kDecompose,
    kGraphs,
    kGraphEdges,
    kAdminSnapshot,
    kHealthz,
    kStatz,
    kMetrics,
    kTraces,
    kTraceById,
    kNumRoutes
  };
  void CountHttpRequest(Route route) { requests_[route]->Increment(); }

  service::GraphRegistry* registry_;
  service::DecompositionService* service_;
  HttpServer* server_;
  obs::Observability* obs_;
  obs::Histogram* http_request_seconds_;

  /// Resolved once at construction, so every path renders from the start.
  std::array<obs::Counter*, kNumRoutes> requests_;
  obs::Counter* rejected_busy_;
  obs::Counter* disconnect_cancels_;
  obs::Counter* graphs_registered_;
  obs::Counter* edge_batches_;
  obs::Counter* snapshots_taken_;
};

}  // namespace receipt::server

#endif  // RECEIPT_SERVER_DECOMPOSITION_HTTP_H_
