// Router micro-benchmark: the per-request overhead the cluster router
// adds on top of a replica answering a cache-hit decompose. The router is
// one extra loopback HTTP hop (parse, ring lookup, forward, relay), so
// its tax must stay small against the sub-millisecond cache-hit path it
// fronts — this bench keeps that visible and gated.
//
// Gate (exit non-zero on violation): mean routed latency may exceed mean
// direct latency by at most a fixed 1ms budget, and the routed responses
// must be byte-identical in their decomposition numbers to the direct
// ones (the router relays, never rewrites). The graph has 8,000 U
// vertices, so each answer carries 8,000 tip numbers: a router that
// parsed the relayed body to learn its epoch would spend about that
// budget on the parse alone.
//
// `--json <path>` emits both latency profiles as a BENCH_router_micro
// trajectory file. Plain executable: wall-clock means over hundreds of
// loopback requests are stable enough without a harness.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/http_client.h"
#include "cluster/node.h"
#include "cluster/router.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "util/timer.h"

namespace receipt::bench {
namespace {

constexpr size_t kWarmup = 20;
constexpr size_t kRequests = 300;
constexpr double kOverheadBudgetSeconds = 1e-3;

constexpr const char* kDecomposeBody =
    "{\"graph\":\"g\",\"kind\":\"tip-U\",\"partitions\":8}";

struct LatencyRun {
  double mean_seconds = 0.0;
  double total_seconds = 0.0;
  std::string last_body;
};

bool DriveDecomposes(const cluster::HttpClient& client, uint16_t port,
                     size_t count, LatencyRun* run) {
  WallTimer timer;
  for (size_t i = 0; i < count; ++i) {
    cluster::HttpClientResponse response;
    std::string error;
    if (!client.Post("127.0.0.1", port, "/v1/decompose", kDecomposeBody, {},
                     &response, &error) ||
        response.status != 200) {
      std::fprintf(stderr, "decompose %zu via :%u failed: %s (HTTP %d)\n", i,
                   port, error.c_str(), response.status);
      return false;
    }
    run->last_body = std::move(response.body);
  }
  run->total_seconds = timer.Seconds();
  run->mean_seconds = run->total_seconds / static_cast<double>(count);
  return true;
}

int Main(int argc, char** argv) {
  const std::string json_path = ConsumeJsonFlag(&argc, argv);
  PrintHeader(
      "router micro-bench — per-request overhead of the cluster router on "
      "cache-hit decomposes");

  std::string root = "/tmp/receipt_bench_routerXXXXXX";
  if (::mkdtemp(root.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  // A single self-owning replica behind the router: the bench measures
  // the hop, not replication, so replication_factor is 1.
  service::GraphRegistry registry;
  service::ServiceOptions service_options;
  service_options.num_workers = 2;
  service::DecompositionService service(registry, service_options);
  server::HttpServerOptions http_options;
  http_options.port = 0;
  server::HttpServer http_server(http_options);
  server::DecompositionHttpFrontend frontend(registry, service, http_server,
                                             /*register_routes=*/false);
  cluster::ClusterNodeOptions node_options;
  node_options.self_id = "a";
  node_options.members = {{"a", "127.0.0.1", 0}};
  node_options.replication_factor = 1;
  cluster::ClusterNode node(node_options, registry, service, frontend,
                            http_server);
  std::string error;
  if (!http_server.Start(&error)) {
    std::fprintf(stderr, "replica start: %s\n", error.c_str());
    return 1;
  }
  node.SetMemberEndpoint("a", "127.0.0.1", http_server.port());

  if (service.RegisterGraph("g", RandomBipartite(8000, 500, 48000, /*seed=*/3),
                            nullptr, &error) != service::Status::kOk) {
    std::fprintf(stderr, "register: %s\n", error.c_str());
    return 1;
  }

  cluster::RouterOptions router_options;
  router_options.replication_factor = 1;
  router_options.health_interval_ms = 0;
  cluster::Router router({{"a", "127.0.0.1", http_server.port()}},
                         router_options);
  if (!router.Start(&error)) {
    std::fprintf(stderr, "router start: %s\n", error.c_str());
    return 1;
  }

  const cluster::HttpClient client(2000);
  bool ok = true;
  LatencyRun direct;
  LatencyRun routed;
  LatencyRun warm;
  // Warm-up populates the result cache (first request runs the engine) and
  // the page tables on both paths; everything measured after is cache-hit.
  ok = ok && DriveDecomposes(client, http_server.port(), kWarmup, &warm);
  ok = ok && DriveDecomposes(client, router.port(), kWarmup, &warm);
  ok = ok && DriveDecomposes(client, http_server.port(), kRequests, &direct);
  ok = ok && DriveDecomposes(client, router.port(), kRequests, &routed);

  std::vector<JsonRecord> records;
  double overhead = 0.0;
  bool identical = false;
  if (ok) {
    overhead = routed.mean_seconds - direct.mean_seconds;
    // The router relays the replica's body untouched, so the numbers
    // arrays must match byte for byte.
    const auto numbers_of = [](const std::string& body) {
      const size_t start = body.find("\"numbers\"");
      return start == std::string::npos ? std::string() : body.substr(start);
    };
    identical = !direct.last_body.empty() &&
                numbers_of(direct.last_body) == numbers_of(routed.last_body);
    std::printf("direct  %4zu cache-hit decomposes  mean %8.1f us\n",
                kRequests, direct.mean_seconds * 1e6);
    std::printf("routed  %4zu cache-hit decomposes  mean %8.1f us\n",
                kRequests, routed.mean_seconds * 1e6);
    std::printf("router overhead: %+.1f us/request, numbers identical: %s\n",
                overhead * 1e6, identical ? "yes" : "NO");
    const cluster::Router::Stats stats = router.stats();
    JsonRecord record;
    record.name = "cache_hit_decompose";
    record.counters = {
        {"requests", kRequests},
        {"reads_routed", stats.reads_routed},
        {"failovers", stats.failovers},
    };
    record.values = {
        {"direct_mean_seconds", direct.mean_seconds},
        {"routed_mean_seconds", routed.mean_seconds},
        {"overhead_seconds", overhead},
    };
    records.push_back(std::move(record));
  }

  PrintRule();
  const bool within_budget = ok && overhead < kOverheadBudgetSeconds;
  std::printf("gate: router overhead %.1f us vs budget %.1f us — %s\n",
              overhead * 1e6, kOverheadBudgetSeconds * 1e6,
              within_budget ? "OK" : "FAILED");
  std::printf("gate: routed numbers bit-identical to direct — %s\n",
              identical ? "OK" : "FAILED");
  ok = ok && within_budget && identical;
  std::printf("verdict: %s\n", ok ? "OK" : "FAILED");

  if (!json_path.empty()) {
    if (!WriteBenchJson(json_path, "router_micro", records)) ok = false;
  }
  router.Stop();
  http_server.Stop();
  service.Shutdown(/*drain=*/true);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace receipt::bench

int main(int argc, char** argv) { return receipt::bench::Main(argc, argv); }
