// Tests for the HTTP front-end: a raw loopback client drives the real
// POSIX-socket server end to end — happy-path decompositions bit-identical
// to the direct drivers, queue-admission 429s, malformed-body 400s,
// disconnect-triggered cancellation, graceful shutdown draining, the
// healthz/statz introspection endpoints, and the agreement of every
// serving component's stats() with /metrics and /statz.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "server/decomposition_http.h"
#include "server/http_helpers.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "tip/receipt.h"
#include "util/json.h"
#include "wing/wing_decomposition.h"

namespace receipt::server {
namespace {

using service::DecompositionService;
using service::GraphRegistry;
using service::ServiceOptions;

BipartiteGraph G1() { return ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 101); }
BipartiteGraph G2() { return ChungLuBipartite(220, 260, 1200, 0.5, 0.8, 202); }

struct ClientResult {
  int status = 0;
  std::string headers;  ///< raw header block, names as the server wrote them
  std::string body;
};

/// The value of header `name` in a raw header block; "" when absent.
std::string HeaderValue(const std::string& headers, const std::string& name) {
  const std::string key = "\r\n" + name + ": ";
  const size_t at = headers.find(key);
  if (at == std::string::npos) return "";
  const size_t start = at + key.size();
  return headers.substr(start, headers.find("\r\n", start) - start);
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// Sends one fully-formed request on an already-connected socket.
void SendOnSocket(int fd, const std::string& method, const std::string& path,
                  const std::string& body,
                  const std::string& extra_headers = "") {
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\n" + extra_headers +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
}

/// Opens a loopback connection and sends one request that asks the server
/// to close afterwards (so EOF-delimited reads stay fast under the
/// keep-alive default). Returns the connected socket (caller closes).
int SendRequest(uint16_t port, const std::string& method,
                const std::string& path, const std::string& body) {
  const int fd = ConnectLoopback(port);
  SendOnSocket(fd, method, path, body, "Connection: close\r\n");
  return fd;
}

/// Reads the full response (the request asked the server to close).
ClientResult ReadResponse(int fd) {
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ClientResult result;
  // "HTTP/1.1 NNN Reason\r\n..."
  if (raw.size() > 12) result.status = std::atoi(raw.c_str() + 9);
  const size_t body_start = raw.find("\r\n\r\n");
  if (body_start != std::string::npos) {
    result.headers = raw.substr(0, body_start);
    result.body = raw.substr(body_start + 4);
  }
  return result;
}

struct FramedResult {
  int status = 0;
  std::string headers;  ///< raw header block, lower-case comparisons ok
  std::string body;
  bool complete = false;  ///< false when the connection closed mid-read
};

/// Reads exactly one Content-Length-framed response, leaving the connection
/// open — the client side of keep-alive. `carry` holds bytes of the next
/// response that arrived in the same recv (pass the same string across
/// calls when responses may be pipelined).
FramedResult ReadFramedResponse(int fd, std::string* carry = nullptr) {
  FramedResult result;
  std::string local;
  std::string& raw = carry != nullptr ? *carry : local;
  char chunk[4096];
  size_t header_end = std::string::npos;
  while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return result;
    raw.append(chunk, static_cast<size_t>(n));
  }
  result.status = std::atoi(raw.c_str() + 9);
  result.headers = raw.substr(0, header_end);
  const size_t length_at = result.headers.find("Content-Length: ");
  if (length_at == std::string::npos) return result;
  const size_t content_length = static_cast<size_t>(
      std::atoll(result.headers.c_str() + length_at + 16));
  while (raw.size() - header_end - 4 < content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return result;
    raw.append(chunk, static_cast<size_t>(n));
  }
  result.body = raw.substr(header_end + 4, content_length);
  raw.erase(0, header_end + 4 + content_length);
  result.complete = true;
  return result;
}

ClientResult Fetch(uint16_t port, const std::string& method,
                   const std::string& path, const std::string& body = "") {
  const int fd = SendRequest(port, method, path, body);
  ClientResult result = ReadResponse(fd);
  ::close(fd);
  return result;
}

util::JsonValue ParseBody(const ClientResult& result) {
  std::string error;
  auto json = util::JsonValue::Parse(result.body, &error);
  EXPECT_TRUE(json.has_value()) << error << "\nbody: " << result.body;
  return json.value_or(util::JsonValue());
}

std::vector<Count> NumbersFrom(const util::JsonValue& json) {
  std::vector<Count> numbers;
  const util::JsonValue* array = json.Find("numbers");
  EXPECT_NE(array, nullptr);
  if (array == nullptr) return numbers;
  for (const util::JsonValue& item : array->Items()) {
    numbers.push_back(item.AsUint());
  }
  return numbers;
}

/// Everything a serving test needs, wired and started on an ephemeral port.
struct TestServer {
  explicit TestServer(const ServiceOptions& service_options = {},
                      int http_threads = 4,
                      HttpServerOptions http_options = {})
      : service(registry, service_options) {
    HttpServerOptions options = http_options;
    options.num_threads = http_threads;
    server = std::make_unique<HttpServer>(options);
    frontend =
        std::make_unique<DecompositionHttpFrontend>(registry, service, *server);
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
  }
  ~TestServer() {
    server->Stop();
    service.Shutdown();
  }
  uint16_t port() const { return server->port(); }

  GraphRegistry registry;
  DecompositionService service;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<DecompositionHttpFrontend> frontend;
};

TEST(HttpServerTest, DecomposeMatchesDirectDriverBitIdentically) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult result = Fetch(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",)"
      R"( "partitions": 6, "threads": 2})");
  ASSERT_EQ(result.status, 200);
  const util::JsonValue json = ParseBody(result);
  std::string status;
  ASSERT_TRUE(json.GetString("status", &status));
  EXPECT_EQ(status, "ok");

  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  const std::vector<Count> expected =
      ReceiptDecompose(G1(), direct).tip_numbers;
  EXPECT_EQ(NumbersFrom(json), expected);

  // The stats object rides along with real counters.
  const util::JsonValue* stats = json.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->Find("wedges_counting"), nullptr);
}

TEST(HttpServerTest, WingDecomposeMatchesDirectDriver) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult result =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g1", "kind": "wing", "algo": "WING-BUP"})");
  ASSERT_EQ(result.status, 200);
  const std::vector<Count> expected = WingDecompose(G1(), 1).wing_numbers;
  EXPECT_EQ(NumbersFrom(ParseBody(result)), expected);
}

TEST(HttpServerTest, RegisterListAndEpochBump) {
  TestServer ts;
  const std::string path = testing::TempDir() + "/http_g1.konect";
  ASSERT_TRUE(SaveKonect(G1(), path));

  const ClientResult first =
      Fetch(ts.port(), "POST", "/v1/graphs",
            R"({"name": "g", "path": ")" + path + R"("})");
  ASSERT_EQ(first.status, 200);
  const util::JsonValue first_json = ParseBody(first);
  const util::JsonValue* epoch1 = first_json.Find("epoch");
  ASSERT_NE(epoch1, nullptr);

  // Re-registering the same name must install a fresh, higher epoch.
  const ClientResult second =
      Fetch(ts.port(), "POST", "/v1/graphs",
            R"({"name": "g", "path": ")" + path + R"("})");
  ASSERT_EQ(second.status, 200);
  const util::JsonValue second_json = ParseBody(second);
  EXPECT_GT(second_json.Find("epoch")->AsUint(), epoch1->AsUint());

  const ClientResult list = Fetch(ts.port(), "GET", "/v1/graphs");
  ASSERT_EQ(list.status, 200);
  const util::JsonValue list_json = ParseBody(list);
  const util::JsonValue* graphs = list_json.Find("graphs");
  ASSERT_NE(graphs, nullptr);
  ASSERT_EQ(graphs->Items().size(), 1u);
  std::string name;
  EXPECT_TRUE(graphs->Items()[0].GetString("name", &name));
  EXPECT_EQ(name, "g");
  EXPECT_EQ(graphs->Items()[0].Find("num_u")->AsUint(), G1().num_u());
}

TEST(HttpServerTest, BadRequestsGetFourHundreds) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  // Malformed JSON body.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", "{not json").status,
            400);
  // Valid JSON, missing required field.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", R"({"kind":"tip-U"})")
                .status,
            400);
  // Unknown enum value.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph":"g1","kind":"edge"})")
                .status,
            400);
  // Kind/algorithm mismatch is the service's kBadRequest.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph":"g1","kind":"wing","algo":"RECEIPT"})")
                .status,
            400);
  // Unknown graph → 404, as is an unknown route.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", R"({"graph":"nope"})")
                .status,
            404);
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v2/decompose").status, 404);
  // Known path, wrong method.
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/decompose").status, 405);
}

TEST(HttpServerTest, FullQueueRejectsWith429) {
  // No workers and a single queue slot: the first request parks in the
  // queue, the second must be turned away at admission.
  ServiceOptions options;
  options.num_workers = 0;
  options.queue_capacity = 1;
  options.cache_bytes = 0;
  TestServer ts(options);
  ts.registry.Register("g1", G1());
  ts.registry.Register("g2", G2());

  std::thread first_client([&] {
    const ClientResult result =
        Fetch(ts.port(), "POST", "/v1/decompose",
              R"({"graph": "g1", "kind": "tip-U", "algo": "BUP"})");
    EXPECT_EQ(result.status, 200);
  });
  // Wait until the first request occupies the queue slot.
  while (ts.service.QueueDepth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const ClientResult rejected =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g2", "kind": "tip-U", "algo": "BUP"})");
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(ts.frontend->stats().rejected_busy, 1u);

  // Drain the queue so the parked client resolves.
  ts.service.RunQueuedInline();
  first_client.join();
}

TEST(HttpServerTest, ClientDisconnectCancelsTheRun) {
  ServiceOptions options;
  options.num_workers = 0;  // keep the request queued while we vanish
  options.cache_bytes = 0;
  TestServer ts(options);
  ts.registry.Register("g1", G1());

  const int fd = SendRequest(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})");
  // Wait for the handler to pick the request up and queue it, then vanish.
  while (ts.service.QueueDepth() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(fd);

  // The handler's disconnect poll abandons the ticket, which cancels the
  // queued task's PeelControl (no coalesced twin holds it alive).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ts.service.stats().abandoned < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "handler never noticed the disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(ts.frontend->stats().disconnect_cancels, 1u);

  // Executing the queue now resolves the task as cancelled without an
  // engine run.
  ts.service.RunQueuedInline();
  EXPECT_EQ(ts.service.stats().cancelled, 1u);
  EXPECT_EQ(ts.service.stats().engine_runs, 0u);
}

TEST(HttpServerTest, GracefulShutdownDrainsInFlightRequests) {
  ServiceOptions options;
  options.num_workers = 1;
  TestServer ts(options);
  ts.registry.Register("g1", G1());

  std::thread client([&] {
    const ClientResult result = Fetch(
        ts.port(), "POST", "/v1/decompose",
        R"({"graph": "g1", "kind": "tip-V", "algo": "RECEIPT",)"
        R"( "partitions": 6, "threads": 2})");
    // The response must arrive complete despite Stop() racing the run.
    EXPECT_EQ(result.status, 200);
    std::string status;
    EXPECT_TRUE(ParseBody(result).GetString("status", &status));
    EXPECT_EQ(status, "ok");
  });
  // Let the request reach the service before stopping.
  while (ts.service.stats().submitted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts.server->Stop();  // drains: joins handlers only after responses are out
  client.join();

  // Post-shutdown connections are refused — the listener is gone.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

TEST(HttpServerTest, TransportRejectsMalformedFraming) {
  TestServer ts;
  auto raw = [&](const std::string& request, bool half_close = false) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ts.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    // half_close: signal EOF to the server while still reading the
    // response, so truncated requests fail fast instead of timing out.
    if (half_close) ::shutdown(fd, SHUT_WR);
    ClientResult result = ReadResponse(fd);
    ::close(fd);
    return result;
  };

  // Negative / overflowing / non-numeric Content-Length: a malformed
  // header (400), never misread as an oversized body (413).
  for (const char* length : {"-1", "18446744073709551616", "12abc", ""}) {
    const ClientResult result =
        raw("GET /healthz HTTP/1.1\r\nContent-Length: " +
            std::string(length) + "\r\n\r\n");
    EXPECT_EQ(result.status, 400) << "Content-Length: " << length;
  }
  // Garbage request line.
  EXPECT_EQ(raw("NOT-HTTP\r\n\r\n").status, 400);
  // Client hangs up with the body short of Content-Length.
  const ClientResult truncated = raw(
      "POST /v1/decompose HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"gr",
      /*half_close=*/true);
  EXPECT_EQ(truncated.status, 400);
}

TEST(HttpServerTest, HealthzAndStatzReportServingState) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult health = Fetch(ts.port(), "GET", "/healthz");
  ASSERT_EQ(health.status, 200);
  std::string status;
  ASSERT_TRUE(ParseBody(health).GetString("status", &status));
  EXPECT_EQ(status, "ok");

  // Two identical decompositions: the second must be a cache hit, and
  // /statz must reflect it.
  const std::string body =
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})";
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", body).status, 200);
  const ClientResult repeat = Fetch(ts.port(), "POST", "/v1/decompose", body);
  EXPECT_EQ(repeat.status, 200);
  EXPECT_TRUE(ParseBody(repeat).Find("cache_hit")->AsBool());

  const ClientResult statz = Fetch(ts.port(), "GET", "/statz");
  ASSERT_EQ(statz.status, 200);
  const util::JsonValue json = ParseBody(statz);
  const util::JsonValue* queue = json.Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->Find("capacity")->AsUint(), ts.service.queue_capacity());
  const util::JsonValue* requests = json.Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("engine_runs")->AsUint(), 1u);
  EXPECT_GE(requests->Find("cache_hits")->AsUint(), 1u);
  const util::JsonValue* cache = json.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->Find("hit_rate")->AsDouble(), 0.0);
  const util::JsonValue* workers = json.Find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->Find("total")->AsUint(), 2u);
}

// Once Shutdown has joined the workers none of them is busy: the drained
// /statz (the document `serve` prints on exit) reads idle == total.
TEST(HttpServerTest, StatzAfterShutdownReportsNoBusyWorker) {
  TestServer ts;
  ts.registry.Register("g1", G1());
  ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})")
                .status,
            200);
  ts.server->Stop();
  ts.service.Shutdown(/*drain=*/true);

  std::string error;
  const auto statz = util::JsonValue::Parse(ts.frontend->StatzJson(), &error);
  ASSERT_TRUE(statz.has_value()) << error;
  const util::JsonValue* workers = statz->Find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->Find("total")->AsUint(), 2u);
  EXPECT_EQ(workers->Find("idle")->AsUint(), 2u);
  EXPECT_EQ(workers->Find("busy")->AsUint(), 0u);
}

/// The value of one `name` sample in a Prometheus exposition.
uint64_t MetricSample(const std::string& text, const std::string& name) {
  const size_t pos = text.find("\n" + name + " ");
  EXPECT_NE(pos, std::string::npos) << "missing sample: " << name;
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + name.size() + 2, nullptr, 10);
}

/// Polls `done` until it holds; fails the test after ten seconds.
void WaitFor(const std::function<bool()>& done, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// Each serving event is counted once, in a registry: every stats() field
// of the service, the cache, the live manager, the durability layer, the
// HTTP front-end and the HTTP server equals its /metrics sample and its
// /statz key after a run that takes every counted path.
TEST(HttpServerTest, StatsMetricsAndStatzAgree) {
  char dir_template[] = "/tmp/receipt_http_agree_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string graph_file = dir + "/g.konect";
  ASSERT_TRUE(SaveKonect(G1(), graph_file));

  ServiceOptions options;
  options.num_workers = 0;  // the test decides when queued work runs
  options.queue_capacity = 1;
  options.data_dir = dir + "/data";
  {
    TestServer ts(options);
    ASSERT_TRUE(ts.service.durable()) << ts.service.durability_error();
    ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/graphs",
                    R"({"name": "g", "path": ")" + graph_file + R"("})")
                  .status,
              200);

    // A miss and a coalesced twin: both wait on one queued run.
    const std::string tip_u = R"({"graph": "g", "kind": "tip-U", )"
                              R"("algo": "RECEIPT", "partitions": 6})";
    std::thread miss([&] {
      EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", tip_u).status, 200);
    });
    WaitFor([&] { return ts.service.QueueDepth() == 1; }, "miss never queued");
    std::thread twin([&] {
      EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", tip_u).status, 200);
    });
    WaitFor([&] { return ts.service.stats().coalesced == 1; },
            "twin never coalesced");
    ts.service.RunQueuedInline();
    miss.join();
    twin.join();
    // A hit.
    ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/decompose", tip_u).status, 200);

    // A client that vanishes while its request holds the only queue slot,
    // and a 429 for the request behind it.
    const int vanishing =
        SendRequest(ts.port(), "POST", "/v1/decompose",
                    R"({"graph": "g", "kind": "tip-V", "algo": "BUP"})");
    WaitFor([&] { return ts.service.QueueDepth() == 1; },
            "vanishing request never queued");
    EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                    R"({"graph": "g", "kind": "tip-U", "algo": "BUP"})")
                  .status,
              429);
    ::close(vanishing);
    WaitFor([&] { return ts.service.stats().abandoned == 1; },
            "disconnect never noticed");
    ts.service.RunQueuedInline();

    // An edge batch that starts tracking, a sealing batch, an admin
    // snapshot.
    ASSERT_EQ(
        Fetch(ts.port(), "POST", "/v1/graphs/g/edges",
              R"({"edges": [{"op": "insert", "u": 1, "v": 2}],
                  "track": [{"kind": "tip-U", "partitions": 6}]})")
            .status,
        200);
    ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/graphs/g/edges",
                    R"({"edges": [{"op": "delete", "u": 0, "v": 0}],
                        "seal": true})")
                  .status,
              200);
    ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/admin/snapshot", "").status,
              200);

    // Transport-only paths: a malformed request, an unknown path, and a
    // kept-alive connection that serves two requests.
    const int malformed = ConnectLoopback(ts.port());
    const std::string garbage = "BOGUS\r\n\r\n";
    ASSERT_EQ(::send(malformed, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    EXPECT_EQ(ReadResponse(malformed).status, 400);
    ::close(malformed);
    EXPECT_EQ(Fetch(ts.port(), "GET", "/nope").status, 404);
    const int kept = ConnectLoopback(ts.port());
    for (int i = 0; i < 2; ++i) {
      SendOnSocket(kept, "GET", "/healthz", "");
      EXPECT_EQ(ReadFramedResponse(kept).status, 200);
    }
    ::close(kept);
    // The vanished client's 499 is written after its ticket is abandoned.
    WaitFor([&] { return ts.server->stats().responses_4xx == 4; },
            "499, 429, 400 and 404 never all counted");

    const ClientResult metrics = Fetch(ts.port(), "GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    const ClientResult statz_response = Fetch(ts.port(), "GET", "/statz");
    ASSERT_EQ(statz_response.status, 200);
    const util::JsonValue statz = ParseBody(statz_response);
    const auto statz_uint = [&statz](std::initializer_list<const char*> path) {
      const util::JsonValue* value = &statz;
      for (const char* key : path) {
        value = value->Find(key);
        EXPECT_NE(value, nullptr) << "missing /statz key " << key;
        if (value == nullptr) return uint64_t{0};
      }
      return value->AsUint();
    };
    // One stats() field against its sample and its /statz key.
    const auto agree = [&](uint64_t field, const std::string& sample,
                           std::initializer_list<const char*> statz_path) {
      SCOPED_TRACE(sample);
      EXPECT_EQ(field, MetricSample(metrics.body, sample));
      EXPECT_EQ(field, statz_uint(statz_path));
    };

    const DecompositionService::Stats service = ts.service.stats();
    agree(service.submitted, "receipt_service_submitted_total",
          {"requests", "submitted"});
    agree(service.completed, "receipt_service_completed_total",
          {"requests", "completed"});
    agree(service.cache_hits, "receipt_cache_hits_total",
          {"requests", "cache_hits"});
    agree(service.coalesced, "receipt_coalesced_total",
          {"requests", "coalesced"});
    agree(service.engine_runs, "receipt_engine_runs_total",
          {"requests", "engine_runs"});
    agree(service.batched_follow_ons,
          "receipt_service_batched_follow_ons_total",
          {"requests", "batched_follow_ons"});
    agree(service.cancelled, "receipt_requests_total{outcome=\"cancelled\"}",
          {"requests", "cancelled"});
    agree(service.abandoned, "receipt_service_abandoned_total",
          {"requests", "abandoned"});
    EXPECT_EQ(service.submitted, 4u);  // miss, twin, hit, vanishing
    EXPECT_EQ(service.completed, 2u);  // the miss's run, the cancelled one
    EXPECT_EQ(service.cache_hits, 1u);
    EXPECT_EQ(service.coalesced, 1u);
    EXPECT_EQ(service.engine_runs, 1u);
    EXPECT_EQ(service.cancelled, 1u);
    EXPECT_EQ(service.abandoned, 1u);
    for (const service::Status status :
         {service::Status::kOk, service::Status::kNotFound,
          service::Status::kBadRequest, service::Status::kCancelled,
          service::Status::kShutdown}) {
      const char* name = service::StatusName(status);
      agree(ts.service.RequestsWithOutcome(status),
            std::string("receipt_requests_total{outcome=\"") + name + "\"}",
            {"requests", "by_outcome", name});
    }
    // The miss, its coalesced twin (one run, two requests) and the hit:
    // the outcomes sum to the submits.
    EXPECT_EQ(ts.service.RequestsWithOutcome(service::Status::kOk), 3u);
    EXPECT_EQ(statz_uint({"traces", "capacity"}),
              ts.service.observability().traces.capacity());
    EXPECT_GE(statz_uint({"traces", "recorded"}), 1u);

    // Rendering the document directly (the CLI's drain) is no request.
    const std::string statz_requests =
        "receipt_http_requests_total{path=\"/statz\"}";
    const uint64_t served = MetricSample(
        ts.service.observability().metrics.RenderPrometheus(),
        statz_requests);
    std::string error;
    EXPECT_TRUE(util::JsonValue::Parse(ts.frontend->StatzJson(), &error))
        << error;
    EXPECT_EQ(MetricSample(
                  ts.service.observability().metrics.RenderPrometheus(),
                  statz_requests),
              served);

    const service::ResultCache::Stats cache = ts.service.cache_stats();
    agree(cache.hits, "receipt_cache_hits_total", {"cache", "hits"});
    agree(cache.misses, "receipt_cache_misses_total", {"cache", "misses"});
    agree(cache.insertions, "receipt_cache_insertions_total",
          {"cache", "insertions"});
    agree(cache.evictions, "receipt_cache_evictions_total",
          {"cache", "evictions"});
    agree(cache.epoch_drops, "receipt_cache_epoch_drops_total",
          {"cache", "epoch_drops"});
    EXPECT_EQ(cache.bytes, statz_uint({"cache", "bytes"}));
    EXPECT_EQ(cache.entries, statz_uint({"cache", "entries"}));
    EXPECT_GE(cache.epoch_drops, 1u);  // the seal killed the first epoch

    const service::LiveGraphManager::Stats live = ts.service.live().stats();
    agree(live.batches_total, "receipt_live_batches_total",
          {"live", "batches"});
    agree(live.updates_total, "receipt_live_updates_total",
          {"live", "updates"});
    agree(live.seals_total, "receipt_live_seal_seconds_count",
          {"live", "seals"});
    agree(live.runs_full, "receipt_live_seal_runs_total",
          {"live", "runs_full"});
    agree(live.baselines_built, "receipt_live_baselines_built_total",
          {"live", "baselines_built"});
    agree(live.pending_edges, "receipt_live_pending_edges",
          {"live", "pending_edges"});
    EXPECT_EQ(live.batches_total, 2u);
    EXPECT_EQ(live.seals_total, 1u);
    EXPECT_EQ(live.runs_full, 1u);
    EXPECT_EQ(live.baselines_built, 1u);
    EXPECT_EQ(live.pending_edges, 0u);
    EXPECT_EQ(live.runs_incremental, 0u);
    EXPECT_EQ(live.ranges_reused, 0u);
    EXPECT_EQ(live.ranges_repeeled, 0u);

    const durability::DurabilityStats durable =
        ts.service.durability()->stats();
    agree(durable.journal.appends, "receipt_journal_appends_total",
          {"durability", "journal", "appends"});
    agree(durable.journal.append_failures,
          "receipt_journal_append_failures_total",
          {"durability", "journal", "append_failures"});
    agree(durable.journal.bytes_written, "receipt_journal_bytes_total",
          {"durability", "journal", "bytes_written"});
    agree(durable.journal.fsyncs, "receipt_journal_fsyncs_total",
          {"durability", "journal", "fsyncs"});
    agree(durable.journal.rotations, "receipt_journal_rotations_total",
          {"durability", "journal", "rotations"});
    agree(durable.journal.segments_dropped,
          "receipt_journal_segments_dropped_total",
          {"durability", "journal", "segments_dropped"});
    EXPECT_EQ(durable.journal.current_segment,
              statz_uint({"durability", "journal", "current_segment"}));
    EXPECT_EQ(durable.journal.broken,
              statz.Find("durability")->Find("journal")->Find("broken")
                  ->AsBool());
    agree(durable.snapshots_written, "receipt_snapshot_writes_total",
          {"durability", "snapshots", "written"});
    agree(durable.snapshot_failures, "receipt_snapshot_failures_total",
          {"durability", "snapshots", "failures"});
    // Registration, two batches, one seal.
    EXPECT_EQ(durable.journal.appends, 4u);
    EXPECT_EQ(durable.snapshots_written, 2u);  // on seal, then by admin

    const DecompositionHttpFrontend::Stats http = ts.frontend->stats();
    agree(http.decompose_requests,
          "receipt_http_requests_total{path=\"/v1/decompose\"}",
          {"http", "decompose_requests"});
    agree(http.rejected_busy, "receipt_http_rejected_busy_total",
          {"http", "rejected_busy"});
    agree(http.disconnect_cancels, "receipt_http_disconnect_cancels_total",
          {"http", "disconnect_cancels"});
    agree(http.graphs_registered, "receipt_http_graphs_registered_total",
          {"http", "graphs_registered"});
    agree(http.edge_batches, "receipt_http_edge_batches_total",
          {"http", "edge_batches"});
    agree(http.snapshots_taken, "receipt_http_snapshots_taken_total",
          {"http", "snapshots_taken"});
    EXPECT_EQ(http.decompose_requests, 5u);
    EXPECT_EQ(http.rejected_busy, 1u);
    EXPECT_EQ(http.disconnect_cancels, 1u);
    EXPECT_EQ(http.graphs_registered, 1u);
    EXPECT_EQ(http.edge_batches, 2u);
    EXPECT_EQ(http.snapshots_taken, 1u);

    // The two reads are transport traffic themselves. A response is
    // counted before it is sent, so /metrics renders after its own accept
    // and dispatch but before its own response, and /statz one exchange
    // later; `transport` is read after both.
    const HttpServer::Stats transport = ts.server->stats();
    const auto agree_lagging = [&](uint64_t field, const std::string& sample,
                                   const char* statz_key,
                                   uint64_t metrics_lag, uint64_t statz_lag) {
      SCOPED_TRACE(sample);
      EXPECT_EQ(field - metrics_lag, MetricSample(metrics.body, sample));
      EXPECT_EQ(field - statz_lag, statz_uint({"http", statz_key}));
    };
    agree_lagging(transport.connections_accepted,
                  "receipt_transport_connections_total{outcome=\"accepted\"}",
                  "connections_accepted", 1, 0);
    agree_lagging(transport.connections_rejected,
                  "receipt_transport_connections_total{outcome=\"rejected\"}",
                  "connections_rejected", 0, 0);
    agree_lagging(transport.requests, "receipt_transport_requests_total",
                  "requests", 1, 0);
    agree_lagging(transport.keepalive_reuses,
                  "receipt_transport_keepalive_reuses_total",
                  "keepalive_reuses", 0, 0);
    agree_lagging(transport.responses_2xx,
                  "receipt_transport_responses_total{class=\"2xx\"}",
                  "responses_2xx", 2, 1);
    agree_lagging(transport.responses_3xx,
                  "receipt_transport_responses_total{class=\"3xx\"}",
                  "responses_3xx", 0, 0);
    agree_lagging(transport.responses_4xx,
                  "receipt_transport_responses_total{class=\"4xx\"}",
                  "responses_4xx", 0, 0);
    agree_lagging(transport.responses_5xx,
                  "receipt_transport_responses_total{class=\"5xx\"}",
                  "responses_5xx", 0, 0);
    agree_lagging(transport.parse_failures,
                  "receipt_transport_parse_failures_total", "parse_failures",
                  0, 0);
    // 12 connections before the two reads: registration, miss, twin, hit,
    // vanishing, 429, two batches, snapshot, malformed, 404, kept-alive.
    EXPECT_EQ(transport.connections_accepted, 14u);
    EXPECT_EQ(transport.requests, 13u);  // all but the malformed and 404
    EXPECT_EQ(transport.keepalive_reuses, 1u);
    EXPECT_EQ(transport.responses_2xx, 11u);
    EXPECT_EQ(transport.responses_4xx, 4u);
    EXPECT_EQ(transport.parse_failures, 1u);

    // The service's and the server's families are disjoint.
    std::set<std::string> types;
    size_t type_lines = 0;
    for (size_t pos = metrics.body.find("# TYPE "); pos != std::string::npos;
         pos = metrics.body.find("# TYPE ", pos + 1)) {
      types.insert(
          metrics.body.substr(pos, metrics.body.find('\n', pos) - pos));
      ++type_lines;
    }
    EXPECT_EQ(types.size(), type_lines);
  }
  std::filesystem::remove_all(dir);
}

// Every 200 that carries a graph epoch in its body repeats it in
// X-Graph-Epoch, so a relaying hop never has to parse the body: decompose
// answers (a miss, its coalesced twin, a hit, and a hit after a seal) and
// the register and edge-batch acks.
TEST(HttpServerTest, EpochHeaderRepeatsTheBodysEpoch) {
  char dir_template[] = "/tmp/receipt_http_epoch_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  const std::string graph_file = dir + "/g.konect";
  ASSERT_TRUE(SaveKonect(G1(), graph_file));

  const auto body_epoch = [](const ClientResult& result, const char* key) {
    const util::JsonValue json = ParseBody(result);
    const util::JsonValue* epoch = json.Find(key);
    EXPECT_NE(epoch, nullptr) << result.body;
    return epoch == nullptr ? std::string() : std::to_string(epoch->AsUint());
  };
  const auto flag = [](const ClientResult& result, const char* key) {
    bool value = false;
    EXPECT_TRUE(ParseBody(result).GetBool(key, &value)) << result.body;
    return value;
  };

  ServiceOptions options;
  options.num_workers = 0;  // the test decides when queued work runs
  {
    TestServer ts(options);
    const ClientResult registered =
        Fetch(ts.port(), "POST", "/v1/graphs",
              R"({"name": "g", "path": ")" + graph_file + R"("})");
    ASSERT_EQ(registered.status, 200) << registered.body;
    EXPECT_EQ(body_epoch(registered, "epoch"), "1");
    EXPECT_EQ(HeaderValue(registered.headers, "X-Graph-Epoch"), "1");

    const std::string tip_u = R"({"graph": "g", "kind": "tip-U", )"
                              R"("algo": "RECEIPT", "partitions": 6})";
    ClientResult miss;
    ClientResult twin;
    std::thread miss_thread(
        [&] { miss = Fetch(ts.port(), "POST", "/v1/decompose", tip_u); });
    WaitFor([&] { return ts.service.QueueDepth() == 1; }, "miss never queued");
    std::thread twin_thread(
        [&] { twin = Fetch(ts.port(), "POST", "/v1/decompose", tip_u); });
    WaitFor([&] { return ts.service.stats().coalesced == 1; },
            "twin never coalesced");
    ts.service.RunQueuedInline();
    miss_thread.join();
    twin_thread.join();
    ClientResult hit = Fetch(ts.port(), "POST", "/v1/decompose", tip_u);

    ASSERT_EQ(miss.status, 200) << miss.body;
    ASSERT_EQ(twin.status, 200) << twin.body;
    ASSERT_EQ(hit.status, 200) << hit.body;
    // The miss and its twin share one run's response.
    EXPECT_FALSE(flag(miss, "cache_hit"));
    EXPECT_TRUE(flag(twin, "coalesced"));
    EXPECT_TRUE(flag(hit, "cache_hit"));
    for (const ClientResult* read : {&miss, &twin, &hit}) {
      EXPECT_EQ(body_epoch(*read, "graph_epoch"), "1");
      EXPECT_EQ(HeaderValue(read->headers, "X-Graph-Epoch"), "1");
    }

    // A sealed batch moves both to epoch 2; its tracked configuration
    // primes the cache, so the read after it is a hit at the new epoch.
    const ClientResult sealed =
        Fetch(ts.port(), "POST", "/v1/graphs/g/edges",
              R"({"edges": [{"op": "insert", "u": 1, "v": 2}], "seal": true,
                  "track": [{"kind": "tip-U", "partitions": 6}]})");
    ASSERT_EQ(sealed.status, 200) << sealed.body;
    EXPECT_EQ(body_epoch(sealed, "epoch"), "2");
    EXPECT_EQ(HeaderValue(sealed.headers, "X-Graph-Epoch"), "2");
    const ClientResult pending =
        Fetch(ts.port(), "POST", "/v1/graphs/g/edges",
              R"({"edges": [{"op": "insert", "u": 3, "v": 4}]})");
    ASSERT_EQ(pending.status, 200) << pending.body;
    EXPECT_EQ(body_epoch(pending, "epoch"), "2");
    EXPECT_EQ(HeaderValue(pending.headers, "X-Graph-Epoch"), "2");
    const ClientResult after = Fetch(ts.port(), "POST", "/v1/decompose", tip_u);
    ASSERT_EQ(after.status, 200) << after.body;
    EXPECT_TRUE(flag(after, "cache_hit"));
    EXPECT_EQ(body_epoch(after, "graph_epoch"), "2");
    EXPECT_EQ(HeaderValue(after.headers, "X-Graph-Epoch"), "2");

    // An answer that is not a 200 names no epoch.
    const ClientResult missing = Fetch(
        ts.port(), "POST", "/v1/decompose", R"({"graph": "nope"})");
    EXPECT_EQ(missing.status, 404) << missing.body;
    EXPECT_EQ(HeaderValue(missing.headers, "X-Graph-Epoch"), "");
  }
  std::filesystem::remove_all(dir);
}

TEST(HttpServerTest, EdgeUpdateSealMatchesDirectDecomposeOfFinalGraph) {
  ServiceOptions options;
  options.num_workers = 1;
  TestServer ts(options);
  const BipartiteGraph before = G1();
  ts.registry.Register("g1", G1());

  // Mutate: delete two existing edges, insert two absent ones.
  std::vector<BipartiteGraph::Edge> edges = before.ToEdges();
  const BipartiteGraph::Edge dead1 = edges[3];
  const BipartiteGraph::Edge dead2 = edges[edges.size() / 2];
  auto exists = [&](VertexId u, VertexId v) {
    return std::find_if(edges.begin(), edges.end(),
                        [&](const BipartiteGraph::Edge& e) {
                          return e.u == u && e.v == v;
                        }) != edges.end();
  };
  std::vector<BipartiteGraph::Edge> inserted;
  for (VertexId u = 0; u < before.num_u() && inserted.size() < 2; ++u) {
    for (VertexId v = 0; v < before.num_v() && inserted.size() < 2; ++v) {
      if (!exists(u, v)) inserted.push_back({u, v});
    }
  }
  ASSERT_EQ(inserted.size(), 2u);

  std::string batch = R"({"seal": true, "threads": 2,)"
                      R"( "track": [{"kind": "tip-U", "partitions": 6}],)"
                      R"( "edges": [)";
  auto edge_json = [](const char* op, const BipartiteGraph::Edge& e) {
    return std::string("{\"op\":\"") + op +
           "\",\"u\":" + std::to_string(e.u) +
           ",\"v\":" + std::to_string(e.v) + "}";
  };
  batch += edge_json("delete", dead1) + "," + edge_json("delete", dead2) +
           "," + edge_json("insert", inserted[0]) + "," +
           edge_json("insert", inserted[1]) + "]}";

  const ClientResult sealed =
      Fetch(ts.port(), "POST", "/v1/graphs/g1/edges", batch);
  ASSERT_EQ(sealed.status, 200) << sealed.body;
  const util::JsonValue seal_json = ParseBody(sealed);
  EXPECT_TRUE(seal_json.Find("sealed")->AsBool());
  EXPECT_EQ(seal_json.Find("accepted")->AsUint(), 4u);
  EXPECT_EQ(seal_json.Find("pending")->AsUint(), 0u);
  const util::JsonValue* runs = seal_json.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->Items().size(), 1u);
  EXPECT_GT(runs->Items()[0].Find("subsets_total")->AsUint(), 0u);

  // The post-seal decompose must be a cache hit (primed at seal) and
  // bit-identical to a from-scratch decomposition of the final graph.
  const ClientResult result = Fetch(
      ts.port(), "POST", "/v1/decompose",
      R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",)"
      R"( "partitions": 6, "threads": 2})");
  ASSERT_EQ(result.status, 200);
  const util::JsonValue json = ParseBody(result);
  EXPECT_TRUE(json.Find("cache_hit")->AsBool());

  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [&](const BipartiteGraph::Edge& e) {
                               return (e.u == dead1.u && e.v == dead1.v) ||
                                      (e.u == dead2.u && e.v == dead2.v);
                             }),
              edges.end());
  edges.push_back(inserted[0]);
  edges.push_back(inserted[1]);
  const BipartiteGraph after =
      BipartiteGraph::FromEdges(before.num_u(), before.num_v(), edges);
  TipOptions direct;
  direct.num_threads = 2;
  direct.num_partitions = 6;
  EXPECT_EQ(NumbersFrom(json), ReceiptDecompose(after, direct).tip_numbers);

  // Out-of-shape endpoints reject the whole batch: growing needs a
  // re-registration, not a live update.
  const ClientResult rejected = Fetch(
      ts.port(), "POST", "/v1/graphs/g1/edges",
      R"({"edges": [{"op": "insert", "u": 99999, "v": 0}]})");
  EXPECT_EQ(rejected.status, 400);
  // Unknown graphs are 404s.
  EXPECT_EQ(Fetch(ts.port(), "POST", "/v1/graphs/nope/edges",
                  R"({"edges": []})")
                .status,
            404);
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const int fd = ConnectLoopback(ts.port());
  for (int i = 0; i < 5; ++i) {
    SendOnSocket(fd, "GET", "/healthz", "");
    const FramedResult result = ReadFramedResponse(fd);
    ASSERT_TRUE(result.complete) << "connection dropped on request " << i;
    EXPECT_EQ(result.status, 200);
    EXPECT_NE(result.headers.find("Connection: keep-alive"),
              std::string::npos);
  }
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 4u);
  EXPECT_EQ(ts.server->stats().requests, 5u);
  EXPECT_EQ(ts.server->stats().connections_accepted, 1u);
}

TEST(HttpServerTest, PipelinedRequestsAllGetResponses) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  // Two complete requests in one write: the second is served from the
  // carried-over buffer without waiting on the socket.
  const std::string one =
      "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  const std::string two = one + one;
  ASSERT_EQ(::send(fd, two.data(), two.size(), 0),
            static_cast<ssize_t>(two.size()));
  std::string carry;
  EXPECT_TRUE(ReadFramedResponse(fd, &carry).complete);
  EXPECT_TRUE(ReadFramedResponse(fd, &carry).complete);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 1u);
}

TEST(HttpServerTest, ConnectionCloseHeaderIsHonored) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  SendOnSocket(fd, "GET", "/healthz", "", "Connection: close\r\n");
  const FramedResult result = ReadFramedResponse(fd);
  ASSERT_TRUE(result.complete);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  // EOF follows: the server closed its side.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 0u);
}

TEST(HttpServerTest, Http10DefaultsToClose) {
  TestServer ts;
  const int fd = ConnectLoopback(ts.port());
  const std::string request =
      "GET /healthz HTTP/1.0\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const FramedResult result = ReadFramedResponse(fd);
  ASSERT_TRUE(result.complete);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST(HttpServerTest, RequestCapClosesTheConnection) {
  HttpServerOptions http_options;
  http_options.max_requests_per_connection = 3;
  TestServer ts({}, 4, http_options);

  const int fd = ConnectLoopback(ts.port());
  for (int i = 0; i < 3; ++i) {
    SendOnSocket(fd, "GET", "/healthz", "");
    const FramedResult result = ReadFramedResponse(fd);
    ASSERT_TRUE(result.complete);
    // The final allowed request carries the close advisory.
    const char* expected =
        i == 2 ? "Connection: close" : "Connection: keep-alive";
    EXPECT_NE(result.headers.find(expected), std::string::npos) << i;
  }
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // over the cap: connection gone
  ::close(fd);
  EXPECT_EQ(ts.server->stats().keepalive_reuses, 2u);
}

TEST(HttpServerTest, IdleKeepAliveConnectionTimesOutSilently) {
  HttpServerOptions http_options;
  http_options.idle_timeout_ms = 50;
  TestServer ts({}, 4, http_options);

  const int fd = ConnectLoopback(ts.port());
  SendOnSocket(fd, "GET", "/healthz", "");
  ASSERT_TRUE(ReadFramedResponse(fd).complete);
  // Sit idle past the timeout: the server closes without writing anything
  // (no 408 — no request was in flight).
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_EQ(n, 0);
  ::close(fd);
  EXPECT_EQ(ts.server->stats().parse_failures, 0u);
}

TEST(HttpServerTest, KeepAliveDisabledRestoresSingleRequestConnections) {
  HttpServerOptions http_options;
  http_options.max_requests_per_connection = 1;
  TestServer ts({}, 4, http_options);

  const int fd = ConnectLoopback(ts.port());
  SendOnSocket(fd, "GET", "/healthz", "");
  const FramedResult result = ReadFramedResponse(fd);
  ASSERT_TRUE(result.complete);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

// The writer/parser pair the wire format rests on: round-trip sanity.
TEST(JsonTest, WriterAndParserRoundTrip) {
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("text").String("line\n\"quoted\" \\ tab\t")
      .Key("big").Uint(3000000000000ull)
      .Key("neg").Int(-42)
      .Key("pi").Double(3.25)
      .Key("yes").Bool(true)
      .Key("nothing").Null()
      .Key("list").BeginArray().Uint(1).Uint(2).Uint(3).EndArray()
      .EndObject();

  std::string error;
  const auto parsed = util::JsonValue::Parse(writer.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("text")->AsString(), "line\n\"quoted\" \\ tab\t");
  EXPECT_EQ(parsed->Find("big")->AsUint(), 3000000000000ull);
  EXPECT_EQ(parsed->Find("neg")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsDouble(), 3.25);
  EXPECT_TRUE(parsed->Find("yes")->AsBool());
  EXPECT_TRUE(parsed->Find("nothing")->IsNull());
  EXPECT_EQ(parsed->Find("list")->Items().size(), 3u);
}

TEST(JsonTest, IntegersBeyondInt64StayExactThroughAsUintOnly) {
  const auto parsed =
      util::JsonValue::Parse(R"({"huge": 18446744073709551615})");
  ASSERT_TRUE(parsed.has_value());
  const util::JsonValue* huge = parsed->Find("huge");
  ASSERT_NE(huge, nullptr);
  EXPECT_TRUE(huge->IsInt());
  EXPECT_EQ(huge->AsUint(), 18446744073709551615ull);
  // Not int64-representable: the typed accessor must refuse, not truncate.
  int64_t out = 0;
  EXPECT_FALSE(parsed->GetInt("huge", &out));
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01x", "\"unterminated",
        "{\"a\":1} trailing", "[\"\\q\"]", "007", "-01",
        // Lone surrogates would decode to invalid UTF-8 — rejected.
        "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800x\""}) {
    std::string error;
    EXPECT_FALSE(util::JsonValue::Parse(bad, &error).has_value())
        << "accepted: " << bad;
    EXPECT_FALSE(error.empty());
  }
  // Depth bomb: fails cleanly instead of blowing the stack.
  EXPECT_FALSE(
      util::JsonValue::Parse(std::string(10000, '[')).has_value());
}

// The request helpers the frontend, the cluster node and the router share.
TEST(HttpHelpersTest, GraphNameFromEdgesPathAcceptsOnlyOneSegmentNames) {
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs/g1/edges"), "g1");
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs//edges"), "");
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs/a/b/edges"), "");
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs/edges"), "");
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs"), "");
  EXPECT_EQ(GraphNameFromEdgesPath("/v1/graphs/g1/edgesx"), "");
}

TEST(HttpHelpersTest, QueryParamMatchesWholeKeysOnly) {
  EXPECT_EQ(QueryParam("subgraph=x&graph=g1", "graph"), "g1");
  EXPECT_EQ(QueryParam("graph=g1&subgraph=x", "graph"), "g1");
  EXPECT_EQ(QueryParam("subgraph=x", "graph"), "");
  EXPECT_EQ(QueryParam("graph=&threads=2", "graph"), "");
  EXPECT_EQ(QueryParam("graph=&threads=2", "threads"), "2");
  EXPECT_EQ(QueryParam("threads=2", "pending"), "");
  EXPECT_EQ(QueryParam("", "graph"), "");
  EXPECT_EQ(QueryParam("graph&pending=3", "graph"), "");
  EXPECT_EQ(QueryParam("graph&pending=3", "pending"), "3");
}

TEST(HttpHelpersTest, JsonErrorAddsRetryAfterOnlyOn429And503) {
  for (const int status : {400, 404, 409, 412, 429, 499, 500, 503}) {
    const HttpResponse response = JsonError(status, "boom");
    EXPECT_EQ(response.status, status);
    EXPECT_EQ(response.body, R"({"status":"error","error":"boom"})");
    EXPECT_EQ(response.content_type, "application/json");
    const bool retry = status == 429 || status == 503;
    if (retry) {
      ASSERT_EQ(response.extra_headers.size(), 1u) << status;
      EXPECT_EQ(response.extra_headers[0].first, "Retry-After");
      EXPECT_EQ(response.extra_headers[0].second, "1");
    } else {
      EXPECT_TRUE(response.extra_headers.empty()) << status;
    }
  }
}

TEST(HttpHelpersTest, HttpStatusForCoversEveryServiceStatus) {
  EXPECT_EQ(HttpStatusFor(service::Status::kOk), 200);
  EXPECT_EQ(HttpStatusFor(service::Status::kNotFound), 404);
  EXPECT_EQ(HttpStatusFor(service::Status::kBadRequest), 400);
  EXPECT_EQ(HttpStatusFor(service::Status::kCancelled), 499);
  EXPECT_EQ(HttpStatusFor(service::Status::kShutdown), 503);
}

TEST(HttpHelpersTest, GraphEpochHeaderRoundTripsAndRejectsMalformedValues) {
  HttpResponse response;
  SetGraphEpochHeader(42, &response);
  ASSERT_EQ(response.extra_headers.size(), 1u);
  EXPECT_EQ(response.extra_headers[0].first, "X-Graph-Epoch");
  EXPECT_EQ(response.extra_headers[0].second, "42");
  EXPECT_EQ(ParseGraphEpochHeader("42"), 42u);
  EXPECT_EQ(ParseGraphEpochHeader("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "12x", "x12", " 7", "7 ", "-1", "+1", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(ParseGraphEpochHeader(bad), 0u) << "'" << bad << "'";
  }
}

TEST(HttpHelpersTest, GraphNameFromBodyReadsOneStringField) {
  EXPECT_EQ(GraphNameFromBody(R"({"graph":"g1","kind":"tip-U"})", "graph"),
            "g1");
  EXPECT_EQ(GraphNameFromBody(R"({"name":"g2"})", "graph"), "");
  EXPECT_EQ(GraphNameFromBody(R"({"graph":7})", "graph"), "");
  EXPECT_EQ(GraphNameFromBody(R"(["graph"])", "graph"), "");
  EXPECT_EQ(GraphNameFromBody("{not json", "graph"), "");
}

}  // namespace
}  // namespace receipt::server
