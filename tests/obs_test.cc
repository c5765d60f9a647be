// Observability tests: exact concurrent counting, log2 histogram bucket
// edges and quantiles, Prometheus text-format conformance (every line of
// the exposition is parsed), trace-ring wraparound under overflow, trace id
// parse/format round-trips, and an end-to-end HTTP pass — a decompose
// request's X-Request-Id comes back as a trace whose spans cover queue wait
// and the engine phases, with /metrics provably advancing.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/http_client.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "server/decomposition_http.h"
#include "server/http_server.h"
#include "service/decomposition_service.h"
#include "service/graph_registry.h"
#include "util/json.h"

namespace receipt::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test_total", "concurrent test");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
}

TEST(MetricsTest, RegistryReturnsSameInstrumentForSameNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "h", {{"k", "v"}});
  Counter* b = registry.GetCounter("x_total", "h", {{"k", "v"}});
  Counter* c = registry.GetCounter("x_total", "h", {{"k", "w"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Label order is canonicalized: {a,b} and {b,a} are the same child.
  Counter* d = registry.GetCounter("y_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter* e = registry.GetCounter("y_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(d, e);
}

TEST(MetricsTest, HistogramBucketEdges) {
  Histogram histogram;
  // Bucket i holds ns <= 2^i: 1 ns -> bucket 0, 2 ns -> bucket 1,
  // 3 and 4 ns -> bucket 2, 5 ns -> bucket 3.
  histogram.Observe(0);
  histogram.Observe(1);
  histogram.Observe(2);
  histogram.Observe(3);
  histogram.Observe(4);
  histogram.Observe(5);
  EXPECT_EQ(histogram.BucketCount(0), 2u);  // 0 and 1 ns
  EXPECT_EQ(histogram.BucketCount(1), 1u);  // 2 ns
  EXPECT_EQ(histogram.BucketCount(2), 2u);  // 3, 4 ns
  EXPECT_EQ(histogram.BucketCount(3), 1u);  // 5 ns
  EXPECT_EQ(histogram.Count(), 6u);
  // A duration beyond the last finite bound lands in the overflow slot.
  Histogram overflow;
  overflow.Observe(UINT64_MAX);
  EXPECT_EQ(overflow.BucketCount(Histogram::kFiniteBuckets), 1u);
}

TEST(MetricsTest, HistogramQuantilesReportBucketUpperBounds) {
  Histogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 99; ++i) histogram.Observe(100);    // bucket 7 (<=128)
  histogram.Observe(1'000'000);                           // bucket 20
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.50), 128e-9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.99), 128e-9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), Histogram::BucketBoundSeconds(20));
  EXPECT_NEAR(histogram.SumSeconds(), 99 * 100e-9 + 1e-3, 1e-12);
}

/// Validates one exposition line-by-line: every line is a HELP comment, a
/// TYPE comment, or a sample `name[{labels}] value`.
void ValidatePrometheusText(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  size_t start = 0;
  int samples = 0;
  while (start < text.size()) {
    const size_t eol = text.find('\n', start);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = text.substr(start, eol - start);
    start = eol + 1;
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.compare(0, 7, "# HELP ") == 0 ||
        line.compare(0, 7, "# TYPE ") == 0) {
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    // Sample: metric name (with optional {labels}) SP value.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    ASSERT_FALSE(name_part.empty()) << line;
    ASSERT_FALSE(value_part.empty()) << line;
    char* end = nullptr;
    std::strtod(value_part.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable sample value: " << line;
    if (const size_t brace = name_part.find('{');
        brace != std::string::npos) {
      ASSERT_EQ(name_part.back(), '}') << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(MetricsTest, PrometheusTextConformance) {
  MetricsRegistry registry;
  registry.GetCounter("req_total", "requests", {{"outcome", "ok"}})
      ->Increment(3);
  registry.GetCounter("req_total", "requests", {{"outcome", "bad\"quote"}})
      ->Increment();
  registry.GetGauge("depth", "queue depth")->Set(7);
  Histogram* histogram = registry.GetHistogram("lat_seconds", "latency");
  histogram->Observe(100);
  histogram->Observe(2'000'000);
  const std::string text = registry.RenderPrometheus();
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{outcome=\"ok\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
  // Escaped label value survives rendering.
  EXPECT_NE(text.find("bad\\\"quote"), std::string::npos);
}

TEST(MetricsTest, HistogramBucketsRenderCumulative) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("h_seconds", "h");
  histogram->Observe(1);        // bucket 0
  histogram->Observe(1 << 12);  // bucket 12
  const std::string text = registry.RenderPrometheus();
  // Walk the rendered buckets: counts never decrease, +Inf equals _count.
  uint64_t previous = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("h_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const size_t value_start = text.find("} ", pos) + 2;
    const uint64_t value = std::strtoull(text.c_str() + value_start,
                                         nullptr, 10);
    EXPECT_GE(value, previous) << "non-monotone cumulative bucket";
    previous = value;
    ++buckets_seen;
    pos = value_start;
  }
  EXPECT_GT(buckets_seen, 2);
  EXPECT_EQ(previous, 2u);  // +Inf bucket == observation count
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceTest, RecordAndSnapshotNewestFirst) {
  TraceRecorder recorder(16);
  recorder.Record(1, "first", 100, 10);
  recorder.Record(1, "second", 200, 20);
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].Name(), "second");
  EXPECT_EQ(spans[1].Name(), "first");
  EXPECT_EQ(spans[1].start_ns, 100u);
  EXPECT_EQ(spans[1].duration_ns, 10u);
}

TEST(TraceTest, RingWrapsKeepingNewestSpans) {
  TraceRecorder recorder(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) {
    recorder.Record(7, "span", /*start_ns=*/i, /*duration_ns=*/1, /*arg=*/i);
  }
  EXPECT_EQ(recorder.recorded(), 100u);
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // Newest-first: args 99 down to 92.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].arg, 99 - i);
  }
  const std::vector<TraceSpan> limited = recorder.Snapshot(3);
  ASSERT_EQ(limited.size(), 3u);
  EXPECT_EQ(limited[0].arg, 99u);
}

TEST(TraceTest, ForTraceFiltersAndOrdersOldestFirst) {
  TraceRecorder recorder(32);
  recorder.Record(5, "late", 300, 1);
  recorder.Record(6, "other", 150, 1);
  recorder.Record(5, "early", 100, 1);
  const std::vector<TraceSpan> spans = recorder.ForTrace(5);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].Name(), "early");
  EXPECT_EQ(spans[1].Name(), "late");
  EXPECT_TRUE(recorder.ForTrace(999).empty());
}

TEST(TraceTest, ConcurrentRecordersNeverTearSpans) {
  TraceRecorder recorder(64);
  constexpr int kThreads = 8;
  // A span is whole when every field comes from one Record call: writer t
  // records trace_id t+1, arg t and start_ns t*10^6 + duration_ns. A torn
  // read would mix fields from different writers.
  const auto expect_whole = [](const TraceSpan& span) {
    EXPECT_EQ(span.arg + 1, span.trace_id);
    EXPECT_EQ(span.start_ns, span.arg * 1000000ull + span.duration_ns);
    EXPECT_EQ(span.Name(), "worker");
  };
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    while (writing.load(std::memory_order_relaxed)) {
      for (const TraceSpan& span : recorder.Snapshot()) expect_whole(span);
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < 5000; ++i) {
        recorder.Record(static_cast<uint64_t>(t) + 1, "worker",
                        /*start_ns=*/t * 1000000ull + i, /*duration_ns=*/i,
                        /*arg=*/static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  writing.store(false, std::memory_order_relaxed);
  reader.join();
  for (const TraceSpan& span : recorder.Snapshot()) expect_whole(span);
  EXPECT_EQ(recorder.recorded(), kThreads * 5000u);
}

TEST(TraceTest, TraceIdParseFormatRoundTrip) {
  const uint64_t minted = MintTraceId();
  EXPECT_NE(minted, 0u);
  EXPECT_NE(minted, MintTraceId());
  const std::string text = FormatTraceId(minted);
  EXPECT_EQ(text.size(), 16u);
  EXPECT_EQ(ParseOrMintTraceId(text), minted);
  // Short hex parses directly; arbitrary tokens hash stably; whitespace is
  // trimmed; empty mints; "0" never produces the null id.
  EXPECT_EQ(ParseOrMintTraceId("abc123"), 0xabc123u);
  EXPECT_EQ(ParseOrMintTraceId("  abc123  "), 0xabc123u);
  EXPECT_EQ(ParseOrMintTraceId("my-request-token"),
            ParseOrMintTraceId("my-request-token"));
  EXPECT_NE(ParseOrMintTraceId("my-request-token"), 0u);
  EXPECT_NE(ParseOrMintTraceId(""), 0u);
  EXPECT_NE(ParseOrMintTraceId(""), ParseOrMintTraceId(""));
  EXPECT_NE(ParseOrMintTraceId("0"), 0u);
}

TEST(TraceTest, NullContextRecordsNothingAndScopedSpanIsInert) {
  TraceContext null_ctx;
  EXPECT_FALSE(null_ctx.enabled());
  null_ctx.EmitSince("ignored", 0);
  null_ctx.Emit("ignored", 0, 0);
  { ScopedSpan span(null_ctx, "ignored"); }

  TraceRecorder recorder(8);
  TraceContext ctx{&recorder, 42};
  EXPECT_TRUE(ctx.enabled());
  {
    ScopedSpan span(ctx, "scoped", /*arg=*/9);
  }
  const std::vector<TraceSpan> spans = recorder.ForTrace(42);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].Name(), "scoped");
  EXPECT_EQ(spans[0].arg, 9u);
  // Context with a recorder but no id is still a null sink.
  TraceContext no_id{&recorder, 0};
  EXPECT_FALSE(no_id.enabled());
}

TEST(TraceTest, LongSpanNamesAreTruncatedNotOverrun) {
  TraceRecorder recorder(8);
  recorder.Record(1, "a.very.long.span.name.that.exceeds.capacity", 0, 0);
  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].Name().size(), TraceSpan::kNameCapacity - 1);
  EXPECT_EQ(spans[0].Name(), "a.very.long.span.name.t");
}

}  // namespace
}  // namespace receipt::obs

// ---------------------------------------------------------------------------
// End to end over HTTP: trace propagation and /metrics advancement.
// ---------------------------------------------------------------------------

namespace receipt::server {
namespace {

using service::DecompositionService;
using service::GraphRegistry;
using service::ServiceOptions;

BipartiteGraph G1() { return ChungLuBipartite(300, 200, 1500, 0.6, 0.6, 101); }

using ClientResult = cluster::HttpClientResponse;

/// One loopback request (Connection: close) with optional extra headers.
ClientResult Fetch(uint16_t port, const std::string& method,
                   const std::string& path, const std::string& body = "",
                   const std::vector<std::pair<std::string, std::string>>&
                       headers = {}) {
  static const cluster::HttpClient client(/*timeout_ms=*/30000);
  ClientResult result;
  std::string error;
  EXPECT_TRUE(client.Request(method, "127.0.0.1", port, path, body, headers,
                             &result, &error))
      << method << " " << path << ": " << error;
  return result;
}

/// A response header by lower-cased name ("" when absent).
std::string Header(const ClientResult& result, const std::string& name) {
  const auto it = result.headers.find(name);
  return it == result.headers.end() ? "" : it->second;
}

util::JsonValue ParseBody(const ClientResult& result) {
  std::string error;
  auto json = util::JsonValue::Parse(result.body, &error);
  EXPECT_TRUE(json.has_value()) << error << "\nbody: " << result.body;
  return json.value_or(util::JsonValue());
}

struct TestServer {
  TestServer() : service(registry, ServiceOptions{}) {
    server = std::make_unique<HttpServer>(HttpServerOptions{});
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

std::set<std::string> SpanNames(const util::JsonValue& json) {
  std::set<std::string> names;
  const util::JsonValue* spans = json.Find("spans");
  EXPECT_NE(spans, nullptr);
  if (spans == nullptr) return names;
  for (const util::JsonValue& span : spans->Items()) {
    std::string name;
    EXPECT_TRUE(span.GetString("name", &name));
    names.insert(name);
  }
  return names;
}

TEST(HttpObservabilityTest, DecomposeCarriesTraceWithQueueAndEngineSpans) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult result =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT",)"
            R"( "partitions": 6, "threads": 2})",
            {{"X-Request-Id", "abc123"}});
  ASSERT_EQ(result.status, 200);
  // The client-supplied hex id is canonicalized and echoed in the header
  // and the body.
  EXPECT_EQ(Header(result, "x-request-id"), "0000000000abc123");
  const util::JsonValue json = ParseBody(result);
  std::string trace_id;
  ASSERT_TRUE(json.GetString("trace_id", &trace_id));
  EXPECT_EQ(trace_id, "0000000000abc123");

  const ClientResult trace =
      Fetch(ts.port(), "GET", "/v1/traces/" + trace_id);
  ASSERT_EQ(trace.status, 200);
  const std::set<std::string> names = SpanNames(ParseBody(trace));
  EXPECT_EQ(names.count("http.parse"), 1u);
  EXPECT_EQ(names.count("request.parse"), 1u);
  EXPECT_EQ(names.count("queue.wait"), 1u);
  EXPECT_EQ(names.count("engine.run"), 1u);
  EXPECT_EQ(names.count("engine.count"), 1u);
  EXPECT_EQ(names.count("engine.cd"), 1u);
  EXPECT_EQ(names.count("engine.cd.range"), 1u);
  EXPECT_EQ(names.count("engine.fd"), 1u);
  EXPECT_EQ(names.count("response.serialize"), 1u);

  // The whole-trace view is ordered and the engine.run span nests inside
  // the request window.
  const util::JsonValue trace_json = ParseBody(trace);
  const util::JsonValue* spans = trace_json.Find("spans");
  ASSERT_NE(spans, nullptr);
  uint64_t previous_start = 0;
  for (const util::JsonValue& span : spans->Items()) {
    const util::JsonValue* start = span.Find("start_ns");
    ASSERT_NE(start, nullptr);
    EXPECT_GE(start->AsUint(), previous_start);
    previous_start = start->AsUint();
  }
}

TEST(HttpObservabilityTest, MintedTraceIdWhenHeaderAbsent) {
  TestServer ts;
  ts.registry.Register("g1", G1());
  const ClientResult result =
      Fetch(ts.port(), "POST", "/v1/decompose",
            R"({"graph": "g1", "kind": "tip-U", "algo": "BUP"})");
  ASSERT_EQ(result.status, 200);
  std::string trace_id;
  ASSERT_TRUE(ParseBody(result).GetString("trace_id", &trace_id));
  EXPECT_EQ(trace_id.size(), 16u);
  const ClientResult trace =
      Fetch(ts.port(), "GET", "/v1/traces/" + trace_id);
  EXPECT_EQ(trace.status, 200);
}

TEST(HttpObservabilityTest, MetricsAdvanceAcrossADecomposeRoundTrip) {
  TestServer ts;
  ts.registry.Register("g1", G1());

  const ClientResult before = Fetch(ts.port(), "GET", "/metrics");
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(Header(before, "content-type").find("text/plain"),
            std::string::npos);
  receipt::obs::ValidatePrometheusText(before.body);

  ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})")
                .status,
            200);

  const ClientResult after = Fetch(ts.port(), "GET", "/metrics");
  receipt::obs::ValidatePrometheusText(after.body);
  const auto sample = [](const std::string& text, const std::string& name) {
    const size_t pos = text.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << "missing sample: " << name;
    if (pos == std::string::npos) return uint64_t{0};
    return static_cast<uint64_t>(
        std::strtoull(text.c_str() + pos + name.size() + 2, nullptr, 10));
  };
  EXPECT_EQ(sample(after.body, "receipt_requests_total{outcome=\"ok\"}") -
                sample(before.body, "receipt_requests_total{outcome=\"ok\"}"),
            1u);
  EXPECT_EQ(sample(after.body, "receipt_engine_runs_total") -
                sample(before.body, "receipt_engine_runs_total"),
            1u);
  EXPECT_GE(sample(after.body, "receipt_request_latency_seconds_count"), 1u);
  EXPECT_GE(sample(after.body, "receipt_queue_wait_seconds_count"), 1u);
  EXPECT_GE(sample(after.body, "receipt_engine_run_seconds_count"), 1u);
  EXPECT_GE(sample(after.body, "receipt_engine_wedges_total{phase=\"cd\"}"),
            1u);
  EXPECT_GE(sample(after.body,
                   "receipt_http_requests_total{path=\"/v1/decompose\"}"),
            1u);
}

TEST(HttpObservabilityTest, StatzCarriesGrowthsAndLatencyQuantiles) {
  TestServer ts;
  ts.registry.Register("g1", G1());
  ASSERT_EQ(Fetch(ts.port(), "POST", "/v1/decompose",
                  R"({"graph": "g1", "kind": "tip-U", "algo": "RECEIPT"})")
                .status,
            200);
  const ClientResult statz = Fetch(ts.port(), "GET", "/statz");
  ASSERT_EQ(statz.status, 200);
  const util::JsonValue json = ParseBody(statz);
  EXPECT_NE(json.Find("workspace_growths"), nullptr);
  const util::JsonValue* latency = json.Find("latency");
  ASSERT_NE(latency, nullptr);
  for (const char* key : {"request", "queue_wait", "engine_run"}) {
    const util::JsonValue* block = latency->Find(key);
    ASSERT_NE(block, nullptr) << key;
    const util::JsonValue* count = block->Find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_GE(count->AsUint(), 1u) << key;
    EXPECT_NE(block->Find("p50_seconds"), nullptr);
    EXPECT_NE(block->Find("p95_seconds"), nullptr);
    EXPECT_NE(block->Find("p99_seconds"), nullptr);
  }
}

TEST(HttpObservabilityTest, TraceEndpointsRejectBadIdsAndLimit) {
  TestServer ts;
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/traces/not-hex!").status, 400);
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/traces/00000000000000000").status,
            400);  // 17 digits
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/traces/deadbeef").status, 404);
  EXPECT_EQ(Fetch(ts.port(), "GET", "/v1/traces?limit=nope").status, 400);
  const ClientResult list = Fetch(ts.port(), "GET", "/v1/traces?limit=5");
  ASSERT_EQ(list.status, 200);
  const util::JsonValue json = ParseBody(list);
  ASSERT_NE(json.Find("spans"), nullptr);
}

TEST(HttpObservabilityTest, TracingDoesNotChangeDecompositionResults) {
  // Bit-identicality: the same request with and without an explicit trace
  // id (and on a fresh service with tracing wired) returns identical
  // numbers. The second response is a cache hit by design; use two servers
  // so both runs exercise the engine.
  std::vector<Count> traced;
  std::vector<Count> untraced;
  const std::string body =
      R"({"graph": "g1", "kind": "tip-V", "algo": "RECEIPT", "partitions": 5})";
  const auto numbers = [](const util::JsonValue& json) {
    std::vector<Count> result;
    const util::JsonValue* array = json.Find("numbers");
    EXPECT_NE(array, nullptr);
    if (array == nullptr) return result;
    for (const util::JsonValue& item : array->Items()) {
      result.push_back(item.AsUint());
    }
    return result;
  };
  {
    TestServer ts;
    ts.registry.Register("g1", G1());
    const ClientResult r = Fetch(ts.port(), "POST", "/v1/decompose", body,
                                 {{"X-Request-Id", "feed1"}});
    ASSERT_EQ(r.status, 200);
    traced = numbers(ParseBody(r));
  }
  {
    TestServer ts;
    ts.registry.Register("g1", G1());
    const ClientResult r = Fetch(ts.port(), "POST", "/v1/decompose", body);
    ASSERT_EQ(r.status, 200);
    untraced = numbers(ParseBody(r));
  }
  ASSERT_FALSE(traced.empty());
  EXPECT_EQ(traced, untraced);
}

}  // namespace
}  // namespace receipt::server
