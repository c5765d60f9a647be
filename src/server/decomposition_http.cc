#include "server/decomposition_http.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "obs/trace.h"
#include "server/http_helpers.h"
#include "util/json.h"

namespace receipt::server {

namespace {

using service::Request;
using service::Response;
using service::Status;

/// The request's trace identity: its X-Request-Id (see
/// obs::ParseOrMintTraceId), else a freshly minted id.
uint64_t TraceIdFor(const HttpRequest& request) {
  const auto it = request.headers.find("x-request-id");
  return it != request.headers.end() ? obs::ParseOrMintTraceId(it->second)
                                     : obs::MintTraceId();
}

/// The one description of a resident graph both /v1/graphs responses share.
void WriteGraphInfo(const std::string& name,
                    const service::GraphHandle& handle,
                    util::JsonWriter* writer) {
  writer->Key("name").String(name)
      .Key("epoch").Uint(handle.epoch())
      .Key("num_u").Uint(handle.graph().num_u())
      .Key("num_v").Uint(handle.graph().num_v())
      .Key("num_edges").Uint(handle.graph().num_edges());
}

/// Strict hex trace-id parse for /v1/traces/{id} lookups (1–16 hex digits).
/// Unlike ParseOrMintTraceId this never mints or hashes: a malformed id is
/// a 400, not a lookup of some derived id.
bool ParseStrictTraceId(std::string_view text, uint64_t* id) {
  if (text.empty() || text.size() > 16) return false;
  uint64_t value = 0;
  for (const char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *id = value;
  return true;
}

void WriteSpanJson(const obs::TraceSpan& span, util::JsonWriter* writer) {
  writer->BeginObject()
      .Key("trace_id").String(obs::FormatTraceId(span.trace_id))
      .Key("name").String(std::string(span.Name()))
      .Key("start_ns").Uint(span.start_ns)
      .Key("duration_ns").Uint(span.duration_ns)
      .Key("arg").Uint(span.arg)
      .EndObject();
}

/// p50/p95/p99 summary of one latency histogram, in seconds.
void WriteQuantiles(const char* key, const obs::Histogram& histogram,
                    util::JsonWriter* writer) {
  writer->Key(key)
      .BeginObject()
      .Key("count").Uint(histogram.Count())
      .Key("p50_seconds").Double(histogram.Quantile(0.50))
      .Key("p95_seconds").Double(histogram.Quantile(0.95))
      .Key("p99_seconds").Double(histogram.Quantile(0.99))
      .EndObject();
}

}  // namespace

DecompositionHttpFrontend::DecompositionHttpFrontend(
    service::GraphRegistry& registry, service::DecompositionService& service,
    HttpServer& server, bool register_routes)
    : registry_(&registry),
      service_(&service),
      server_(&server),
      obs_(&service.observability()) {
  obs::MetricsRegistry& m = obs_->metrics;
  http_request_seconds_ = m.GetHistogram(
      "receipt_http_request_seconds",
      "Wall time of /v1/decompose handling, socket parse to response body");
  constexpr const char* kRoutePaths[kNumRoutes] = {
      "/v1/decompose",      "/v1/graphs", "/v1/graphs/{name}/edges",
      "/v1/admin/snapshot", "/healthz",   "/statz",
      "/metrics",           "/v1/traces", "/v1/traces/{id}"};
  for (size_t route = 0; route < kNumRoutes; ++route) {
    requests_[route] =
        m.GetCounter("receipt_http_requests_total",
                     "HTTP requests dispatched to a handler, by path",
                     {{"path", kRoutePaths[route]}});
  }
  rejected_busy_ = m.GetCounter(
      "receipt_http_rejected_busy_total",
      "Decompose requests refused with 429 because the queue was full");
  disconnect_cancels_ = m.GetCounter(
      "receipt_http_disconnect_cancels_total",
      "Decompose tickets abandoned because the client disconnected");
  graphs_registered_ = m.GetCounter("receipt_http_graphs_registered_total",
                                    "Graphs registered over POST /v1/graphs");
  edge_batches_ = m.GetCounter("receipt_http_edge_batches_total",
                               "Edge batches accepted over HTTP");
  snapshots_taken_ = m.GetCounter(
      "receipt_http_snapshots_taken_total",
      "Graph snapshots written by POST /v1/admin/snapshot");
  if (!register_routes) return;
  server.Handle("POST", "/v1/decompose",
                [this](const HttpRequest& r) { return HandleDecompose(r); });
  server.Handle("GET", "/v1/graphs",
                [this](const HttpRequest& r) { return HandleListGraphs(r); });
  server.Handle("POST", "/v1/graphs", [this](const HttpRequest& r) {
    return HandleRegisterGraph(r);
  });
  server.HandlePrefix("POST", "/v1/graphs/", [this](const HttpRequest& r) {
    return HandleGraphEdges(r);
  });
  server.Handle("POST", "/v1/admin/snapshot", [this](const HttpRequest& r) {
    return HandleAdminSnapshot(r);
  });
  server.Handle("GET", "/healthz",
                [this](const HttpRequest& r) { return HandleHealthz(r); });
  server.Handle("GET", "/statz",
                [this](const HttpRequest& r) { return HandleStatz(r); });
  server.Handle("GET", "/metrics",
                [this](const HttpRequest& r) { return HandleMetrics(r); });
  server.Handle("GET", "/v1/traces",
                [this](const HttpRequest& r) { return HandleTraces(r); });
  server.HandlePrefix("GET", "/v1/traces/", [this](const HttpRequest& r) {
    return HandleTraceById(r);
  });
}

HttpResponse DecompositionHttpFrontend::HandleDecompose(
    const HttpRequest& http_request) {
  const uint64_t handler_start_ns = obs::TraceRecorder::NowNs();
  CountHttpRequest(kDecompose);

  // Mint (or accept) the request's trace identity before anything can fail,
  // so even a 400 carries the id the client can look up.
  const uint64_t trace_id = TraceIdFor(http_request);
  obs::TraceContext trace{&obs_->traces, trace_id};
  const std::string trace_id_text = obs::FormatTraceId(trace_id);

  // Socket read + header parse happened before dispatch; backdate the span
  // to cover it.
  if (http_request.parse_ns != 0 && handler_start_ns > http_request.parse_ns) {
    trace.Emit("http.parse", handler_start_ns - http_request.parse_ns,
               http_request.parse_ns, http_request.body.size());
  }

  auto finish = [&](HttpResponse response) {
    response.extra_headers.emplace_back("X-Request-Id", trace_id_text);
    http_request_seconds_->Observe(obs::TraceRecorder::NowNs() -
                                   handler_start_ns);
    return response;
  };

  const uint64_t parse_start_ns = obs::TraceRecorder::NowNs();
  std::string error;
  const auto json = util::JsonValue::Parse(http_request.body, &error);
  if (!json) return finish(JsonError(400, "malformed JSON: " + error));
  Request request;
  if (!service::RequestFromJson(*json, &request, &error)) {
    return finish(JsonError(400, error));
  }
  trace.EmitSince("request.parse", parse_start_ns);
  request.trace = trace;

  auto ticket = service_->TrySubmitTicket(request);
  if (!ticket) {
    rejected_busy_->Increment();
    return finish(JsonError(429, "request queue is full"));
  }

  // Wait for the engine, watching the socket: a client that hangs up stops
  // paying for the answer, so withdraw this submitter's interest (the
  // service cancels the run once no coalesced twin remains).
  const std::shared_future<Response>& future = ticket->future();
  for (;;) {
    if (future.wait_for(std::chrono::milliseconds(20)) ==
        std::future_status::ready) {
      break;
    }
    if (http_request.ClientDisconnected()) {
      disconnect_cancels_->Increment();
      service_->Abandon(*ticket);
      // 499 is written into a dead socket — harmless — but keeps the
      // response path uniform and the stats honest.
      return finish(JsonError(499, "client disconnected; request abandoned"));
    }
  }

  const Response response = future.get();
  const uint64_t serialize_start_ns = obs::TraceRecorder::NowNs();
  util::JsonWriter writer;
  service::WriteResponseJson(request, response, &writer);
  HttpResponse http_response;
  http_response.status = HttpStatusFor(response.status);
  http_response.body = writer.Take();
  if (http_response.status == 200) {
    SetGraphEpochHeader(response.graph_epoch, &http_response);
  }
  trace.EmitSince("response.serialize", serialize_start_ns,
                  http_response.body.size());
  return finish(std::move(http_response));
}

HttpResponse DecompositionHttpFrontend::HandleMetrics(const HttpRequest&) {
  CountHttpRequest(kMetrics);
  // The service's families, then the transport's: disjoint names, so
  // every family keeps one # TYPE line.
  return PrometheusText(obs_->metrics.RenderPrometheus() +
                        server_->metrics().RenderPrometheus());
}

HttpResponse DecompositionHttpFrontend::HandleTraces(
    const HttpRequest& http_request) {
  CountHttpRequest(kTraces);
  size_t limit = 256;
  if (http_request.query.compare(0, 6, "limit=") == 0) {
    const std::string value = http_request.query.substr(6);
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return JsonError(400, "'limit' must be a non-negative integer");
    }
    limit = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
  } else if (!http_request.query.empty()) {
    return JsonError(400, "unsupported query; use ?limit=N");
  }

  const std::vector<obs::TraceSpan> spans = obs_->traces.Snapshot(limit);
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("capacity").Uint(obs_->traces.capacity())
      .Key("recorded").Uint(obs_->traces.recorded())
      .Key("spans").BeginArray();
  for (const obs::TraceSpan& span : spans) WriteSpanJson(span, &writer);
  writer.EndArray().EndObject();
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleTraceById(
    const HttpRequest& http_request) {
  CountHttpRequest(kTraceById);
  constexpr std::string_view kPrefix = "/v1/traces/";
  const std::string id_text = http_request.path.substr(kPrefix.size());
  uint64_t trace_id = 0;
  if (!ParseStrictTraceId(id_text, &trace_id)) {
    return JsonError(400, "trace id must be 1-16 hex digits");
  }
  const std::vector<obs::TraceSpan> spans = obs_->traces.ForTrace(trace_id);
  if (spans.empty()) {
    return JsonError(404, "no spans recorded for trace '" + id_text +
                              "' (evicted from the ring, or never traced)");
  }
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("trace_id").String(obs::FormatTraceId(trace_id))
      .Key("spans").BeginArray();
  for (const obs::TraceSpan& span : spans) WriteSpanJson(span, &writer);
  writer.EndArray().EndObject();
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleListGraphs(const HttpRequest&) {
  CountHttpRequest(kGraphs);
  util::JsonWriter writer;
  writer.BeginObject().Key("graphs").BeginArray();
  for (const std::string& name : registry_->Names()) {
    const service::GraphHandle handle = registry_->Acquire(name);
    if (!handle) continue;  // evicted between Names() and Acquire()
    writer.BeginObject();
    WriteGraphInfo(name, handle, &writer);
    writer.EndObject();
  }
  writer.EndArray().EndObject();
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleRegisterGraph(
    const HttpRequest& http_request) {
  CountHttpRequest(kGraphs);
  std::string error;
  const auto json = util::JsonValue::Parse(http_request.body, &error);
  if (!json) return JsonError(400, "malformed JSON: " + error);
  if (!json->IsObject()) {
    return JsonError(400, "request body must be a JSON object");
  }

  std::string name;
  if (!json->GetString("name", &name) || name.empty()) {
    return JsonError(400, "missing required string field 'name'");
  }
  std::string path;
  std::string dataset;
  const bool has_path = json->GetString("path", &path);
  const bool has_dataset = json->GetString("dataset", &dataset);
  if (has_path == has_dataset) {
    return JsonError(400, "provide exactly one of 'path' or 'dataset'");
  }

  // Registration goes through the service so it is journaled before it is
  // acknowledged (and the superseded epoch's cache entries are dropped):
  // a 200 here means a crashed-and-recovered server still has the graph.
  Status status;
  if (has_path) {
    status = service_->RegisterGraphFile(name, path, nullptr, &error);
  } else {
    const std::vector<std::string>& names = PaperAnalogueNames();
    if (std::find(names.begin(), names.end(), dataset) == names.end()) {
      return JsonError(400, "unknown dataset '" + dataset + "'");
    }
    status = service_->RegisterGraph(name, MakePaperAnalogue(dataset),
                                     nullptr, &error);
  }
  if (status != Status::kOk) {
    return JsonError(HttpStatusFor(status), error);
  }
  graphs_registered_->Increment();

  const service::GraphHandle handle = registry_->Acquire(name);
  if (!handle) {
    // A concurrent Evict between Register and Acquire: the registration
    // happened, but there is no entry left to describe.
    return JsonError(404, "graph '" + name + "' was evicted concurrently");
  }
  util::JsonWriter writer;
  writer.BeginObject().Key("status").String("ok");
  WriteGraphInfo(name, handle, &writer);
  writer.EndObject();
  HttpResponse response;
  response.body = writer.Take();
  SetGraphEpochHeader(handle.epoch(), &response);
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleGraphEdges(
    const HttpRequest& http_request, service::ApplyResult* applied) {
  CountHttpRequest(kGraphEdges);

  // Path: /v1/graphs/{name}/edges (the registration route is the exact
  // match "/v1/graphs", so everything under the prefix lands here).
  const std::string name = GraphNameFromEdgesPath(http_request.path);
  if (name.empty()) {
    return JsonError(404, "no such endpoint; use /v1/graphs/{name}/edges");
  }

  const uint64_t trace_id = TraceIdFor(http_request);
  obs::TraceContext trace{&obs_->traces, trace_id};
  const std::string trace_id_text = obs::FormatTraceId(trace_id);
  auto finish = [&](HttpResponse response) {
    response.extra_headers.emplace_back("X-Request-Id", trace_id_text);
    return response;
  };

  std::string error;
  const auto json = util::JsonValue::Parse(http_request.body, &error);
  if (!json) return finish(JsonError(400, "malformed JSON: " + error));
  if (!json->IsObject()) {
    return finish(JsonError(400, "request body must be a JSON object"));
  }

  const util::JsonValue* edges = json->Find("edges");
  if (edges == nullptr || !edges->IsArray()) {
    return finish(JsonError(400, "missing required array field 'edges'"));
  }
  std::vector<service::EdgeUpdate> updates;
  updates.reserve(edges->Items().size());
  for (const util::JsonValue& item : edges->Items()) {
    if (!item.IsObject()) {
      return finish(JsonError(400, "'edges' entries must be objects"));
    }
    service::EdgeUpdate update;
    std::string op;
    if (item.GetString("op", &op)) {
      if (op == "insert" || op == "+") {
        update.insert = true;
      } else if (op == "delete" || op == "-") {
        update.insert = false;
      } else {
        return finish(JsonError(400, "'op' must be 'insert' or 'delete'"));
      }
    }
    int64_t u = -1;
    int64_t v = -1;
    if (!item.GetInt("u", &u) || !item.GetInt("v", &v) || u < 0 || v < 0 ||
        u > UINT32_MAX || v > UINT32_MAX) {
      return finish(
          JsonError(400, "'edges' entries need side-local 'u' and 'v' ids"));
    }
    update.u = static_cast<VertexId>(u);
    update.v = static_cast<VertexId>(v);
    updates.push_back(update);
  }

  bool seal = false;
  json->GetBool("seal", &seal);
  int64_t threads = 0;
  json->GetInt("threads", &threads);
  if (threads < 0 || threads > 1024) {
    return finish(JsonError(400, "'threads' out of range"));
  }

  std::vector<service::LiveConfig> track;
  if (const util::JsonValue* track_json = json->Find("track");
      track_json != nullptr) {
    if (!track_json->IsArray()) {
      return finish(JsonError(400, "'track' must be an array"));
    }
    for (const util::JsonValue& item : track_json->Items()) {
      if (!item.IsObject()) {
        return finish(JsonError(400, "'track' entries must be objects"));
      }
      service::LiveConfig config;
      std::string kind;
      if (!item.GetString("kind", &kind) ||
          !service::RequestKindFromName(kind, &config.kind)) {
        return finish(JsonError(
            400, "'track' entries need 'kind' (tip-U, tip-V or wing)"));
      }
      if (int64_t partitions = 0; item.GetInt("partitions", &partitions)) {
        if (partitions < 1 || partitions > 100000) {
          return finish(JsonError(400, "'partitions' out of range"));
        }
        config.partitions = static_cast<uint32_t>(partitions);
      }
      track.push_back(config);
    }
  }

  const uint64_t apply_start_ns = obs::TraceRecorder::NowNs();
  service::ApplyResult local;
  service::ApplyResult& result = applied != nullptr ? *applied : local;
  result = service_->live().ApplyEdges(name, updates, seal,
                                       static_cast<int>(threads), track);
  trace.EmitSince("live.apply", apply_start_ns, updates.size());
  if (result.status != Status::kOk) {
    return finish(JsonError(HttpStatusFor(result.status), result.error));
  }
  edge_batches_->Increment();

  util::JsonWriter writer;
  writer.BeginObject()
      .Key("status").String("ok")
      .Key("graph").String(name)
      .Key("accepted").Uint(result.accepted)
      .Key("pending").Uint(result.pending)
      .Key("sealed").Bool(result.sealed)
      .Key("epoch").Uint(result.epoch);
  if (result.sealed) {
    writer.Key("seal_seconds").Double(result.seal_seconds);
    writer.Key("runs").BeginArray();
    for (const service::SealConfigReport& report : result.reports) {
      writer.BeginObject()
          .Key("kind").String(service::RequestKindName(report.config.kind))
          .Key("partitions").Uint(report.config.partitions)
          .Key("subsets_total").Uint(report.subsets_total)
          .EndObject();
    }
    writer.EndArray();
  }
  writer.EndObject();
  HttpResponse response;
  response.body = writer.Take();
  SetGraphEpochHeader(result.epoch, &response);
  return finish(std::move(response));
}

HttpResponse DecompositionHttpFrontend::HandleAdminSnapshot(
    const HttpRequest& http_request) {
  CountHttpRequest(kAdminSnapshot);
  if (!service_->durable()) {
    return JsonError(
        400, "durability is not enabled; start the server with --data-dir");
  }

  // Optional body {"graph": "<name>"} snapshots one graph; an empty body
  // (or {}) snapshots every registered graph.
  std::vector<std::string> names;
  if (!http_request.body.empty()) {
    std::string error;
    const auto json = util::JsonValue::Parse(http_request.body, &error);
    if (!json) return JsonError(400, "malformed JSON: " + error);
    if (!json->IsObject()) {
      return JsonError(400, "request body must be a JSON object");
    }
    std::string graph;
    if (json->GetString("graph", &graph)) names.push_back(graph);
  }
  if (names.empty()) names = registry_->Names();

  util::JsonWriter writer;
  writer.BeginObject().Key("status").String("ok").Key("snapshots")
      .BeginArray();
  for (const std::string& name : names) {
    std::string error;
    const Status status = service_->SnapshotGraph(name, &error);
    if (status != Status::kOk) {
      return JsonError(HttpStatusFor(status),
                       "snapshot of '" + name + "' failed: " + error);
    }
    snapshots_taken_->Increment();
    writer.String(name);
  }
  writer.EndArray().EndObject();
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleHealthz(const HttpRequest&) {
  CountHttpRequest(kHealthz);
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("status").String("ok")
      .Key("graphs").Uint(registry_->size())
      .EndObject();
  HttpResponse response;
  response.body = writer.Take();
  return response;
}

HttpResponse DecompositionHttpFrontend::HandleStatz(const HttpRequest&) {
  CountHttpRequest(kStatz);
  HttpResponse response;
  response.body = StatzJson();
  return response;
}

std::string DecompositionHttpFrontend::StatzJson() const {
  const service::DecompositionService::Stats service_stats =
      service_->stats();
  const service::ResultCache::Stats cache = service_->cache_stats();
  const HttpServer::Stats http = server_->stats();
  const Stats frontend = stats();
  const size_t workers = static_cast<size_t>(service_->num_workers());
  const size_t idle = std::min(service_->IdleWorkers(), workers);
  const uint64_t cache_lookups = cache.hits + cache.misses;

  util::JsonWriter writer;
  writer.BeginObject();
  writer.Key("queue")
      .BeginObject()
      .Key("depth").Uint(service_->QueueDepth())
      .Key("capacity").Uint(service_->queue_capacity())
      .EndObject();
  writer.Key("workers")
      .BeginObject()
      .Key("total").Uint(workers)
      .Key("idle").Uint(idle)
      .Key("busy").Uint(workers - idle)
      .EndObject();
  writer.Key("requests")
      .BeginObject()
      .Key("submitted").Uint(service_stats.submitted)
      .Key("completed").Uint(service_stats.completed)
      .Key("engine_runs").Uint(service_stats.engine_runs)
      .Key("cache_hits").Uint(service_stats.cache_hits)
      .Key("coalesced").Uint(service_stats.coalesced)
      .Key("batched_follow_ons").Uint(service_stats.batched_follow_ons)
      .Key("cancelled").Uint(service_stats.cancelled)
      .Key("abandoned").Uint(service_stats.abandoned)
      .Key("by_outcome")
      .BeginObject();
  for (const service::Status status :
       {service::Status::kOk, service::Status::kNotFound,
        service::Status::kBadRequest, service::Status::kCancelled,
        service::Status::kShutdown}) {
    writer.Key(service::StatusName(status))
        .Uint(service_->RequestsWithOutcome(status));
  }
  writer.EndObject().EndObject();
  writer.Key("cache")
      .BeginObject()
      .Key("entries").Uint(cache.entries)
      .Key("bytes").Uint(cache.bytes)
      .Key("hits").Uint(cache.hits)
      .Key("misses").Uint(cache.misses)
      .Key("insertions").Uint(cache.insertions)
      .Key("evictions").Uint(cache.evictions)
      .Key("epoch_drops").Uint(cache.epoch_drops)
      .Key("hit_rate")
      .Double(cache_lookups == 0
                  ? 0.0
                  : static_cast<double>(cache.hits) /
                        static_cast<double>(cache_lookups))
      .EndObject();
  writer.Key("http")
      .BeginObject()
      .Key("connections_accepted").Uint(http.connections_accepted)
      .Key("connections_rejected").Uint(http.connections_rejected)
      .Key("requests").Uint(http.requests)
      .Key("keepalive_reuses").Uint(http.keepalive_reuses)
      .Key("responses_2xx").Uint(http.responses_2xx)
      .Key("responses_3xx").Uint(http.responses_3xx)
      .Key("responses_4xx").Uint(http.responses_4xx)
      .Key("responses_5xx").Uint(http.responses_5xx)
      .Key("parse_failures").Uint(http.parse_failures)
      .Key("decompose_requests").Uint(frontend.decompose_requests)
      .Key("rejected_busy").Uint(frontend.rejected_busy)
      .Key("disconnect_cancels").Uint(frontend.disconnect_cancels)
      .Key("graphs_registered").Uint(frontend.graphs_registered)
      .Key("edge_batches").Uint(frontend.edge_batches)
      .Key("snapshots_taken").Uint(frontend.snapshots_taken)
      .EndObject();
  const service::LiveGraphManager::Stats live = service_->live().stats();
  writer.Key("live")
      .BeginObject()
      .Key("batches").Uint(live.batches_total)
      .Key("updates").Uint(live.updates_total)
      .Key("pending_edges").Uint(live.pending_edges)
      .Key("seals").Uint(live.seals_total)
      .Key("runs_full").Uint(live.runs_full)
      .Key("baselines_built").Uint(live.baselines_built)
      .EndObject();
  writer.Key("durability").BeginObject();
  writer.Key("enabled").Bool(service_->durable());
  if (service_->durable()) {
    const durability::DurabilityStats d = service_->durability()->stats();
    const durability::RecoveryReport& recovery = service_->recovery_report();
    writer.Key("fsync").String(durability::FsyncPolicyName(d.fsync))
        .Key("snapshot_on_seal").Bool(d.snapshot_on_seal)
        .Key("journal")
        .BeginObject()
        .Key("appends").Uint(d.journal.appends)
        .Key("append_failures").Uint(d.journal.append_failures)
        .Key("bytes_written").Uint(d.journal.bytes_written)
        .Key("fsyncs").Uint(d.journal.fsyncs)
        .Key("rotations").Uint(d.journal.rotations)
        .Key("segments_dropped").Uint(d.journal.segments_dropped)
        .Key("current_segment").Uint(d.journal.current_segment)
        .Key("broken").Bool(d.journal.broken)
        .EndObject()
        .Key("snapshots")
        .BeginObject()
        .Key("written").Uint(d.snapshots_written)
        .Key("failures").Uint(d.snapshot_failures)
        .EndObject()
        .Key("recovery")
        .BeginObject()
        .Key("fresh_start").Bool(recovery.fresh_start)
        .Key("snapshots_loaded").Uint(recovery.snapshots_loaded)
        .Key("graphs_recovered").Uint(recovery.graphs_recovered)
        .Key("records_scanned").Uint(recovery.records_scanned)
        .Key("batches_replayed").Uint(recovery.batches_replayed)
        .Key("seals_replayed").Uint(recovery.seals_replayed)
        .Key("torn_tail").Bool(recovery.torn_tail)
        .Key("seconds").Double(recovery.seconds)
        .EndObject();
  }
  writer.EndObject();
  // Growth counters are relaxed atomics, so sampling them mid-request is
  // safe; a steady-state workload shows this flat (hot path allocation-free).
  writer.Key("workspace_growths").Uint(service_->WorkspaceGrowths());
  writer.Key("latency").BeginObject();
  WriteQuantiles("request", *service_->request_latency_histogram(), &writer);
  WriteQuantiles("queue_wait", *service_->queue_wait_histogram(), &writer);
  WriteQuantiles("engine_run", *service_->engine_run_histogram(), &writer);
  writer.EndObject();
  writer.Key("traces")
      .BeginObject()
      .Key("recorded").Uint(obs_->traces.recorded())
      .Key("capacity").Uint(obs_->traces.capacity())
      .EndObject();
  writer.EndObject();
  return writer.Take();
}

DecompositionHttpFrontend::Stats DecompositionHttpFrontend::stats() const {
  Stats stats;
  stats.decompose_requests = requests_[kDecompose]->Value();
  stats.rejected_busy = rejected_busy_->Value();
  stats.disconnect_cancels = disconnect_cancels_->Value();
  stats.graphs_registered = graphs_registered_->Value();
  stats.edge_batches = edge_batches_->Value();
  stats.snapshots_taken = snapshots_taken_->Value();
  return stats;
}

}  // namespace receipt::server
