#include "cluster/node.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "durability/journal.h"
#include "server/http_helpers.h"
#include "service/live_graph.h"
#include "util/json.h"

namespace receipt::cluster {

namespace {

using server::GraphNameFromBody;
using server::GraphNameFromEdgesPath;
using server::HttpRequest;
using server::HttpResponse;
using server::HttpStatusFor;
using server::JsonError;
using server::QueryParam;

/// `records` as one body of journal frames, in order.
std::string EncodeFrames(const std::vector<durability::JournalRecord>& records) {
  std::string frames;
  for (const durability::JournalRecord& record : records) {
    frames += durability::EncodeFrame(record);
  }
  return frames;
}

uint64_t MinEpochHeader(const HttpRequest& request) {
  const auto it = request.headers.find("x-cluster-min-epoch");
  if (it == request.headers.end()) return 0;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Headers a proxied request carries onward: the end-to-end request id,
/// the client identity, and the router's monotonic-read floor.
std::vector<std::pair<std::string, std::string>> PropagatedHeaders(
    const HttpRequest& request) {
  std::vector<std::pair<std::string, std::string>> headers;
  for (const char* name :
       {"x-request-id", "x-client-id", "x-cluster-min-epoch"}) {
    if (const auto it = request.headers.find(name);
        it != request.headers.end()) {
      headers.emplace_back(name, it->second);
    }
  }
  return headers;
}

/// receipt_cluster_<field>_total in `service`'s registry.
obs::Counter* ClusterCounter(service::DecompositionService& service,
                             const std::string& field, const char* help) {
  return service.observability().metrics.GetCounter(
      "receipt_cluster_" + field + "_total", help);
}

}  // namespace

bool ParseClusterMembers(const std::string& spec,
                         std::vector<ClusterMember>* out,
                         std::string* error) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (pos > spec.size()) break;
      if (error != nullptr) *error = "empty member entry in '" + spec + "'";
      return false;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      if (error != nullptr) {
        *error = "member entry '" + entry + "' is not id=host:port";
      }
      return false;
    }
    ClusterMember member;
    member.id = entry.substr(0, eq);
    std::string endpoint = entry.substr(eq + 1);
    const size_t colon = endpoint.rfind(':');
    if (colon != std::string::npos) {
      member.host = endpoint.substr(0, colon);
      endpoint = endpoint.substr(colon + 1);
    }
    char* parse_end = nullptr;
    const unsigned long port = std::strtoul(endpoint.c_str(), &parse_end, 10);
    if (endpoint.empty() || *parse_end != '\0' || port > 65535) {
      if (error != nullptr) {
        *error = "member entry '" + entry + "' has an invalid port";
      }
      return false;
    }
    member.port = static_cast<uint16_t>(port);
    out->push_back(std::move(member));
  }
  if (out->empty()) {
    if (error != nullptr) *error = "no cluster members in '" + spec + "'";
    return false;
  }
  return true;
}

ClusterNode::ClusterNode(const ClusterNodeOptions& options,
                         service::GraphRegistry& registry,
                         service::DecompositionService& service,
                         server::DecompositionHttpFrontend& frontend,
                         server::HttpServer& server)
    : options_(options),
      registry_(&registry),
      service_(&service),
      frontend_(&frontend),
      ring_([&options] {
        std::vector<std::string> ids;
        ids.reserve(options.members.size());
        for (const ClusterMember& m : options.members) ids.push_back(m.id);
        return ids;
      }()),
      client_(options.peer_timeout_ms),
      local_reads_(ClusterCounter(service, "local_reads",
                                  "Decomposes served from this replica")),
      proxied_(ClusterCounter(service, "proxied",
                              "Requests answered by proxying to a peer")),
      redirected_(ClusterCounter(service, "redirected",
                                 "Requests answered 307 to their owner")),
      stale_rejects_(ClusterCounter(
          service, "stale_rejects",
          "Reads refused 412: replica below X-Cluster-Min-Epoch")),
      replicated_out_(ClusterCounter(
          service, "replicated_out",
          "Write fan-outs a holder applied, one per holder per write")),
      replication_failures_(ClusterCounter(
          service, "replication_failures",
          "Write fan-outs to a holder that failed or were refused")),
      chain_syncs_(ClusterCounter(
          service, "chain_syncs",
          "Full-state syncs sent to a holder whose chain diverged")),
      replicated_applies_(ClusterCounter(
          service, "replicated_applies",
          "Bodies of journal frames applied from the owner")) {
  for (const ClusterMember& member : options.members) {
    members_[member.id] = member;
  }

  server.Handle("POST", "/v1/decompose", [this](const HttpRequest& r) {
    return HandleDecompose(r);
  });
  server.Handle("GET", "/v1/graphs", [this](const HttpRequest& r) {
    return frontend_->HandleListGraphs(r);
  });
  server.Handle("POST", "/v1/graphs", [this](const HttpRequest& r) {
    return HandleRegister(r);
  });
  server.HandlePrefix("POST", "/v1/graphs/", [this](const HttpRequest& r) {
    return HandleEdges(r);
  });
  server.Handle("POST", "/v1/admin/snapshot", [this](const HttpRequest& r) {
    return frontend_->HandleAdminSnapshot(r);
  });
  server.Handle("GET", "/healthz", [this](const HttpRequest& r) {
    return frontend_->HandleHealthz(r);
  });
  server.Handle("GET", "/statz", [this](const HttpRequest& r) {
    return frontend_->HandleStatz(r);
  });
  server.Handle("GET", "/metrics", [this](const HttpRequest& r) {
    return frontend_->HandleMetrics(r);
  });
  server.Handle("GET", "/v1/traces", [this](const HttpRequest& r) {
    return frontend_->HandleTraces(r);
  });
  server.HandlePrefix("GET", "/v1/traces/", [this](const HttpRequest& r) {
    return frontend_->HandleTraceById(r);
  });
  server.Handle("POST", "/v1/cluster/apply", [this](const HttpRequest& r) {
    return HandleClusterApply(r);
  });
  server.Handle("GET", "/v1/cluster/info", [this](const HttpRequest& r) {
    return HandleInfo(r);
  });
  server.Handle("GET", "/v1/cluster/route", [this](const HttpRequest& r) {
    return HandleRoute(r);
  });
}

void ClusterNode::SetMemberEndpoint(const std::string& id,
                                    const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(members_mu_);
  const auto it = members_.find(id);
  if (it == members_.end()) return;
  it->second.host = host;
  it->second.port = port;
}

ClusterMember ClusterNode::MemberById(const std::string& id) const {
  std::lock_guard<std::mutex> lock(members_mu_);
  const auto it = members_.find(id);
  return it == members_.end() ? ClusterMember{} : it->second;
}

bool ClusterNode::IsOwner(const std::string& graph) const {
  return ring_.Owner(graph) == options_.self_id;
}

std::vector<std::string> ClusterNode::HoldersOf(
    const std::string& graph) const {
  return ring_.Holders(graph, options_.replication_factor);
}

ClusterNode::Stats ClusterNode::stats() const {
  Stats s;
  s.local_reads = local_reads_->Value();
  s.proxied = proxied_->Value();
  s.redirected = redirected_->Value();
  s.stale_rejects = stale_rejects_->Value();
  s.replicated_out = replicated_out_->Value();
  s.replication_failures = replication_failures_->Value();
  s.chain_syncs = chain_syncs_->Value();
  s.replicated_applies = replicated_applies_->Value();
  return s;
}

HttpResponse ClusterNode::ForwardToMember(const std::string& member_id,
                                          const HttpRequest& request) {
  const ClusterMember member = MemberById(member_id);
  if (member.id.empty() || member.port == 0) {
    return JsonError(503, "no endpoint known for cluster member '" +
                              member_id + "'");
  }
  std::string target = request.path;
  if (!request.query.empty()) target += "?" + request.query;
  if (!options_.proxy) {
    redirected_->Increment();
    HttpResponse response;
    response.status = 307;
    response.extra_headers.emplace_back(
        "Location", "http://" + member.host + ":" +
                        std::to_string(member.port) + target);
    util::JsonWriter json;
    json.BeginObject()
        .Key("status").String("redirect")
        .Key("owner").String(member.id)
        .EndObject();
    response.body = json.Take();
    return response;
  }
  HttpClientResponse upstream;
  std::string error;
  if (!client_.Request(request.method, member.host, member.port, target,
                       request.body, PropagatedHeaders(request), &upstream,
                       &error)) {
    return JsonError(503, "cluster member '" + member.id +
                              "' is unreachable: " + error);
  }
  proxied_->Increment();
  // Echo the upstream's id: it names the trace the upstream recorded.
  const auto id = upstream.headers.find("x-request-id");
  return RelayUpstream(&upstream, id != upstream.headers.end()
                                      ? std::string_view(id->second)
                                      : std::string_view());
}

HttpResponse ClusterNode::HandleDecompose(const HttpRequest& request) {
  const std::string graph = GraphNameFromBody(request.body, "graph");
  if (graph.empty()) return frontend_->HandleDecompose(request);

  if (const service::GraphHandle handle = registry_->Acquire(graph)) {
    // Monotonic reads: never serve below the client's known epoch. The
    // router fails over to a holder that has caught up (the owner always
    // qualifies — it minted the epoch).
    const uint64_t min_epoch = MinEpochHeader(request);
    if (min_epoch != 0 && handle.epoch() < min_epoch) {
      stale_rejects_->Increment();
      return JsonError(412, "replica '" + options_.self_id + "' holds '" +
                                graph + "' at epoch " +
                                std::to_string(handle.epoch()) +
                                ", below required " +
                                std::to_string(min_epoch));
    }
    local_reads_->Increment();
    return frontend_->HandleDecompose(request);
  }

  // Not resident here. A holder that simply never saw the registration
  // defers to the owner; a non-holder routes to the owner outright; the
  // owner itself answers the authoritative 404.
  const std::string owner = ring_.Owner(graph);
  if (owner == options_.self_id || owner.empty()) {
    return frontend_->HandleDecompose(request);
  }
  return ForwardToMember(owner, request);
}

HttpResponse ClusterNode::HandleRegister(const HttpRequest& request) {
  const std::string name = GraphNameFromBody(request.body, "name");
  if (name.empty()) return frontend_->HandleRegisterGraph(request);
  if (!IsOwner(name)) return ForwardToMember(ring_.Owner(name), request);

  std::lock_guard<std::mutex> lock(write_mu_);
  HttpResponse response = frontend_->HandleRegisterGraph(request);
  if (response.status == 200) {
    Replicate(name, EncodeFrames(service_->live().StateRecords(name)), "");
  }
  return response;
}

HttpResponse ClusterNode::HandleEdges(const HttpRequest& request) {
  const std::string name = GraphNameFromEdgesPath(request.path);
  if (name.empty()) return frontend_->HandleGraphEdges(request);
  if (!IsOwner(name)) return ForwardToMember(ring_.Owner(name), request);

  std::lock_guard<std::mutex> lock(write_mu_);
  // The records' position in the log is (epoch, pending count) before
  // them; the epoch travels in the records, the count on the query string.
  const size_t pending_before = service_->live().PendingEdges(name);
  service::ApplyResult applied;
  HttpResponse response = frontend_->HandleGraphEdges(request, &applied);
  // Ship exactly what the owner committed — even when a later record of
  // the same call failed, the earlier ones are history now.
  if (!applied.records.empty()) {
    Replicate(name, EncodeFrames(applied.records),
              "threads=" + std::to_string(applied.seal_threads) +
                  "&pending=" + std::to_string(pending_before));
  }
  return response;
}

bool ClusterNode::PostFrames(const ClusterMember& member,
                             const std::string& frames,
                             const std::string& query,
                             HttpClientResponse* peer) {
  if (member.port == 0) return false;
  std::string error;
  return client_.Post(member.host, member.port, "/v1/cluster/apply?" + query,
                      frames, {{"Content-Type", "application/octet-stream"}},
                      peer, &error);
}

void ClusterNode::Replicate(const std::string& name,
                            const std::string& frames,
                            const std::string& query) {
  for (const std::string& holder : HoldersOf(name)) {
    if (holder == options_.self_id) continue;
    const ClusterMember member = MemberById(holder);
    HttpClientResponse peer;
    // A holder that is down or unreachable fails here; it will 409 on its
    // next replicated write after rejoining, which triggers the sync below.
    bool sent = PostFrames(member, frames, query, &peer);
    if (sent && peer.status == 409) {
      // Diverged chain (the follower missed records while down): catch it
      // up with the records that rebuild the current state instead.
      chain_syncs_->Increment();
      sent = PostFrames(member,
                        EncodeFrames(service_->live().StateRecords(name)), "",
                        &peer);
    }
    (sent && peer.status == 200 ? replicated_out_ : replication_failures_)
        ->Increment();
  }
}

HttpResponse ClusterNode::HandleClusterApply(const HttpRequest& request) {
  // Decode every frame before applying any, so damaged bytes change
  // nothing.
  std::vector<durability::JournalRecord> records;
  std::string_view bytes = request.body;
  while (!bytes.empty()) {
    durability::JournalRecord record;
    size_t frame_bytes = 0;
    std::string error;
    switch (durability::DecodeFrame(bytes, &record, &frame_bytes, &error)) {
      case durability::FrameStatus::kOk:
        break;
      case durability::FrameStatus::kTorn:
        return JsonError(400, "truncated journal frame");
      case durability::FrameStatus::kCorrupt:
        return JsonError(400, "bad journal frame: " + error);
    }
    records.push_back(std::move(record));
    bytes.remove_prefix(frame_bytes);
  }
  if (records.empty()) return JsonError(400, "no journal frames in body");
  const int threads = std::clamp(
      std::atoi(QueryParam(request.query, "threads").c_str()), 0, 1024);
  // A follower that missed an unsealed batch is still at the owner's
  // epoch; its shorter buffer is what gives it away.
  if (const std::string pending = QueryParam(request.query, "pending");
      !pending.empty()) {
    const size_t local = service_->live().PendingEdges(records[0].graph);
    if (local != std::strtoull(pending.c_str(), nullptr, 10)) {
      return JsonError(409, "pending buffer diverged: '" + records[0].graph +
                                "' holds " + std::to_string(local) +
                                " updates, owner expected " + pending);
    }
  }

  service::ApplyResult result;
  for (const durability::JournalRecord& record : records) {
    result = service_->live().Apply(record, threads);
    if (result.status != service::Status::kOk) {
      // 409 asks the owner for a full-state sync.
      return JsonError(
          result.chain_mismatch ? 409 : HttpStatusFor(result.status),
          result.error);
    }
  }
  replicated_applies_->Increment();
  util::JsonWriter out;
  out.BeginObject()
      .Key("status").String("ok")
      .Key("graph").String(records.back().graph)
      .Key("pending").Uint(result.pending)
      .Key("epoch").Uint(result.epoch)
      .EndObject();
  HttpResponse response;
  response.body = out.Take();
  return response;
}

HttpResponse ClusterNode::HandleInfo(const HttpRequest&) {
  HttpResponse response;
  response.body = InfoJson();
  return response;
}

std::string ClusterNode::InfoJson() const {
  util::JsonWriter json;
  json.BeginObject()
      .Key("id").String(options_.self_id)
      .Key("replication").Uint(options_.replication_factor)
      .Key("proxy").Bool(options_.proxy)
      .Key("members").BeginArray();
  {
    std::lock_guard<std::mutex> lock(members_mu_);
    for (const auto& [id, member] : members_) {
      json.BeginObject()
          .Key("id").String(id)
          .Key("host").String(member.host)
          .Key("port").Uint(member.port)
          .EndObject();
    }
  }
  json.EndArray().Key("graphs").BeginArray();
  for (const std::string& name : registry_->Names()) {
    const service::GraphHandle handle = registry_->Acquire(name);
    if (!handle) continue;
    json.BeginObject()
        .Key("name").String(name)
        .Key("epoch").Uint(handle.epoch())
        .Key("owner").Bool(IsOwner(name))
        .EndObject();
  }
  json.EndArray();
  const Stats s = stats();
  json.Key("stats").BeginObject()
      .Key("local_reads").Uint(s.local_reads)
      .Key("proxied").Uint(s.proxied)
      .Key("redirected").Uint(s.redirected)
      .Key("stale_rejects").Uint(s.stale_rejects)
      .Key("replicated_out").Uint(s.replicated_out)
      .Key("replication_failures").Uint(s.replication_failures)
      .Key("chain_syncs").Uint(s.chain_syncs)
      .Key("replicated_applies").Uint(s.replicated_applies)
      .EndObject();
  json.EndObject();
  return json.Take();
}

HttpResponse ClusterNode::HandleRoute(const HttpRequest& request) {
  const std::string graph = QueryParam(request.query, "graph");
  if (graph.empty()) {
    return JsonError(400, "missing required query parameter 'graph'");
  }
  util::JsonWriter json;
  json.BeginObject()
      .Key("graph").String(graph)
      .Key("owner").String(ring_.Owner(graph))
      .Key("self").String(options_.self_id)
      .Key("holders").BeginArray();
  for (const std::string& holder : HoldersOf(graph)) json.String(holder);
  json.EndArray().EndObject();
  HttpResponse response;
  response.body = json.Take();
  return response;
}

}  // namespace receipt::cluster
