#include "service/service_types.h"

#include <algorithm>
#include <cctype>

#include "tip/bup.h"
#include "tip/parb.h"
#include "tip/receipt.h"
#include "tip/tip_common.h"
#include "util/json.h"
#include "wing/receipt_wing.h"
#include "wing/wing_decomposition.h"

namespace receipt::service {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

}  // namespace

std::shared_ptr<Payload> RunDecomposition(const BipartiteGraph& graph,
                                          const Request& request,
                                          engine::WorkspacePool& pool,
                                          bool use_huc,
                                          engine::PeelControl* control) {
  auto payload = std::make_shared<Payload>();
  switch (request.algorithm) {
    case Algorithm::kBup:
    case Algorithm::kParb:
    case Algorithm::kReceipt: {
      TipOptions options;
      options.side = request.kind == RequestKind::kTipV ? Side::kV : Side::kU;
      options.num_threads = request.threads;
      options.num_partitions = request.partitions;
      options.use_huc = use_huc;
      options.workspace_pool = &pool;
      options.control = control;
      options.trace = request.trace;
      TipResult result =
          request.algorithm == Algorithm::kBup ? BupDecompose(graph, options)
          : request.algorithm == Algorithm::kParb
              ? ParbDecompose(graph, options)
              : ReceiptDecompose(graph, options);
      payload->numbers = std::move(result.tip_numbers);
      payload->stats = result.stats;
      break;
    }
    case Algorithm::kWingBup: {
      WingResult result = WingDecompose(graph, request.threads, &pool,
                                        control, request.trace);
      payload->numbers = std::move(result.wing_numbers);
      payload->stats = result.stats;
      break;
    }
    case Algorithm::kReceiptWing: {
      ReceiptWingOptions options;
      options.num_threads = request.threads;
      options.num_partitions = request.partitions;
      options.workspace_pool = &pool;
      options.control = control;
      options.trace = request.trace;
      WingResult result = ReceiptWingDecompose(graph, options);
      payload->numbers = std::move(result.wing_numbers);
      payload->stats = result.stats;
      break;
    }
  }
  return payload;
}

bool RequestKindFromName(std::string_view name, RequestKind* kind) {
  for (const RequestKind candidate :
       {RequestKind::kTipU, RequestKind::kTipV, RequestKind::kWing}) {
    if (EqualsIgnoreCase(name, RequestKindName(candidate))) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

bool AlgorithmFromName(std::string_view name, Algorithm* algorithm) {
  for (const Algorithm candidate :
       {Algorithm::kBup, Algorithm::kParb, Algorithm::kReceipt,
        Algorithm::kWingBup, Algorithm::kReceiptWing}) {
    if (EqualsIgnoreCase(name, AlgorithmName(candidate))) {
      *algorithm = candidate;
      return true;
    }
  }
  return false;
}

bool RequestFromJson(const util::JsonValue& json, Request* request,
                     std::string* error) {
  if (!json.IsObject()) {
    *error = "request body must be a JSON object";
    return false;
  }
  Request parsed;
  if (!json.GetString("graph", &parsed.graph) || parsed.graph.empty()) {
    *error = "missing required string field 'graph'";
    return false;
  }
  if (const util::JsonValue* kind = json.Find("kind")) {
    if (!kind->IsString() ||
        !RequestKindFromName(kind->AsString(), &parsed.kind)) {
      *error = "'kind' must be one of tip-U, tip-V, wing";
      return false;
    }
  }
  if (const util::JsonValue* algo = json.Find("algo")) {
    if (!algo->IsString() ||
        !AlgorithmFromName(algo->AsString(), &parsed.algorithm)) {
      *error = "'algo' must be one of BUP, ParB, RECEIPT, WING-BUP, RECEIPT-W";
      return false;
    }
  }
  int64_t value = 0;
  if (json.Find("partitions") != nullptr) {
    if (!json.GetInt("partitions", &value) || value <= 0 || value > 1 << 20) {
      *error = "'partitions' must be a positive integer";
      return false;
    }
    parsed.partitions = static_cast<int>(value);
  }
  if (json.Find("threads") != nullptr) {
    if (!json.GetInt("threads", &value) || value <= 0 || value > 1 << 12) {
      *error = "'threads' must be a positive integer";
      return false;
    }
    parsed.threads = static_cast<int>(value);
  }
  *request = std::move(parsed);
  return true;
}

void WritePeelStatsJson(const PeelStats& stats, util::JsonWriter* writer) {
  writer->BeginObject()
      .Key("wedges_counting").Uint(stats.wedges_counting)
      .Key("wedges_cd").Uint(stats.wedges_cd)
      .Key("wedges_fd").Uint(stats.wedges_fd)
      .Key("wedges_other").Uint(stats.wedges_other)
      .Key("sync_rounds").Uint(stats.sync_rounds)
      .Key("peel_iterations").Uint(stats.peel_iterations)
      .Key("huc_recounts").Uint(stats.huc_recounts)
      .Key("dgm_compactions").Uint(stats.dgm_compactions)
      .Key("frontier_rounds").Uint(stats.frontier_rounds)
      .Key("index_build_rounds").Uint(stats.index_build_rounds)
      .Key("frontier_build_elements").Uint(stats.frontier_build_elements)
      .Key("index_active_elements").Uint(stats.index_active_elements)
      .Key("bound_walk_buckets").Uint(stats.bound_walk_buckets)
      .Key("histogram_refines").Uint(stats.histogram_refines)
      .Key("init_patch_elements").Uint(stats.init_patch_elements)
      .Key("index_rebuild_elements").Uint(stats.index_rebuild_elements)
      .Key("num_subsets").Uint(stats.num_subsets)
      .Key("seconds_counting").Double(stats.seconds_counting)
      .Key("seconds_cd").Double(stats.seconds_cd)
      .Key("seconds_fd").Double(stats.seconds_fd)
      .Key("seconds_total").Double(stats.seconds_total)
      .EndObject();
}

void WriteResponseJson(const Request& request, const Response& response,
                       util::JsonWriter* writer) {
  writer->BeginObject()
      .Key("status").String(StatusName(response.status))
      .Key("graph").String(request.graph)
      .Key("kind").String(RequestKindName(request.kind))
      .Key("algo").String(AlgorithmName(request.algorithm))
      .Key("partitions").Int(request.partitions)
      .Key("threads").Int(request.threads)
      .Key("graph_epoch").Uint(response.graph_epoch)
      .Key("cache_hit").Bool(response.cache_hit)
      .Key("coalesced").Bool(response.coalesced);
  if (request.trace.trace_id != 0) {
    writer->Key("trace_id").String(obs::FormatTraceId(request.trace.trace_id));
  }
  if (!response.error.empty()) writer->Key("error").String(response.error);
  if (response.status == Status::kOk && response.payload != nullptr) {
    const Payload& payload = *response.payload;
    Count max_number = 0;
    for (const Count n : payload.numbers) max_number = std::max(max_number, n);
    writer->Key("max_number").Uint(max_number);
    writer->Key("numbers").BeginArray();
    for (const Count n : payload.numbers) writer->Uint(n);
    writer->EndArray();
    writer->Key("stats");
    WritePeelStatsJson(payload.stats, writer);
  }
  writer->EndObject();
}

}  // namespace receipt::service
