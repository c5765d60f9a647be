#ifndef RECEIPT_SERVER_HTTP_HELPERS_H_
#define RECEIPT_SERVER_HTTP_HELPERS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "server/http_server.h"
#include "service/service_types.h"

namespace receipt::server {

/// {"status":"error","error":message} with HTTP `status`. 429 and 503 also
/// carry `Retry-After: 1`, so well-behaved clients back off instead of
/// retry-storming.
HttpResponse JsonError(int status, const std::string& message);

/// A GET /metrics answer: `exposition` as Prometheus text format 0.0.4.
HttpResponse PrometheusText(std::string exposition);

/// Service terminal status → HTTP status. Cancellation surfaces as 499
/// (client-closed-request): the only cancels a connected client can see are
/// non-drain shutdown races.
int HttpStatusFor(service::Status status);

/// The string `field` of a JSON object body ("graph" for /v1/decompose,
/// "name" for /v1/graphs); "" when the body is not such an object.
std::string GraphNameFromBody(const std::string& body, std::string_view field);

/// /v1/graphs/{name}/edges -> name; "" when the path is not that shape
/// (empty name, or a name holding '/'). The caller's route guarantees the
/// /v1/graphs/ prefix.
std::string GraphNameFromEdgesPath(const std::string& path);

/// Every 200 whose body carries a graph epoch (a decompose's
/// `graph_epoch`, a register or edge-batch ack's `epoch`) repeats it in
/// this response header, so a relaying hop learns the epoch without
/// parsing the body.
inline constexpr std::string_view kGraphEpochHeader = "X-Graph-Epoch";

/// Adds `kGraphEpochHeader: epoch` to `response`.
void SetGraphEpochHeader(uint64_t epoch, HttpResponse* response);

/// The epoch a kGraphEpochHeader value names: the whole value must be a
/// decimal uint64, else 0 (no epoch observed).
uint64_t ParseGraphEpochHeader(std::string_view value);

/// The value of `key` in a raw `a=1&b=2` query string; "" when absent.
/// Keys match whole: "graph" does not match "subgraph=x".
std::string QueryParam(const std::string& query, std::string_view key);

}  // namespace receipt::server

#endif  // RECEIPT_SERVER_HTTP_HELPERS_H_
