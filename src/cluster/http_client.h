#ifndef RECEIPT_CLUSTER_HTTP_CLIENT_H_
#define RECEIPT_CLUSTER_HTTP_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/http_server.h"

namespace receipt::cluster {

struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< names lower-cased
  std::string body;
};

/// Minimal blocking HTTP/1.1 client for replica fan-out, the router, the
/// CLI and the HTTP tests: one connection per request (Connection:
/// close), IPv4 only, send/recv deadlines so a hung peer surfaces as a
/// transport error instead of a stuck handler. Stateless and therefore thread-safe — any thread may
/// call Request on a shared instance.
class HttpClient {
 public:
  explicit HttpClient(int timeout_ms = 5000) : timeout_ms_(timeout_ms) {}

  /// False on any transport failure (connect, send, recv, malformed
  /// status line); `error` says which. HTTP error statuses are *not*
  /// transport failures — the caller inspects response->status. A body
  /// is sent as application/json unless `headers` names a Content-Type.
  bool Request(const std::string& method, const std::string& host,
               uint16_t port, const std::string& path,
               const std::string& body,
               const std::vector<std::pair<std::string, std::string>>& headers,
               HttpClientResponse* response, std::string* error) const;

  bool Get(const std::string& host, uint16_t port, const std::string& path,
           HttpClientResponse* response, std::string* error) const {
    return Request("GET", host, port, path, "", {}, response, error);
  }

  bool Post(const std::string& host, uint16_t port, const std::string& path,
            const std::string& body,
            const std::vector<std::pair<std::string, std::string>>& headers,
            HttpClientResponse* response, std::string* error) const {
    return Request("POST", host, port, path, body, headers, response, error);
  }

 private:
  int timeout_ms_;
};

/// The response a proxying hop sends back for `upstream`: its status, body
/// (moved out), content type, Retry-After and X-Graph-Epoch, plus
/// `request_id` as X-Request-Id unless it is empty.
server::HttpResponse RelayUpstream(HttpClientResponse* upstream,
                                   std::string_view request_id);

}  // namespace receipt::cluster

#endif  // RECEIPT_CLUSTER_HTTP_CLIENT_H_
