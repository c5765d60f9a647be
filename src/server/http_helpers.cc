#include "server/http_helpers.h"

#include <charconv>
#include <utility>

#include "util/json.h"

namespace receipt::server {

HttpResponse JsonError(int status, const std::string& message) {
  util::JsonWriter writer;
  writer.BeginObject()
      .Key("status").String("error")
      .Key("error").String(message)
      .EndObject();
  HttpResponse response;
  response.status = status;
  response.body = writer.Take();
  if (status == 429 || status == 503) {
    response.extra_headers.emplace_back("Retry-After", "1");
  }
  return response;
}

HttpResponse PrometheusText(std::string exposition) {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(exposition);
  return response;
}

int HttpStatusFor(service::Status status) {
  switch (status) {
    case service::Status::kOk: return 200;
    case service::Status::kNotFound: return 404;
    case service::Status::kBadRequest: return 400;
    case service::Status::kCancelled: return 499;
    case service::Status::kShutdown: return 503;
  }
  return 500;
}

std::string GraphNameFromBody(const std::string& body,
                              std::string_view field) {
  const auto json = util::JsonValue::Parse(body);
  if (!json.has_value() || !json->IsObject()) return "";
  std::string name;
  json->GetString(std::string(field), &name);
  return name;
}

std::string GraphNameFromEdgesPath(const std::string& path) {
  constexpr std::string_view kPrefix = "/v1/graphs/";
  constexpr std::string_view kSuffix = "/edges";
  if (path.size() <= kPrefix.size() + kSuffix.size() ||
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return "";
  }
  std::string name = path.substr(
      kPrefix.size(), path.size() - kPrefix.size() - kSuffix.size());
  if (name.find('/') != std::string::npos) return "";
  return name;
}

void SetGraphEpochHeader(uint64_t epoch, HttpResponse* response) {
  response->extra_headers.emplace_back(std::string(kGraphEpochHeader),
                                       std::to_string(epoch));
}

uint64_t ParseGraphEpochHeader(std::string_view value) {
  uint64_t epoch = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, epoch);
  return ec == std::errc() && ptr == end ? epoch : 0;
}

std::string QueryParam(const std::string& query, std::string_view key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        std::string_view(query).substr(pos, eq - pos) == key) {
      return query.substr(eq + 1, end - eq - 1);
    }
    pos = end + 1;
  }
  return "";
}

}  // namespace receipt::server
