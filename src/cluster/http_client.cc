#include "cluster/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <utility>

#include "server/http_helpers.h"

namespace receipt::cluster {

namespace {

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return s;
}

bool SendAll(int fd, const char* data, size_t size, std::string* error) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("send: ") + strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpClient::Request(
    const std::string& method, const std::string& host, uint16_t port,
    const std::string& path, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    HttpClientResponse* response, std::string* error) const {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "invalid IPv4 address '" + host + "'";
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "connect " + host + ":" + std::to_string(port) + ": " +
               strerror(errno);
    }
    ::close(fd);
    return false;
  }

  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host + ":" + std::to_string(port) + "\r\n";
  request += "Connection: close\r\n";
  bool has_content_type = false;
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
    has_content_type = has_content_type || ToLower(name) == "content-type";
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    if (!has_content_type) request += "Content-Type: application/json\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!SendAll(fd, request.data(), request.size(), error)) {
    ::close(fd);
    return false;
  }

  // Connection: close — the full response is everything until EOF.
  std::string raw;
  char buffer[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = std::string("recv: ") + strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    if (error != nullptr) *error = "malformed HTTP response";
    return false;
  }
  const size_t status_pos = raw.find(' ');
  if (status_pos == std::string::npos || status_pos + 4 > header_end) {
    if (error != nullptr) *error = "malformed HTTP status line";
    return false;
  }
  response->status = std::atoi(raw.c_str() + status_pos + 1);
  if (response->status < 100 || response->status > 599) {
    if (error != nullptr) *error = "malformed HTTP status code";
    return false;
  }

  response->headers.clear();
  size_t line_start = raw.find("\r\n") + 2;
  while (line_start < header_end) {
    const size_t line_end = raw.find("\r\n", line_start);
    const std::string line = raw.substr(line_start, line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') {
        ++value_start;
      }
      response->headers[ToLower(line.substr(0, colon))] =
          line.substr(value_start);
    }
    line_start = line_end + 2;
  }
  response->body = raw.substr(header_end + 4);
  return true;
}

server::HttpResponse RelayUpstream(HttpClientResponse* upstream,
                                   std::string_view request_id) {
  server::HttpResponse response;
  response.status = upstream->status;
  response.body = std::move(upstream->body);
  if (const auto it = upstream->headers.find("content-type");
      it != upstream->headers.end()) {
    response.content_type = it->second;
  }
  for (const std::string_view name :
       {std::string_view("Retry-After"), server::kGraphEpochHeader}) {
    if (const auto it = upstream->headers.find(ToLower(std::string(name)));
        it != upstream->headers.end()) {
      response.extra_headers.emplace_back(std::string(name), it->second);
    }
  }
  if (!request_id.empty()) {
    response.extra_headers.emplace_back("X-Request-Id", request_id);
  }
  return response;
}

}  // namespace receipt::cluster
