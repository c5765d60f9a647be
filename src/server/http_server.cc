#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace receipt::server {

namespace {

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 499: return "Client Closed Request";  // nginx convention
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string ToLower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

constexpr const char* kConnectionsHelp =
    "TCP connections accepted, by whether a handler queue slot was free";

enum class RecvStatus { kData, kEof, kTimeout, kError };

/// recv() the next chunk into `buffer`, growing it.
RecvStatus RecvChunk(int fd, std::string* buffer) {
  char chunk[4096];
  ssize_t n;
  do {
    n = ::recv(fd, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return RecvStatus::kEof;
  if (n < 0) {
    return errno == EAGAIN || errno == EWOULDBLOCK ? RecvStatus::kTimeout
                                                   : RecvStatus::kError;
  }
  buffer->append(chunk, static_cast<size_t>(n));
  return RecvStatus::kData;
}

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a client that closed mid-response must produce EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool HttpRequest::ClientDisconnected() const {
  if (client_fd < 0) return true;
  pollfd probe{};
  probe.fd = client_fd;
  probe.events = POLLIN
#ifdef POLLRDHUP
                 | POLLRDHUP
#endif
      ;
  if (::poll(&probe, 1, 0) <= 0) return false;  // nothing new: still there
  if ((probe.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return true;
#ifdef POLLRDHUP
  if ((probe.revents & POLLRDHUP) != 0) return true;
#endif
  if ((probe.revents & POLLIN) != 0) {
    char probe_byte;
    const ssize_t n =
        ::recv(client_fd, &probe_byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return true;  // orderly shutdown from the client
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;
    }
  }
  return false;
}

HttpServer::HttpServer(const HttpServerOptions& options)
    : options_(options),
      connections_accepted_(metrics_.GetCounter(
          "receipt_transport_connections_total", kConnectionsHelp,
          {{"outcome", "accepted"}})),
      connections_rejected_(metrics_.GetCounter(
          "receipt_transport_connections_total", kConnectionsHelp,
          {{"outcome", "rejected"}})),
      requests_(metrics_.GetCounter(
          "receipt_transport_requests_total",
          "Requests parsed and dispatched to a registered handler")),
      keepalive_reuses_(metrics_.GetCounter(
          "receipt_transport_keepalive_reuses_total",
          "Dispatched requests beyond the first on their connection")),
      parse_failures_(metrics_.GetCounter(
          "receipt_transport_parse_failures_total",
          "Requests refused as malformed, oversized or timed out")) {
  constexpr const char* kClasses[] = {"2xx", "3xx", "4xx", "5xx"};
  for (size_t i = 0; i < responses_.size(); ++i) {
    responses_[i] = metrics_.GetCounter("receipt_transport_responses_total",
                                        "Responses written, by status class",
                                        {{"class", kClasses[i]}});
  }
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& method, const std::string& path,
                        HttpHandler handler) {
  routes_[path][method] = std::move(handler);
}

void HttpServer::HandlePrefix(const std::string& method,
                              const std::string& prefix,
                              HttpHandler handler) {
  prefix_routes_[prefix][method] = std::move(handler);
}

bool HttpServer::Start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  // MSG_NOSIGNAL covers send(), but a peer reset can still raise SIGPIPE
  // from other paths (and from embedders' sockets); a server must never die
  // to a client hangup.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail("inet_pton('" + options_.bind_address + "')");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return fail("listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const int num_threads = std::max(1, options_.num_threads);
  handler_threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  return true;
}

void HttpServer::Stop() {
  if (!started_) return;
  started_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // Waking the blocking accept(): shutdown() makes it return on Linux, and
  // closing the fd covers the rest.
  ::shutdown(listen_fd_, SHUT_RDWR);
  pending_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Handler threads drain pending_ completely before exiting: every
  // accepted connection still gets a full response.
  for (std::thread& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket shut down: Stop() is in progress
    }
    bool reject = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      if (pending_.size() >= options_.max_pending_connections) {
        connections_rejected_->Increment();
        reject = true;
      } else {
        connections_accepted_->Increment();
        pending_.push_back(fd);
      }
    }
    if (reject) {
      // Reject at the door rather than queueing unboundedly; the client
      // sees a well-formed 503 instead of a hung connection.
      HttpResponse overload;
      overload.status = 503;
      overload.extra_headers.emplace_back("Retry-After", "1");
      overload.body =
          "{\"status\":\"unavailable\",\"error\":\"connection queue full\"}";
      WriteResponse(fd, overload, false);
      ::close(fd);
      continue;
    }
    pending_cv_.notify_one();
  }
}

void HttpServer::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      pending_cv_.wait(lock,
                       [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping and fully drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  timeval timeout{};
  timeout.tv_sec = options_.recv_timeout_ms / 1000;
  timeout.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  timeval send_timeout{};
  send_timeout.tv_sec = options_.send_timeout_ms / 1000;
  send_timeout.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

  // Keep-alive loop: `buffer` carries pipelined bytes between requests.
  // Between requests an idle client gets idle_timeout_ms to start the next
  // one, then the connection closes silently (no 408 — nothing was owed).
  std::string buffer;
  size_t served = 0;
  for (;;) {
    if (served > 0 && buffer.empty()) {
      pollfd waiting{};
      waiting.fd = fd;
      waiting.events = POLLIN;
      int ready;
      do {
        ready = ::poll(&waiting, 1, options_.idle_timeout_ms);
      } while (ready < 0 && errno == EINTR);
      if (ready <= 0) return;  // idle timeout (or poll error): close
      if ((waiting.revents & POLLIN) == 0) return;  // hangup/error
    }
    if (!ServeOneRequest(fd, &buffer, served)) return;
    ++served;
  }
}

bool HttpServer::ServeOneRequest(int fd, std::string* buffer_ptr,
                                 size_t served_so_far) {
  const auto serve_start = std::chrono::steady_clock::now();
  std::string& buffer = *buffer_ptr;

  // Parse failures always close the connection: the buffer may be left
  // mid-request, so resynchronizing on the next one is not possible.
  auto parse_failure = [&](int status, const std::string& message) {
    parse_failures_->Increment();
    HttpResponse response;
    response.status = status;
    std::string body = "{\"status\":\"error\",\"error\":\"" + message + "\"}";
    response.body = std::move(body);
    WriteResponse(fd, response, false);
    return false;
  };

  // Read until the header terminator, with the headers capped. EOF means
  // the client walked away mid-request (a malformed request, not a stall);
  // only a genuine recv timeout earns the 408.
  size_t header_end = std::string::npos;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > options_.max_header_bytes) {
      return parse_failure(413, "request headers too large");
    }
    switch (RecvChunk(fd, &buffer)) {
      case RecvStatus::kData: break;
      case RecvStatus::kTimeout:
        return parse_failure(408, "timed out reading request");
      case RecvStatus::kEof:
      case RecvStatus::kError:
        if (buffer.empty()) return false;  // connected and left: not a request
        return parse_failure(400, "client closed connection mid-request");
    }
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const size_t line_end = buffer.find("\r\n");
  const std::string request_line = buffer.substr(0, line_end);
  const size_t method_end = request_line.find(' ');
  const size_t target_end = request_line.find(' ', method_end + 1);
  if (method_end == std::string::npos || target_end == std::string::npos ||
      request_line.compare(target_end + 1, 5, "HTTP/") != 0) {
    return parse_failure(400, "malformed request line");
  }
  // HTTP/1.0 defaults to one request per connection; 1.1 to persistence.
  const bool http_1_0 = request_line.compare(target_end + 1, 8, "HTTP/1.0") == 0;

  HttpRequest request;
  request.client_fd = fd;
  request.method = request_line.substr(0, method_end);
  std::string target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  if (const size_t question = target.find('?');
      question != std::string::npos) {
    request.query = target.substr(question + 1);
    target.resize(question);
  }
  request.path = std::move(target);

  // Header fields.
  size_t cursor = line_end + 2;
  while (cursor < header_end) {
    const size_t eol = buffer.find("\r\n", cursor);
    const std::string line = buffer.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return parse_failure(400, "malformed header field");
    }
    std::string name = ToLower(line.substr(0, colon));
    // RFC 7230 optional whitespace after the colon is SP / HTAB.
    size_t value_start = colon + 1;
    while (value_start < line.size() &&
           (line[value_start] == ' ' || line[value_start] == '\t')) {
      ++value_start;
    }
    request.headers[std::move(name)] = line.substr(value_start);
  }

  // Body: exactly Content-Length bytes (chunked encoding is not supported —
  // every client this front-end serves sends sized bodies).
  size_t content_length = 0;
  if (const auto it = request.headers.find("content-length");
      it != request.headers.end()) {
    // Strictly digits (no sign, no strtoull wraparound): "-1" or an
    // overflowing value is a malformed header, not an oversized body.
    const std::string& value = it->second;
    const bool all_digits =
        !value.empty() && value.size() <= 18 &&
        value.find_first_not_of("0123456789") == std::string::npos;
    if (!all_digits) {
      return parse_failure(400, "malformed Content-Length");
    }
    content_length = static_cast<size_t>(std::strtoull(value.c_str(),
                                                       nullptr, 10));
  } else if (request.headers.count("transfer-encoding") > 0) {
    return parse_failure(400, "chunked bodies are not supported");
  }
  if (content_length > options_.max_body_bytes) {
    return parse_failure(413, "request body too large");
  }
  const size_t body_start = header_end + 4;
  while (buffer.size() - body_start < content_length) {
    switch (RecvChunk(fd, &buffer)) {
      case RecvStatus::kData: break;
      case RecvStatus::kTimeout:
        return parse_failure(408, "timed out reading request body");
      case RecvStatus::kEof:
      case RecvStatus::kError:
        return parse_failure(400, "request body shorter than Content-Length");
    }
  }
  request.body = buffer.substr(body_start, content_length);
  // Drop the consumed request; any pipelined follow-up stays buffered.
  buffer.erase(0, body_start + content_length);
  request.parse_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - serve_start)
          .count());

  // Persistence: the server opts in (request cap), then the client's
  // Connection header (or HTTP/1.0 default) can still close.
  bool keep = served_so_far + 1 < options_.max_requests_per_connection;
  if (const auto it = request.headers.find("connection");
      it != request.headers.end()) {
    const std::string token = ToLower(it->second);
    if (token == "close") keep = false;
    if (http_1_0 && token != "keep-alive") keep = false;
  } else if (http_1_0) {
    keep = false;
  }

  // Route dispatch: exact path, then the longest matching prefix route,
  // then method within the winning path.
  const std::map<std::string, HttpHandler>* methods = nullptr;
  if (const auto path_it = routes_.find(request.path);
      path_it != routes_.end()) {
    methods = &path_it->second;
  } else {
    size_t best_len = 0;
    for (const auto& [prefix, handlers] : prefix_routes_) {
      if (prefix.size() >= best_len &&
          request.path.compare(0, prefix.size(), prefix) == 0) {
        best_len = prefix.size();
        methods = &handlers;
      }
    }
  }
  HttpResponse response;
  if (methods == nullptr) {
    response.status = 404;
    response.body = "{\"status\":\"error\",\"error\":\"no such endpoint\"}";
  } else if (const auto method_it = methods->find(request.method);
             method_it == methods->end()) {
    response.status = 405;
    std::string allow;
    for (const auto& [method, handler] : *methods) {
      if (!allow.empty()) allow += ", ";
      allow += method;
    }
    response.extra_headers.emplace_back("Allow", std::move(allow));
    response.body = "{\"status\":\"error\",\"error\":\"method not allowed\"}";
  } else {
    requests_->Increment();
    if (served_so_far > 0) keepalive_reuses_->Increment();
    response = method_it->second(request);
  }
  WriteResponse(fd, response, keep);
  return keep;
}

void HttpServer::WriteResponse(int fd, const HttpResponse& response,
                               bool keep_alive) {
  responses_[std::clamp(response.status / 100, 2, 5) - 2]->Increment();
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusReason(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    head += name + ": " + value + "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
  if (SendAll(fd, head.data(), head.size())) {
    SendAll(fd, response.body.data(), response.body.size());
  }
}

HttpServer::Stats HttpServer::stats() const {
  Stats s;
  s.connections_accepted = connections_accepted_->Value();
  s.connections_rejected = connections_rejected_->Value();
  s.requests = requests_->Value();
  s.keepalive_reuses = keepalive_reuses_->Value();
  s.responses_2xx = responses_[0]->Value();
  s.responses_3xx = responses_[1]->Value();
  s.responses_4xx = responses_[2]->Value();
  s.responses_5xx = responses_[3]->Value();
  s.parse_failures = parse_failures_->Value();
  return s;
}

}  // namespace receipt::server
