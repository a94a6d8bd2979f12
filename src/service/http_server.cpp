#include "service/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/http_wire.hpp"
#include "support/strings.hpp"

namespace rca::service {

namespace {

constexpr int kListenBacklog = 64;
constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
/// Persistent-connection policy. A connection is recycled after this many
/// requests (the response carries `Connection: close`) so one chatty client
/// cannot pin a worker thread forever.
constexpr std::size_t kMaxRequestsPerConnection = 100;
/// How long a keep-alive connection may sit idle between requests before the
/// server closes it. Waited in <=250ms poll slices so a graceful drain never
/// stalls behind an idle socket.
constexpr int kIdleTimeoutMs = 15000;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Error";
  }
}

/// recv with EINTR retry plus the http.recv fault site: a delay action
/// stalls inside the check, an errno action reads as a hard socket error.
ssize_t recv_retry(int fd, char* chunk, std::size_t cap) {
  if (fault::Hit h = RCA_FAULT_CHECK("http.recv")) {
    if (h.action == fault::Action::kErrno) {
      errno = EIO;
      return -1;
    }
  }
  return http::recv_retry(fd, chunk, cap);
}

/// Reads from `fd` until `terminator` is seen or `limit` bytes accumulate.
/// Returns false on EOF/error/overflow before the terminator. Each recv is
/// capped to the bytes still within budget, so the buffer never grows past
/// limit + 1 (the +1 byte is what proves the head is oversized).
bool read_until(int fd, std::string& buf, const char* terminator,
                std::size_t limit) {
  char chunk[4096];
  for (;;) {
    if (buf.find(terminator) != std::string::npos) return true;
    if (buf.size() > limit) return false;
    const std::size_t cap = std::min(sizeof(chunk), limit + 1 - buf.size());
    const ssize_t n = recv_retry(fd, chunk, cap);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool write_all(int fd, const std::string& data) {
  std::size_t bytes = data.size();
  if (fault::Hit h = RCA_FAULT_CHECK("http.send")) {
    if (h.action == fault::Action::kErrno) return false;
    // Short-write fault: transmit half the response, then fail — models a
    // peer that vanished mid-reply. The daemon must just drop the socket.
    if (h.action == fault::Action::kShortWrite) bytes /= 2;
  }
  return http::send_all(fd, data.data(), bytes) && bytes == data.size();
}

/// False when the response could not be fully transmitted (the caller must
/// drop the connection regardless of `keep_alive`).
bool send_response(int fd, const Response& resp, bool keep_alive = false) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_text(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  if (resp.retry_after > 0) {
    out += "Retry-After: " + std::to_string(resp.retry_after) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += resp.body;
  return write_all(fd, out);
}

/// HTTP/1.1 defaults to persistent connections, HTTP/1.0 to close; an
/// explicit Connection header overrides either way.
bool client_wants_close(const std::string& headers,
                        const std::string& version) {
  const std::string conn =
      http::header_value(headers, "connection").value_or("");
  if (conn == "close") return true;
  if (conn == "keep-alive") return false;
  return version == "HTTP/1.0";
}

/// Parses "Header-Name: value" lines for Content-Length (case-insensitive
/// name, as HTTP requires). Returns -1 when absent, -2 on a malformed or
/// overflowing value (the caller answers 413 for -2 — a length too large to
/// represent is by definition over any body budget).
long long parse_content_length(const std::string& headers) {
  const std::optional<std::string> value =
      http::header_value(headers, "content-length");
  if (!value) return -1;
  const long long length = http::parse_decimal(*value);
  return length < 0 ? -2 : length;
}

/// Pipe write end the installed signal handler pokes; handler-safe.
std::atomic<int> g_shutdown_fd{-1};

extern "C" void rca_serve_signal_handler(int /*signum*/) {
  const int fd = g_shutdown_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'q';
    // write(2) is async-signal-safe; the result is irrelevant (best effort).
    [[maybe_unused]] ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions opts)
    : handler_(std::move(handler)), opts_(opts) {
  if (!handler_) throw Error("HttpServer requires a handler");
  if (::pipe(wake_pipe_) != 0) throw Error("pipe() failed");
}

HttpServer::HttpServer(Router* router, HttpServerOptions opts)
    : HttpServer(Handler([router](const Request& req) {
                   return router->handle(req);
                 }),
                 opts) {}

HttpServer::~HttpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
  }
}

void HttpServer::start() {
  // A client that closes mid-response must surface as an EPIPE send error,
  // never a process-killing signal. send() already passes MSG_NOSIGNAL, but
  // ignoring SIGPIPE process-wide also covers any future write path.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(opts_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw Error("cannot bind 127.0.0.1:" + std::to_string(opts_.port) + ": " +
                std::strerror(errno));
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    throw Error(std::string("listen() failed: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

void HttpServer::request_shutdown() {
  const char byte = 'q';
  [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
}

void HttpServer::install_signal_handlers(HttpServer& server) {
  g_shutdown_fd.store(server.request_shutdown_fd(), std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = rca_serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll() must wake with EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int HttpServer::serve_forever() {
  if (listen_fd_ < 0) throw Error("serve_forever() before start()");
  workers_.reserve(opts_.connection_threads);
  for (std::size_t i = 0; i < opts_.connection_threads; ++i) {
    workers_.emplace_back([this] { connection_worker(); });
  }

  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {wake_pipe_[0], POLLIN, 0};
  bool draining = false;
  while (!draining) {
    fds[0].revents = fds[1].revents = 0;
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;  // handler already poked the pipe
      break;
    }
    if (fds[1].revents != 0) {
      draining = true;
      break;
    }
    if (fds[0].revents != 0) {
      int fd;
      do {
        fd = ::accept(listen_fd_, nullptr, nullptr);
      } while (fd < 0 && errno == EINTR);
      // Other transient accept failures (ECONNABORTED, EMFILE, ...) drop
      // this connection attempt but keep the accept loop alive.
      if (fd < 0) continue;
      timeval tv{};
      tv.tv_sec = opts_.io_timeout_ms / 1000;
      tv.tv_usec = (opts_.io_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      obs::count("service.http.connections");
      {
        std::lock_guard<std::mutex> lock(mu_);
        pending_.push_back(fd);
      }
      cv_.notify_one();
    }
  }

  // Graceful drain: stop accepting, flag keep-alive loops to close after
  // their in-flight request, then let every already-accepted connection
  // finish its request/response cycle before returning. Idle keep-alive
  // sockets notice the flag within one 250ms poll slice.
  ::close(listen_fd_);
  listen_fd_ = -1;
  draining_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  obs::count("service.http.graceful_shutdowns");
  return 0;
}

void HttpServer::connection_worker() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
      if (pending_.empty()) return;  // closed_ and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    // Nothing a single connection does may take down the daemon: the router
    // catches handler errors itself, so anything arriving here is a transport
    // or parse bug — answer 500 and keep serving.
    try {
      handle_connection(fd);
    } catch (const std::exception& e) {
      obs::count("service.http.worker_exceptions");
      send_response(fd, error_response(500, "internal", e.what()));
    } catch (...) {
      obs::count("service.http.worker_exceptions");
      send_response(fd, error_response(500, "internal", "unknown error"));
    }
    ::close(fd);
  }
}

bool HttpServer::wait_readable(int fd, int timeout_ms) const {
  long long remaining = timeout_ms;
  while (remaining > 0) {
    if (draining_.load(std::memory_order_relaxed)) return false;
    pollfd p{fd, POLLIN, 0};
    const int slice = static_cast<int>(std::min<long long>(remaining, 250));
    const int rc = ::poll(&p, 1, slice);
    if (rc < 0) {
      if (errno == EINTR) continue;  // signal storm must not time us out
      return false;
    }
    // Readable or HUP: either way recv() resolves it.
    if (rc > 0) return true;
    remaining -= slice;
  }
  return false;
}

void HttpServer::handle_connection(int fd) {
  // `buf` persists across keep-alive requests: bytes a pipelining client
  // sent past one request's body are the start of the next request, not
  // garbage to drop.
  std::string buf;
  std::size_t served = 0;
  for (;;) {
    if (buf.empty()) {
      // Between requests (or before the first): wait for the next request
      // head. An idle timeout or a drain closes the connection silently —
      // no request was in flight, so there is nothing to answer.
      const int budget = served == 0 ? opts_.io_timeout_ms
                                     : kIdleTimeoutMs;
      if (!wait_readable(fd, budget)) return;
    }
    if (!read_until(fd, buf, "\r\n\r\n", kMaxHeaderBytes)) {
      // A clean EOF between requests is a normal keep-alive close from the
      // peer; a partial head is a protocol error worth answering.
      if (!buf.empty()) {
        send_response(fd, error_response(400, "bad_request",
                                         "malformed or oversized request head"));
      }
      return;
    }
    const std::size_t head_end = buf.find("\r\n\r\n");
    const std::string head = buf.substr(0, head_end);

    // Request line: METHOD SP PATH SP HTTP/x.y
    const std::size_t line_end = head.find("\r\n");
    const std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const std::vector<std::string> parts = split_ws(request_line);
    if (parts.size() != 3 || !starts_with(parts[2], "HTTP/")) {
      send_response(fd, error_response(400, "bad_request",
                                       "malformed request line"));
      return;
    }
    Request req;
    req.method = parts[0];
    // Strip any query string; the service takes parameters in JSON bodies.
    const std::size_t query = parts[1].find('?');
    req.path =
        query == std::string::npos ? parts[1] : parts[1].substr(0, query);

    const std::string headers =
        line_end == std::string::npos ? "" : head.substr(line_end + 2);
    const long long content_length = parse_content_length(headers);
    if (content_length == -2 ||
        content_length > static_cast<long long>(opts_.max_body_bytes)) {
      send_response(fd, error_response(413, "body_too_large",
                                       "invalid or oversized Content-Length"));
      return;
    }
    const std::size_t body_start = head_end + 4;
    const std::size_t want =
        content_length > 0 ? static_cast<std::size_t>(content_length) : 0;
    while (buf.size() < body_start + want) {
      char chunk[4096];
      // Cap each recv at the bytes actually remaining so we never consume
      // data beyond this request's declared body.
      const std::size_t cap =
          std::min(sizeof(chunk), body_start + want - buf.size());
      const ssize_t n = recv_retry(fd, chunk, cap);
      if (n <= 0) {
        send_response(fd, error_response(400, "bad_request",
                                         "truncated request body"));
        return;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    req.body = buf.substr(body_start, want);

    ++served;
    const bool keep = !client_wants_close(headers, parts[2]) &&
                      served < kMaxRequestsPerConnection &&
                      !draining_.load(std::memory_order_relaxed);
    if (served > 1) obs::count("service.http.keepalive_reuses");
    if (!send_response(fd, handler_(req), keep)) return;
    if (!keep) return;
    buf.erase(0, body_start + want);
  }
}

}  // namespace rca::service
