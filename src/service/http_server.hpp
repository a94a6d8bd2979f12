// Minimal HTTP/1.1 server over loopback TCP for the RCA query service.
//
// Scope is deliberately narrow: the daemon binds 127.0.0.1 only and speaks
// enough HTTP/1.1 for curl and simple clients — request line, headers,
// Content-Length bodies, and persistent connections (`Connection:
// keep-alive` honored with a bounded requests-per-connection budget and an
// idle timeout; `Connection: close` and HTTP/1.0 behave as before). Every
// request goes to a transport-independent handler — a Router by default,
// or any std::function (the fleet gateway reuses this transport with its
// own proxy handler). TLS and real fan-in belong in front of it.
//
// Lifecycle: start() binds and listens (port 0 picks an ephemeral port,
// readable via port()); serve_forever() accepts until a shutdown is
// requested, then *drains* — already-accepted connections finish their
// in-flight request/response cycle (idle keep-alive connections are closed
// within one 250ms poll slice) — and returns 0. request_shutdown_fd()
// exposes a write end an async-signal-safe SIGINT/SIGTERM handler can poke
// (see install_signal_handlers), which is how `rca-tool serve` exits 0 on
// Ctrl-C with zero dropped in-flight requests.
//
// Robustness: accept/recv/send/poll all retry on EINTR (a SIGCHLD-heavy
// supervisor parent must never kill a connection mid-read), SIGPIPE is
// ignored (sends use MSG_NOSIGNAL), and the transport carries `http.recv` /
// `http.send` fault-injection sites (src/fault) so chaos tests can model
// slow, failing, or truncating peers without real network trouble.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "service/router.hpp"

namespace rca::service {

struct HttpServerOptions {
  std::uint16_t port = 0;      // 0 = ephemeral
  std::size_t connection_threads = 8;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  int io_timeout_ms = 10000;   // per-socket read/write timeout mid-request
};

class HttpServer {
 public:
  /// Transport-independent request handler. Must be thread-safe: it is
  /// invoked concurrently from `connection_threads` workers.
  using Handler = std::function<Response(const Request&)>;

  HttpServer(Handler handler, HttpServerOptions opts);
  /// Convenience: serve a Router (the resident-service configuration).
  HttpServer(Router* router, HttpServerOptions opts);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:<port> and listens; throws rca::Error on failure.
  void start();
  /// Bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Accept loop; blocks until a shutdown is requested, drains in-flight
  /// connections, and returns 0 (graceful). start() must have been called.
  int serve_forever();

  /// Thread-safe shutdown trigger (also usable from a signal handler via
  /// request_shutdown_fd()).
  void request_shutdown();
  /// File descriptor a signal handler may write one byte to — equivalent to
  /// request_shutdown(), but async-signal-safe.
  int request_shutdown_fd() const { return wake_pipe_[1]; }

  /// Installs SIGINT/SIGTERM handlers that trigger this server's graceful
  /// drain. One server per process; later calls override earlier ones.
  static void install_signal_handlers(HttpServer& server);

 private:
  void connection_worker();
  void handle_connection(int fd);
  /// Waits for `fd` to become readable, polling in <=250ms slices so the
  /// wait notices a drain request promptly. False on timeout, drain, or a
  /// poll error.
  bool wait_readable(int fd, int timeout_ms) const;

  Handler handler_;
  HttpServerOptions opts_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;  // accepted, not yet handled
  bool closed_ = false;      // no more connections will be queued
  std::atomic<bool> draining_{false};
  std::vector<std::thread> workers_;
};

}  // namespace rca::service
