// Loopback HTTP/1.1 client with a bounded keep-alive connection pool.
//
// The gateway proxies every request to a worker over this client; paying a
// connect() per proxied request would dominate small-query latency and
// burn ephemeral ports under the chaos bench, so connections are pooled
// per endpoint and reused while the worker answers `Connection:
// keep-alive`. The pool is a semaphore: at most `max_connections` sockets
// exist at once, surplus callers wait — which also caps how many of a
// worker's connection threads one gateway can occupy.
//
// Failure semantics match what the fleet needs: a request on a *reused*
// connection that dies on send/first byte is retried once on a fresh
// socket (the server may have recycled the idle connection — not a worker
// failure); a fresh-socket failure is reported to the caller, who treats
// it as shard-level evidence (breaker, re-route). close_all() drops every
// pooled socket after a worker death so no request ever waits on a corpse.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace rca::fleet {

struct HttpClientOptions {
  std::size_t max_connections = 8;
  int io_timeout_ms = 30000;
};

/// One proxied response. `retry_after_ms` is parsed from a Retry-After
/// header (seconds granularity), 0 when absent.
struct ClientResponse {
  int status = 0;
  std::string body;
  long long retry_after_ms = 0;
  bool keep_alive = false;
};

class HttpClient {
 public:
  HttpClient(std::uint16_t port, HttpClientOptions opts);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocking request/response. nullopt = transport failure (connect,
  /// send, or malformed/truncated response) — the endpoint itself is
  /// suspect. `timeout_ms` <= 0 uses the client's io_timeout.
  std::optional<ClientResponse> request(const std::string& method,
                                        const std::string& path,
                                        const std::string& body,
                                        int timeout_ms = 0);

  /// Drops every pooled idle connection (after a worker death or respawn).
  /// In-flight requests fail on their own socket and are not interrupted.
  void close_all();

 private:
  /// Pool slot: an idle fd (>= 0) or -1 meaning "slot acquired, connect
  /// fresh". Blocks while max_connections sockets are busy.
  int acquire();
  void release(int fd, bool reusable);
  int connect_fresh() const;
  std::optional<ClientResponse> roundtrip(int fd, const std::string& wire,
                                          int timeout_ms) const;

  std::uint16_t port_;
  HttpClientOptions opts_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> idle_;
  std::size_t outstanding_ = 0;  // sockets checked out or idle
};

}  // namespace rca::fleet
