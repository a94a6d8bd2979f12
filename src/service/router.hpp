// Transport-independent request router for the RCA query service.
//
// A Request is (method, path, body); the Router produces a Response without
// knowing whether it arrived over loopback HTTP (http_server.hpp), the
// in-process load generator (bench/perf_service), or a test. JSON endpoints:
//
//   GET  /v1/health        fixed-key probe document: status, phase
//                          ("warming" until resume/pre-warm finishes,
//                          "ready" after), build_id, generation (fleet
//                          respawn count, 0 standalone), uptime_ms (0 under
//                          RouterOptions::stable_health for byte-stable
//                          goldens), sessions, resident_bytes,
//                          degraded_sessions, in_flight
//   GET  /v1/metrics       the full rca.metrics.v1 registry document
//   POST /v1/graph/build   {"src": DIR, "build_list": [..], "coverage": b,
//                           "coverage_steps": n, "prune_dead_stores": b,
//                           "summary_informed_pruning": b}
//                          -> {"session": KEY, "nodes": .., "edges": ..}
//   POST /v1/slice         {"session" | "src"+config, "targets": [..],
//                           "outputs": [..], "cam_only": b, "drop_small": n,
//                           "limit": n}
//   POST /v1/communities   {"session" | .., "method": "gn"|"louvain",
//                           "min_size": n, "iterations": n, "budget_ms": n}
//                          gn over budget falls back to louvain and says so
//                          ("fallback_from": "gn")
//   POST /v1/rank          {"session" | .., "kind": KIND, "top": n,
//                           "modules": b}
//   POST /v1/lint          {"session" | ..} -> rca.diagnostics.v1 embedded
//                          (interprocedural rules; "interprocedural": true)
//   POST /v1/session/patch {"session": KEY,
//                           "modules": [{"path": P, "src": TEXT}, ..],
//                           "remove": [P, ..]}
//                          incremental update of a resident session: only the
//                          changed files are re-parsed and re-walked, yet the
//                          committed graph is byte-identical to a cold build
//                          of the edited corpus. Answers
//                          {"session": NEWKEY, "base_session": KEY,
//                           "generation": n, "rebuilt_modules": n,
//                           "reused_fragments": n, "spliced_nodes": n,
//                           "full_rewalk": b, "rolled_back": b,
//                           "nodes": n, "edges": n}; on a parse failure or
//                          injected fault the patch rolls back atomically —
//                          "rolled_back": true, "errors": [{"path","message"}]
//                          and the base session stays resident, unchanged.
//
// Execution model: health/metrics answer inline (they must work when the
// pool is saturated — that is their job); everything else is parsed on the
// transport thread, then executed on the request ThreadPool with a
// per-request deadline (body field "deadline_ms", default
// RouterOptions::default_deadline_ms). The router waits for the worker up
// to the deadline and answers 504 on expiry — the worker finishes in the
// background and still counts against capacity. When in-flight work reaches
// RouterOptions::max_in_flight, new requests are rejected with 429 and a
// structured error body instead of queueing without bound.
//
// Every error response has the shape
//   {"error": {"code": "...", "message": "..."}, "status": N}
// and every request records service.* counters plus a latency histogram.
//
// Degradation: when the front end skipped unparsable modules, every
// session-carrying response additionally reports "degraded": true plus the
// "skipped" source paths — a partial answer is distinguishable from a full
// one without an extra round trip.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "service/session_store.hpp"
#include "support/json.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::service {

struct Request {
  std::string method;  // "GET" | "POST"
  std::string path;    // "/v1/slice"
  std::string body;    // JSON or empty
};

struct Response {
  int status = 200;
  std::string body;
  std::string content_type = "application/json";
  /// When > 0 the HTTP transport adds a `Retry-After: <seconds>` header —
  /// set on retriable errors (429 backpressure, transient-I/O 500s) so
  /// clients can back off sanely.
  int retry_after = 0;
};

/// Throwing this from a route handler (built-in or registered via
/// Router::add_route) produces the structured error response with the given
/// status; `retriable` additionally marks the body `"retriable": true` and
/// sets Retry-After.
struct HandlerError {
  int status;
  std::string code;
  std::string message;
  bool retriable = false;
  int retry_after = 0;
};

struct RouterOptions {
  /// Requests allowed in flight (queued + executing) before 429; 0 = no cap.
  std::size_t max_in_flight = 64;
  /// Default per-request deadline; a request body may lower/raise its own
  /// via "deadline_ms".
  long long default_deadline_ms = 30000;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  /// Worker pool requests execute on. Must stay distinct from the session
  /// store's build pool — a request task blocking on parallel_for of its own
  /// pool would deadlock. Null runs requests inline (tests).
  ThreadPool* pool = nullptr;
  /// Worker generation reported by /v1/health. The fleet supervisor bumps
  /// it on every respawn (`rca-tool serve --generation N`), so a probe can
  /// tell a freshly restarted worker from one that never died. 0 for a
  /// standalone daemon.
  long long generation = 0;
  /// Suppress wall-clock health fields (uptime_ms reports 0) so tests can
  /// pin byte-stable /v1/health goldens.
  bool stable_health = false;
};

class Router {
 public:
  using RouteHandler =
      std::function<Response(const Request& req, const JsonValue& body)>;

  Router(SessionStore* store, RouterOptions opts);

  /// Thread-safe; blocks until the response is ready or the deadline passes.
  Response handle(const Request& req);

  /// Registers an endpoint in the route table the built-ins live in too, so
  /// it is dispatched exactly like them (worker pool, per-request deadline,
  /// backpressure, error mapping; throw HandlerError for a structured error
  /// status). Registration is not thread-safe: add every route before
  /// serving. The campaign module uses this for /v1/refine*.
  void add_route(const std::string& method, const std::string& path,
                 RouteHandler handler);

  /// Requests currently queued or executing (excludes health/metrics).
  /// Reading 0 synchronizes with the end of every request's dispatch, so a
  /// caller may then destroy the router.
  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Health "phase": a worker that is still resuming journaled campaigns or
  /// pre-warming sessions reports "warming"; probes treat it as alive but
  /// not yet routable. Thread-safe.
  void set_warming(bool warming) {
    warming_.store(warming, std::memory_order_relaxed);
  }

  const RouterOptions& options() const { return opts_; }

  /// Shared request-body session resolution ("session" key lookup -> 404, or
  /// "src" + config -> get_or_build). Public for registered route handlers.
  std::shared_ptr<const Session> resolve_session(const JsonValue& body);

 private:
  Response dispatch(const Request& req, const JsonValue& body);
  Response handle_health() const;
  Response handle_metrics() const;
  Response handle_build(const JsonValue& body);
  Response handle_slice(const JsonValue& body);
  Response handle_communities(const JsonValue& body);
  Response handle_rank(const JsonValue& body);
  Response handle_lint(const JsonValue& body);
  Response handle_patch(const JsonValue& body);

  SessionStore* store_;
  RouterOptions opts_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> warming_{false};
  /// Process-lifetime anchor for /v1/health uptime_ms.
  std::chrono::steady_clock::time_point started_at_;
  /// path -> method -> handler: the built-ins (registered by the
  /// constructor) and every add_route endpoint.
  std::map<std::string, std::map<std::string, RouteHandler>> routes_;
};

/// Structured error response ({"error":{"code","message"},"status"}).
Response error_response(int status, const std::string& code,
                        const std::string& message);

/// Same, marked retriable: the body gains `"retriable": true` and the
/// response carries Retry-After (seconds) for the HTTP transport to emit.
Response retriable_error_response(int status, const std::string& code,
                                  const std::string& message,
                                  int retry_after_s = 1);

}  // namespace rca::service
