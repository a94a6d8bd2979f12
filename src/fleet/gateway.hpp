// Loopback fleet gateway: one HTTP front door, N worker shards behind it.
//
// The gateway is an HttpServer::Handler that proxies every request to a
// worker chosen by consistent hash of the request's *routing key* and
// contains failure per shard:
//
//   routing key    "campaign" ids are gateway-prefixed ("w<shard>:cN") and
//                  pin the request to that shard (campaign state lives in
//                  that worker's manager; after a crash the respawned worker
//                  resumes it from its journal). "session" keys use learned
//                  affinity (which worker built it) with the hash ring as
//                  the cold fallback. "src"/"scenario" requests hash their
//                  content key and may re-route across the ring's
//                  preference list — any worker rebuilds the session warm
//                  from the shared snapshot directory. Everything else
//                  hashes the raw body.
//
//   containment    a shard's circuit breaker (force-opened by the
//                  supervisor on death evidence) short-circuits attempts;
//                  transport failures count as breaker evidence and
//                  re-route re-routable requests to the next shard in the
//                  preference list; retries use bounded exponential backoff
//                  with deterministic jitter and honor Retry-After from
//                  backpressure (429) responses. Only after the attempt
//                  budget is exhausted does the client see 503.
//
// Gateway-local endpoints (never proxied): GET /v1/health (gateway liveness
// + worker up-count), GET /v1/metrics (gateway-process registry), GET
// /v1/fleet/status (schema rca.fleet.v1: per-shard pid, port, generation,
// restarts, state, breaker state, sessions owned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fleet/hash_ring.hpp"
#include "fleet/supervisor.hpp"
#include "service/router.hpp"

namespace rca::fleet {

struct GatewayOptions {
  /// Attempt budget per request (first try + retries/re-routes). The total
  /// sleep across a budget comfortably covers one worker respawn.
  int max_attempts = 10;
  /// Retry backoff: exponential from base, jittered, capped. A Retry-After
  /// from a worker raises the delay up to the cap.
  long long retry_base_ms = 25;
  long long retry_cap_ms = 500;
};

class Gateway {
 public:
  Gateway(Supervisor* supervisor, GatewayOptions opts);

  /// The HttpServer::Handler. Thread-safe.
  service::Response handle(const service::Request& req);

 private:
  struct RouteDecision {
    std::vector<std::size_t> shards;  // preference order
    bool pinned = false;              // true: never leave shards[0]
    std::uint64_t key_hash = 0;
    std::string forward_body;         // body to send (campaign prefix stripped)
    std::size_t campaign_shard = 0;   // valid when campaign_routed
    bool campaign_routed = false;
  };

  RouteDecision route(const service::Request& req) const;
  service::Response proxy(const service::Request& req);
  service::Response fleet_status() const;
  service::Response gateway_health() const;
  void learn_affinity(const std::string& body, std::size_t shard);

  Supervisor* supervisor_;
  GatewayOptions opts_;
  HashRing ring_;

  mutable std::mutex mu_;
  /// session key -> shard that last served it (learned from 200 bodies).
  std::unordered_map<std::string, std::size_t> affinity_;
};

}  // namespace rca::fleet
