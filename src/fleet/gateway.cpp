#include "fleet/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/obs.hpp"
#include "support/backoff.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace rca::fleet {

using Clock = std::chrono::steady_clock;

namespace {

/// Seeds every request's retry-backoff jitter (with the request's key hash).
constexpr std::uint64_t kRetrySeed = 7;

/// "w<digits>:<rest>" -> (shard, rest). Returns false when `id` carries no
/// gateway prefix (a raw worker-local id, or garbage the worker will 400).
bool split_campaign_id(const std::string& id, std::size_t* shard,
                       std::string* rest) {
  if (id.size() < 4 || id[0] != 'w') return false;
  std::size_t pos = 1;
  std::size_t value = 0;
  while (pos < id.size() && id[pos] >= '0' && id[pos] <= '9') {
    value = value * 10 + static_cast<std::size_t>(id[pos] - '0');
    ++pos;
  }
  if (pos == 1 || pos >= id.size() || id[pos] != ':') return false;
  *shard = value;
  *rest = id.substr(pos + 1);
  return !rest->empty();
}

/// Replaces the first JSON string token `"<from>"` with `"<to>"`. Bodies and
/// worker responses are emitted by JsonWriter with no whitespace, so the
/// quoted form is exact.
std::string replace_token(const std::string& text, const std::string& from,
                          const std::string& to) {
  const std::string needle = "\"" + from + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return text;
  return text.substr(0, at) + "\"" + to + "\"" + text.substr(at + needle.size());
}

/// Value of the first `"<key>":"..."` member in a JsonWriter-emitted body;
/// empty when absent.
std::string find_string_member(const std::string& body, const char* key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = body.find('"', start);
  if (end == std::string::npos) return "";
  return body.substr(start, end - start);
}

bool is_refine_path(const std::string& path) {
  return starts_with(path, "/v1/refine");
}

}  // namespace

Gateway::Gateway(Supervisor* supervisor, GatewayOptions opts)
    : supervisor_(supervisor),
      opts_(opts),
      ring_(supervisor->workers()) {
  if (opts_.max_attempts < 1) opts_.max_attempts = 1;
}

Gateway::RouteDecision Gateway::route(const service::Request& req) const {
  RouteDecision d;
  d.forward_body = req.body;

  JsonValue body;
  bool parsed = false;
  if (!req.body.empty()) {
    try {
      body = parse_json(req.body);
      parsed = body.is_object();
    } catch (...) {
      parsed = false;  // the worker produces the 400; route by raw bytes
    }
  }

  if (parsed && is_refine_path(req.path)) {
    const std::string id = body.get_string("campaign");
    std::size_t shard = 0;
    std::string rest;
    if (!id.empty() && split_campaign_id(id, &shard, &rest) &&
        shard < supervisor_->workers()) {
      d.shards = {shard};
      d.pinned = true;
      d.campaign_routed = true;
      d.campaign_shard = shard;
      d.key_hash = fnv1a64(id, kFleetFnvBasis);
      d.forward_body = replace_token(req.body, id, rest);
      return d;
    }
  }

  std::string key;
  if (parsed) {
    const std::string session = body.get_string("session");
    const std::string src = body.get_string("src");
    const std::string scenario = body.get_string("scenario");
    if (!session.empty()) {
      key = "session:" + session;
      d.key_hash = fnv1a64(key, kFleetFnvBasis);
      std::size_t learned = 0;
      bool have_learned = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = affinity_.find(session);
        if (it != affinity_.end()) {
          learned = it->second;
          have_learned = true;
        }
      }
      d.shards = ring_.preference(key);
      if (have_learned) {
        // The worker that built the session answers without a rebuild; the
        // rest of the preference list stays as warm-start fallback.
        auto it = std::find(d.shards.begin(), d.shards.end(), learned);
        if (it != d.shards.end()) d.shards.erase(it);
        d.shards.insert(d.shards.begin(), learned);
      }
      return d;
    }
    if (!src.empty()) {
      key = "src:" + src;
    } else if (!scenario.empty()) {
      key = "scenario:" + scenario + ":" +
            std::to_string(body.get_int("seed", 0));
    }
  }
  if (key.empty()) key = "body:" + req.body + ":" + req.path;
  d.key_hash = fnv1a64(key, kFleetFnvBasis);
  d.shards = ring_.preference(key);
  return d;
}

void Gateway::learn_affinity(const std::string& body, std::size_t shard) {
  const std::string session = find_string_member(body, "session");
  if (session.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  affinity_[session] = shard;
}

service::Response Gateway::proxy(const service::Request& req) {
  obs::Span span("fleet.proxy");
  span.attr("path", req.path);
  obs::count("fleet.gateway.requests");

  const RouteDecision d = route(req);
  std::size_t cursor = 0;  // index into d.shards (sticky until evidence)
  service::Response last_worker_error;
  bool have_worker_error = false;

  for (int attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    if (attempt > 0) obs::count("fleet.gateway.retries");

    // Pick the first admissible shard at/after the cursor.
    std::size_t shard = 0;
    std::shared_ptr<HttpClient> client;
    for (std::size_t probe = 0; probe < d.shards.size(); ++probe) {
      const std::size_t cand =
          d.shards[d.pinned ? 0 : (cursor + probe) % d.shards.size()];
      if (!supervisor_->breaker(cand).allow(Clock::now())) {
        obs::count("fleet.gateway.breaker_rejects");
        if (d.pinned) break;
        continue;
      }
      client = supervisor_->client(cand);
      if (!client) {
        // Down/restarting: handshake evidence will reset the breaker.
        if (d.pinned) break;
        continue;
      }
      shard = cand;
      break;
    }
    if (!client) {
      // Nothing admissible right now — the shard we need is restarting.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jittered_backoff_ms(attempt, opts_.retry_base_ms,
                              opts_.retry_cap_ms, kRetrySeed,
                              d.key_hash)));
      continue;
    }

    const std::optional<ClientResponse> resp = client->request(
        req.method, req.path, d.forward_body);

    if (!resp.has_value()) {
      // Transport-level failure on a fresh socket: shard evidence.
      supervisor_->note_failure(shard);
      obs::count("fleet.gateway.transport_failures");
      if (!d.pinned) {
        ++cursor;  // re-route: the next shard warm-starts from the snapshot
        obs::count("fleet.gateway.reroutes");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jittered_backoff_ms(attempt, opts_.retry_base_ms,
                              opts_.retry_cap_ms, kRetrySeed,
                              d.key_hash)));
      continue;
    }

    if (resp->status == 429 || resp->status == 503) {
      // Backpressure is per-shard and transient: honor Retry-After (capped)
      // and try again — same shard; spilling load onto its neighbors would
      // just spread the saturation.
      supervisor_->note_success(shard);  // the worker answered; it is alive
      last_worker_error =
          service::Response{resp->status, resp->body};
      have_worker_error = true;
      obs::count("fleet.gateway.backpressure");
      const long long backoff =
          jittered_backoff_ms(attempt, opts_.retry_base_ms,
                              opts_.retry_cap_ms, kRetrySeed,
                              d.key_hash);
      const long long hinted =
          resp->retry_after_ms > 0
              ? std::min(resp->retry_after_ms, opts_.retry_cap_ms)
              : 0;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(backoff, hinted)));
      continue;
    }

    // An application answer (2xx or a definitive error): forward verbatim,
    // modulo the campaign-id prefix that keeps routing stateless for the
    // client.
    supervisor_->note_success(shard);
    service::Response out;
    out.status = resp->status;
    out.body = resp->body;
    if (resp->status == 200) {
      learn_affinity(resp->body, shard);
      const std::string cid = find_string_member(resp->body, "campaign");
      if (!cid.empty() && is_refine_path(req.path)) {
        const std::size_t owner =
            d.campaign_routed ? d.campaign_shard : shard;
        out.body = replace_token(
            out.body, cid, "w" + std::to_string(owner) + ":" + cid);
      }
    }
    span.attr("attempts", static_cast<long long>(attempt + 1));
    span.attr("shard", static_cast<long long>(shard));
    return out;
  }

  obs::count("fleet.gateway.exhausted");
  if (have_worker_error) return last_worker_error;
  return service::retriable_error_response(
      503, "fleet_unavailable",
      "no worker shard answered within the retry budget", 1);
}

service::Response Gateway::gateway_health() const {
  std::size_t up = 0;
  const std::vector<ShardStatus> shards = supervisor_->status();
  for (const ShardStatus& s : shards) {
    if (s.state == ShardState::kUp) ++up;
  }
  JsonWriter w;
  w.begin_object();
  w.key("status");
  w.string_value(up > 0 ? "ok" : "degraded");
  w.key("role");
  w.string_value("gateway");
  w.key("workers");
  w.number(static_cast<long long>(shards.size()));
  w.key("up");
  w.number(static_cast<long long>(up));
  w.end_object();
  return service::Response{up > 0 ? 200 : 503, w.str() + "\n"};
}

service::Response Gateway::fleet_status() const {
  std::vector<std::size_t> sessions(supervisor_->workers(), 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [session, shard] : affinity_) {
      (void)session;
      if (shard < sessions.size()) ++sessions[shard];
    }
  }
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.fleet.v1");
  w.key("workers");
  w.number(static_cast<long long>(supervisor_->workers()));
  w.key("shards");
  w.begin_array();
  for (const ShardStatus& s : supervisor_->status()) {
    w.begin_object();
    w.key("shard");
    w.number(static_cast<long long>(s.shard));
    w.key("pid");
    w.number(static_cast<long long>(s.pid));
    w.key("port");
    w.number(static_cast<long long>(s.port));
    w.key("generation");
    w.number(static_cast<long long>(s.generation));
    w.key("restarts");
    w.number(static_cast<long long>(s.restarts));
    w.key("state");
    w.string_value(shard_state_name(s.state));
    w.key("breaker");
    w.string_value(breaker_state_name(s.breaker));
    w.key("sessions");
    w.number(static_cast<long long>(sessions[s.shard]));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return service::Response{200, w.str() + "\n"};
}

service::Response Gateway::handle(const service::Request& req) {
  if (req.method == "GET" && req.path == "/v1/health") {
    return gateway_health();
  }
  if (req.method == "GET" && req.path == "/v1/fleet/status") {
    return fleet_status();
  }
  if (req.method == "GET" && req.path == "/v1/metrics") {
    return service::Response{200, obs::global().to_json() + "\n"};
  }
  return proxy(req);
}

}  // namespace rca::fleet
