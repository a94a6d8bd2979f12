#include "service/router.hpp"

#include <chrono>
#include <cstdlib>
#include <future>
#include <optional>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "fault/fault.hpp"
#include "graph/betweenness.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "model/corpus.hpp"
#include "obs/obs.hpp"
#include "service/build_info.hpp"
#include "service/front_end.hpp"
#include "slice/slicer.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace rca::service {

namespace {

/// Default wall-clock budget for Girvan–Newman community requests; on
/// expiry the request falls back to Louvain (counter: community.fallback)
/// and the response says so. A body may override via "budget_ms"
/// (0 = unlimited).
constexpr long long kGnBudgetMs = 10000;

[[noreturn]] void fail(int status, std::string code, std::string message) {
  throw HandlerError{status, std::move(code), std::move(message)};
}

/// Opens every session-carrying response: the session key, plus — when the
/// front end had to skip unparsable modules — "degraded": true and the
/// skipped paths, so clients can tell a partial answer from a full one.
/// Warm-started sessions report nothing (skipped_modules() never forces a
/// parse; see Session).
void write_session_header(JsonWriter& w, const Session& session) {
  w.key("session");
  w.string_value(session.key());
  const std::vector<std::string> skipped = session.skipped_modules();
  if (!skipped.empty()) {
    w.key("degraded");
    w.boolean(true);
    w.key("skipped");
    w.begin_array();
    for (const auto& path : skipped) w.string_value(path);
    w.end_array();
  }
}

}  // namespace

namespace {

Response make_error(int status, const std::string& code,
                    const std::string& message, bool retriable,
                    int retry_after_s) {
  JsonWriter w;
  w.begin_object();
  w.key("error");
  w.begin_object();
  w.key("code");
  w.string_value(code);
  w.key("message");
  w.string_value(message);
  w.end_object();
  w.key("status");
  w.integer(status);
  if (retriable) {
    w.key("retriable");
    w.boolean(true);
  }
  w.end_object();
  return Response{status, std::move(w).str() + "\n", "application/json",
                  retriable ? retry_after_s : 0};
}

}  // namespace

Response error_response(int status, const std::string& code,
                        const std::string& message) {
  return make_error(status, code, message, /*retriable=*/false, 0);
}

Response retriable_error_response(int status, const std::string& code,
                                  const std::string& message,
                                  int retry_after_s) {
  return make_error(status, code, message, /*retriable=*/true, retry_after_s);
}

Router::Router(SessionStore* store, RouterOptions opts)
    : store_(store),
      opts_(std::move(opts)),
      started_at_(std::chrono::steady_clock::now()) {
  auto post = [this](const char* path,
                     Response (Router::*handler)(const JsonValue&)) {
    add_route("POST", path,
              [this, handler](const Request&, const JsonValue& body) {
                return (this->*handler)(body);
              });
  };
  post("/v1/graph/build", &Router::handle_build);
  post("/v1/slice", &Router::handle_slice);
  post("/v1/communities", &Router::handle_communities);
  post("/v1/rank", &Router::handle_rank);
  post("/v1/lint", &Router::handle_lint);
  post("/v1/session/patch", &Router::handle_patch);
}

void Router::add_route(const std::string& method, const std::string& path,
                       RouteHandler handler) {
  routes_[path][method] = std::move(handler);
}

Response Router::handle(const Request& req) {
  // Health and metrics answer inline: their whole point is to keep working
  // while the worker pool is saturated or draining.
  if (req.path == "/v1/health") return handle_health();
  if (req.path == "/v1/metrics") return handle_metrics();

  // Chaos site for the fleet: an armed fire here dies the way a real heap
  // corruption or OOM kill would — no unwinding, no response, no drain.
  // The supervisor must observe SIGABRT via SIGCHLD, not an error body.
  // Sits below health/metrics so supervisor probes never trip it — only
  // real proxied work does.
  if (RCA_FAULT_CHECK("fleet.worker.crash")) {
    std::abort();
  }

  obs::Span span("service.request");
  span.attr("path", req.path);
  const auto started = std::chrono::steady_clock::now();
  obs::count("service.requests");

  auto finish = [&span, started](Response resp) {
    span.attr("status", resp.status);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    obs::observe("service.request.latency_us", us);
    return resp;
  };

  if (req.body.size() > opts_.max_body_bytes) {
    return finish(error_response(413, "body_too_large",
                                 "request body exceeds " +
                                     std::to_string(opts_.max_body_bytes) +
                                     " bytes"));
  }
  // Parse the body on the transport thread: it is cheap (bounded by
  // max_body_bytes) and the per-request deadline lives in it.
  JsonValue body = JsonValue::make_object({});
  if (!req.body.empty()) {
    try {
      JsonParseOptions jopts;
      jopts.max_bytes = opts_.max_body_bytes;
      body = parse_json(req.body, jopts);
    } catch (const std::exception& e) {
      return finish(error_response(400, "bad_request", e.what()));
    }
  }

  // Pre-dispatch body accessors run on the transport thread, outside the
  // worker's try/catch — a mistyped field (e.g. {"deadline_ms":"abc"}) must
  // become a 400 here, never an exception escaping into the worker thread.
  long long deadline_ms = opts_.default_deadline_ms;
  try {
    deadline_ms = body.get_int("deadline_ms", opts_.default_deadline_ms);
  } catch (const std::exception& e) {
    return finish(error_response(400, "bad_request", e.what()));
  }
  if (deadline_ms <= 0) deadline_ms = opts_.default_deadline_ms;
  const auto deadline = started + std::chrono::milliseconds(deadline_ms);

  // Backpressure: bounded in-flight work, structured 429 beyond it.
  // Admission is atomic — reserve a slot first, then release it if over
  // budget — so N transport threads racing here can never all pass a
  // check-then-act window and exceed max_in_flight.
  const std::size_t prior = in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (opts_.max_in_flight != 0 && prior >= opts_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    obs::count("service.rejects");
    return finish(retriable_error_response(
        429, "over_capacity",
        "in-flight request budget (" + std::to_string(opts_.max_in_flight) +
            ") exhausted; retry later"));
  }
  obs::gauge("service.in_flight",
             static_cast<double>(in_flight_.load(std::memory_order_relaxed)));
  auto work = [this, req, body = std::move(body)]() -> Response {
    Response resp;
    try {
      resp = dispatch(req, body);
    } catch (const HandlerError& e) {
      resp = e.retriable ? retriable_error_response(e.status, e.code,
                                                    e.message, e.retry_after)
                         : error_response(e.status, e.code, e.message);
    } catch (const fault::TransientError& e) {
      // Retries exhausted upstream: the request failed on our side, not the
      // client's — 5xx marked retriable, so callers know to back off and
      // try again rather than treat it as permanent.
      resp = retriable_error_response(500, "transient_io", e.what());
    } catch (const fault::FaultInjected& e) {
      resp = error_response(500, "internal", e.what());
    } catch (const Error& e) {
      resp = error_response(400, "bad_request", e.what());
    } catch (const std::exception& e) {
      resp = error_response(500, "internal", e.what());
    }
    // Release: a caller that reads in_flight() == 0 sees every finished
    // dispatch's reads of the route table, so it may destroy the router.
    in_flight_.fetch_sub(1, std::memory_order_release);
    return resp;
  };

  if (opts_.pool == nullptr) return finish(work());

  std::future<Response> fut = opts_.pool->submit(std::move(work));
  if (fut.wait_until(deadline) == std::future_status::timeout) {
    // The worker keeps running (and holding its in-flight slot) — the
    // transport answers now so the client is never stuck past its deadline.
    obs::count("service.timeouts");
    return finish(error_response(504, "deadline_exceeded",
                                 "request exceeded its deadline of " +
                                     std::to_string(deadline_ms) + " ms"));
  }
  return finish(fut.get());
}

Response Router::dispatch(const Request& req, const JsonValue& body) {
  auto pit = routes_.find(req.path);
  if (pit == routes_.end()) {
    fail(404, "not_found", "unknown endpoint " + req.path);
  }
  auto mit = pit->second.find(req.method);
  if (mit == pit->second.end()) {
    fail(405, "method_not_allowed", "unsupported method for " + req.path);
  }
  return mit->second(req, body);
}

Response Router::handle_health() const {
  // Fixed key set and order — fleet probes and golden tests parse this by
  // position. Wall-clock-dependent values (uptime_ms) report 0 under
  // stable_health so test-mode documents stay byte-identical.
  JsonWriter w;
  w.begin_object();
  w.key("status");
  w.string_value("ok");
  w.key("phase");
  w.string_value(warming_.load(std::memory_order_relaxed) ? "warming"
                                                          : "ready");
  w.key("build_id");
  w.string_value(build_id());
  w.key("generation");
  w.integer(opts_.generation);
  w.key("uptime_ms");
  if (opts_.stable_health) {
    w.integer(0);
  } else {
    w.integer(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - started_at_)
                  .count());
  }
  w.key("sessions");
  w.integer(static_cast<long long>(store_->session_count()));
  w.key("resident_bytes");
  w.integer(static_cast<long long>(store_->resident_bytes()));
  w.key("degraded_sessions");
  w.integer(static_cast<long long>(store_->degraded_session_count()));
  w.key("in_flight");
  w.integer(static_cast<long long>(in_flight()));
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

Response Router::handle_metrics() const {
  return Response{200, obs::global().to_json() + "\n"};
}

std::shared_ptr<const Session> Router::resolve_session(const JsonValue& body) {
  if (const JsonValue* s = body.get("session")) {
    std::shared_ptr<const Session> session = store_->lookup(s->as_string());
    if (session == nullptr) {
      fail(404, "session_not_found",
           "no resident session " + s->as_string() +
               " (build it via /v1/graph/build)");
    }
    return session;
  }
  if (body.get("src") != nullptr) {
    SessionConfig config;
    config.build_list = body.get_string_array("build_list");
    config.coverage = body.get_bool("coverage", false);
    config.coverage_steps =
        static_cast<int>(body.get_int("coverage_steps", 2));
    config.prune_dead_stores = body.get_bool("prune_dead_stores", false);
    config.summary_informed_pruning =
        body.get_bool("summary_informed_pruning", false);
    SourceList sources = collect_fortran_sources(body.get_string("src"));
    if (sources.empty()) {
      fail(400, "bad_request",
           "no Fortran sources under " + body.get_string("src"));
    }
    return store_->get_or_build(config, std::move(sources));
  }
  fail(400, "bad_request", "request needs \"session\" or \"src\"");
}

Response Router::handle_build(const JsonValue& body) {
  if (body.get("session") != nullptr && body.get("src") == nullptr) {
    fail(400, "bad_request", "/v1/graph/build takes \"src\", not \"session\"");
  }
  std::shared_ptr<const Session> session = resolve_session(body);
  const meta::Metagraph& mg = session->metagraph();
  JsonWriter w;
  w.begin_object();
  write_session_header(w, *session);
  w.key("nodes");
  w.integer(static_cast<long long>(mg.node_count()));
  w.key("edges");
  w.integer(static_cast<long long>(mg.graph().edge_count()));
  w.key("io_labels");
  w.integer(static_cast<long long>(mg.io_map().size()));
  w.key("modules");
  w.integer(static_cast<long long>(mg.modules().size()));
  w.key("bytes");
  w.integer(static_cast<long long>(session->bytes()));
  w.key("warm");
  w.boolean(session->warm_started());
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

Response Router::handle_slice(const JsonValue& body) {
  std::shared_ptr<const Session> session = resolve_session(body);
  const meta::Metagraph& mg = session->metagraph();

  std::vector<std::string> targets = body.get_string_array("targets");
  const std::vector<std::string> outputs = body.get_string_array("outputs");
  for (const std::string& label : outputs) {
    for (const auto& name : slice::internal_names_for_output(mg, label)) {
      targets.push_back(name);
    }
  }
  if (targets.empty()) {
    if (!outputs.empty()) {
      fail(404, "unknown_output",
           "no I/O label in this graph matches the requested outputs");
    }
    fail(400, "bad_request", "need \"targets\" or \"outputs\"");
  }

  slice::SliceOptions opts;
  if (body.get_bool("cam_only", false)) {
    opts.module_filter = [](const std::string& m) {
      return model::is_cam_module(m);
    };
  }
  opts.drop_components_smaller_than =
      static_cast<std::size_t>(body.get_int("drop_small", 0));
  slice::SliceResult result = slice::backward_slice(mg, targets, opts);

  const std::size_t limit =
      static_cast<std::size_t>(body.get_int("limit", 20));
  JsonWriter w;
  w.begin_object();
  write_session_header(w, *session);
  w.key("criteria");
  w.begin_array();
  for (const auto& t : targets) w.string_value(t);
  w.end_array();
  w.key("nodes");
  w.integer(static_cast<long long>(result.nodes.size()));
  w.key("edges");
  w.integer(static_cast<long long>(result.subgraph.edge_count()));
  w.key("graph_nodes");
  w.integer(static_cast<long long>(mg.node_count()));
  w.key("shown");
  w.begin_array();
  for (std::size_t i = 0; i < result.nodes.size() && i < limit; ++i) {
    const auto& info = mg.info(result.nodes[i]);
    w.begin_object();
    w.key("name");
    w.string_value(info.unique_name);
    w.key("module");
    w.string_value(info.module);
    w.key("line");
    w.integer(info.line);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

Response Router::handle_communities(const JsonValue& body) {
  std::shared_ptr<const Session> session = resolve_session(body);
  const meta::Metagraph& mg = session->metagraph();
  const std::string method = body.get_string("method", "gn");
  const std::size_t min_size =
      static_cast<std::size_t>(body.get_int("min_size", 3));

  std::vector<std::vector<graph::NodeId>> communities;
  JsonWriter w;
  w.begin_object();
  write_session_header(w, *session);
  if (method == "louvain") {
    graph::LouvainOptions opts;
    opts.min_community_size = min_size;
    auto result = louvain(mg.graph(), opts);
    communities = std::move(result.communities);
    w.key("method");
    w.string_value("louvain");
    w.key("modularity");
    w.number(result.modularity);
  } else if (method == "gn") {
    graph::GirvanNewmanOptions opts;
    opts.iterations = static_cast<int>(body.get_int("iterations", 1));
    opts.min_community_size = min_size;
    // Wall-clock budget: GN's per-removal betweenness recompute is the
    // service's slowest operation. On expiry the request still answers —
    // with Louvain's partition — instead of timing out.
    opts.budget_ms = body.get_int("budget_ms", kGnBudgetMs);
    // Pivot sampling trades exact betweenness for a seeded estimate so big
    // sessions can answer inside the budget instead of falling back.
    const long long samples = body.get_int("samples", 0);
    if (samples < 0) fail(400, "bad_request", "samples must be >= 0");
    opts.betweenness_samples = static_cast<std::size_t>(samples);
    opts.betweenness_seed =
        static_cast<std::uint64_t>(body.get_int("seed", 2019));
    auto result = graph::communities_with_budget(mg.graph(), opts);
    communities = std::move(result.communities);
    w.key("method");
    w.string_value(result.fell_back ? "louvain" : "gn");
    if (opts.betweenness_samples > 0) {
      w.key("betweenness_samples");
      w.integer(static_cast<long long>(opts.betweenness_samples));
    }
    if (result.fell_back) {
      w.key("fallback_from");
      w.string_value("gn");
      w.key("modularity");
      w.number(result.modularity);
    }
    w.key("edges_removed");
    w.integer(static_cast<long long>(result.edges_removed));
  } else {
    fail(400, "bad_request", "unknown method '" + method + "' (gn|louvain)");
  }
  w.key("communities");
  w.begin_array();
  for (const auto& community : communities) {
    w.begin_object();
    w.key("size");
    w.integer(static_cast<long long>(community.size()));
    w.key("sample");
    w.begin_array();
    for (std::size_t k = 0; k < community.size() && k < 5; ++k) {
      w.string_value(mg.info(community[k]).unique_name);
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

Response Router::handle_rank(const JsonValue& body) {
  std::shared_ptr<const Session> session = resolve_session(body);
  const meta::Metagraph& mg = session->metagraph();
  const std::string kind = body.get_string("kind", "eigenvector");
  const std::size_t top = static_cast<std::size_t>(body.get_int("top", 15));

  // O(V·E) exact betweenness — "samples" caps the Brandes sweeps (seeded
  // pivots) so the endpoint stays interactive on full sessions.
  graph::BetweennessOptions betweenness;
  if (kind == "betweenness") {
    const long long samples = body.get_int("samples", 0);
    if (samples < 0) fail(400, "bad_request", "samples must be >= 0");
    betweenness.samples = static_cast<std::size_t>(samples);
    betweenness.seed = static_cast<std::uint64_t>(body.get_int("seed", 2019));
  }
  const bool modules = body.get_bool("modules", false);
  const std::vector<graph::NodeId> module_of =
      modules ? mg.module_classes() : std::vector<graph::NodeId>{};
  const std::optional<graph::NamedScores> ranked = graph::rank_by_kind(
      kind, mg.graph(),
      [&mg](graph::NodeId v) { return mg.info(v).unique_name; },
      modules ? &module_of : nullptr, mg.modules(), betweenness);
  if (!ranked) {
    fail(400, "bad_request", "unknown centrality kind '" + kind + "'");
  }

  JsonWriter w;
  w.begin_object();
  write_session_header(w, *session);
  w.key("kind");
  w.string_value(kind);
  w.key("ranking");
  w.begin_array();
  long long rank = 1;
  for (graph::NodeId v : graph::top_k(ranked->scores, top)) {
    w.begin_object();
    w.key("rank");
    w.integer(rank++);
    w.key("name");
    w.string_value(ranked->names[v]);
    w.key("score");
    w.number(ranked->scores[v]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

Response Router::handle_patch(const JsonValue& body) {
  const JsonValue* s = body.get("session");
  if (s == nullptr) {
    fail(400, "bad_request", "/v1/session/patch needs \"session\"");
  }
  const std::string base_key = s->as_string();

  SessionStore::PatchEdit edit;
  if (const JsonValue* mods = body.get("modules")) {
    for (const JsonValue& m : mods->items()) {
      const std::string path = m.get_string("path");
      if (path.empty()) {
        fail(400, "bad_request", "each modules[] entry needs a \"path\"");
      }
      if (m.get("src") == nullptr) {
        fail(400, "bad_request",
             "modules[] entry '" + path + "' needs \"src\" text");
      }
      edit.upserts.emplace_back(path, m.get("src")->as_string());
    }
  }
  edit.removes = body.get_string_array("remove");
  if (edit.upserts.empty() && edit.removes.empty()) {
    fail(400, "bad_request", "patch needs \"modules\" and/or \"remove\"");
  }

  SessionStore::PatchResult result;
  try {
    result = store_->patch(base_key, edit);
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find("no resident session") != std::string::npos) {
      fail(404, "session_not_found",
           what + " (build it via /v1/graph/build)");
    }
    fail(400, "bad_request", what);
  }

  const meta::Metagraph& mg = result.session->metagraph();
  JsonWriter w;
  w.begin_object();
  write_session_header(w, *result.session);
  w.key("base_session");
  w.string_value(base_key);
  w.key("generation");
  w.integer(static_cast<long long>(result.session->generation()));
  w.key("rolled_back");
  w.boolean(result.rolled_back);
  w.key("resident_hit");
  w.boolean(result.resident_hit);
  w.key("full_rewalk");
  w.boolean(result.full_rewalk);
  w.key("rebuilt_modules");
  w.integer(static_cast<long long>(result.rebuilt_modules));
  w.key("reused_fragments");
  w.integer(static_cast<long long>(result.reused_fragments));
  w.key("spliced_nodes");
  w.integer(static_cast<long long>(result.spliced_nodes));
  w.key("nodes");
  w.integer(static_cast<long long>(mg.node_count()));
  w.key("edges");
  w.integer(static_cast<long long>(mg.graph().edge_count()));
  if (!result.errors.empty()) {
    w.key("errors");
    w.begin_array();
    for (const auto& [path, message] : result.errors) {
      w.begin_object();
      w.key("path");
      w.string_value(path);
      w.key("message");
      w.string_value(message);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  // A rolled-back patch is still a well-formed answer (the base session is
  // intact and reported); 409 signals the edit itself was rejected.
  return Response{result.rolled_back ? 409 : 200,
                  std::move(w).str() + "\n"};
}

Response Router::handle_lint(const JsonValue& body) {
  std::shared_ptr<const Session> session = resolve_session(body);
  const analysis::AnalysisResult& result = session->lint();
  JsonWriter w;
  w.begin_object();
  write_session_header(w, *session);
  w.key("errors");
  w.integer(static_cast<long long>(result.count(analysis::Severity::kError)));
  w.key("warnings");
  w.integer(
      static_cast<long long>(result.count(analysis::Severity::kWarning)));
  w.key("modules");
  w.integer(static_cast<long long>(result.modules));
  w.key("subprograms");
  w.integer(static_cast<long long>(result.subprograms));
  // The service always lints with the default (interprocedural) passes; the
  // flag tells clients which rule set produced the report.
  w.key("interprocedural");
  w.boolean(true);
  w.key("report");
  // The rca.diagnostics.v1 document, assembled from the lint result's
  // pre-rendered per-module runs straight into the body.
  w.raw_value([&result](std::string* out) { result.append_report(out); });
  w.end_object();
  return Response{200, std::move(w).str() + "\n"};
}

}  // namespace rca::service
