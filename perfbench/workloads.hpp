// The three workloads, shared by the untraced driver (e2e.cpp) and the
// traced driver (layers.cpp), which re-runs the same seeded operations.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common.hpp"
#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

/// Called with (operation name, start, end) around each timed call.
using Hook = std::function<void(const std::string&, Clock::time_point,
                                Clock::time_point)>;

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::microseconds(
                            static_cast<long long>(seconds * 1e6));
}

// ---------------------------------------------------------------------------
// scenario-library
// ---------------------------------------------------------------------------

/// Pipeline construction plus the scenario corpora it parses on first use,
/// so the timed passes start with every lazy build done.
inline std::unique_ptr<rca::engine::Pipeline> build_pipeline() {
  auto p = std::make_unique<rca::engine::Pipeline>(scenario_pipeline_config());
  for (const auto& s : rca::model::scenario_library()) p->bug_model(s.bug);
  return p;
}

struct PassResult {
  double wall_ms = 0.0;
  std::vector<double> op_ms;
  std::vector<rca::campaign::ScenarioScore> scores;  // library order
  std::string board;
};

/// All library scenarios with runtime sampling, in the pass's seeded order.
inline PassResult run_scenario_pass(rca::engine::Pipeline& p,
                                    std::uint64_t seed, std::size_t pass,
                                    Result& result) {
  const auto& library = rca::model::scenario_library();
  PassResult out;
  out.scores.resize(library.size());
  const auto t_pass = Clock::now();
  for (std::size_t idx : scenario_order(seed, pass)) {
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      rca::engine::ExperimentOutcome o =
          p.run_scenario(library[idx], /*runtime_sampling=*/true);
      out.op_ms.push_back(ms_since(t0));
      out.scores[idx] = score_outcome(library[idx], o, p.metagraph());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s failed: %s\n",
                   library[idx].name.c_str(), e.what());
      ok = false;
    }
    result.attempt(ok);
  }
  out.wall_ms = ms_since(t_pass);
  out.board = scoreboard_json(out.scores);
  return out;
}

// ---------------------------------------------------------------------------
// cesm-session
// ---------------------------------------------------------------------------

/// Rounds per timed block: wall_s is the median block time.
constexpr int kRoundsPerBlock = 2;
/// Blocks per segment. The obs registry grows with every request, so the
/// timed phase is a series of segments, each starting from a fresh store
/// and an empty registry with the same seeded edit script: every figure
/// comes from the same fixed work, whatever the throughput.
constexpr int kBlocksPerSegment = 5;
/// Session-store byte budget for the edited cesm session.
constexpr std::size_t kCesmSessionBytes = 16ull << 20;

struct CesmSession {
  Corpus corpus = make_corpus(rca::model::cesm_scale_spec());
  rca::service::SessionConfig config = session_config(corpus);
  rca::ThreadPool build_pool{4};
  rca::ThreadPool request_pool{4};
  std::unique_ptr<rca::service::SessionStore> store;
  std::unique_ptr<rca::service::Router> router;
  std::string head;
  rca::service::SourceList cur;
  std::vector<std::string> labels;
  std::unique_ptr<Rng> label_rng;
  std::unique_ptr<EditScript> edits;

  rca::service::SessionStoreOptions store_options() {
    rca::service::SessionStoreOptions opts;
    opts.build_pool = &build_pool;
    // Old generations are evicted early, so resident memory levels off
    // after a few rounds instead of growing with the number of rounds run.
    opts.max_bytes = kCesmSessionBytes;
    return opts;
  }
  rca::service::RouterOptions router_options() {
    rca::service::RouterOptions opts;
    opts.pool = &request_pool;
    return opts;
  }

  /// Drops the previous store and empties the obs registry, restarts the
  /// peak-RSS count, then one cold get_or_build on a fresh store: its
  /// session is the one the rounds edit, from the start of the seeded edit
  /// script. Returns the build time (one set-up) in ms.
  double start(std::uint64_t seed) {
    router.reset();
    store.reset();
    rca::obs::global().reset();
    reset_peak_rss();
    store = std::make_unique<rca::service::SessionStore>(store_options());
    const auto t0 = Clock::now();
    auto session = store->get_or_build(config, corpus.sources);
    const double ms = ms_since(t0);
    head = session->key();
    labels = seeded_labels(session->metagraph(), seed);
    router =
        std::make_unique<rca::service::Router>(store.get(), router_options());
    cur = corpus.sources;
    edits = std::make_unique<EditScript>(corpus, seed);
    label_rng = std::make_unique<Rng>(seed * 131 + 7);
    return ms;
  }

  /// The round's 3 slice labels, drawn from every output label.
  std::vector<std::string> round_labels() {
    std::vector<std::string> out;
    for (int i = 0; i < 3; ++i) {
      out.push_back(labels[label_rng->below(labels.size())]);
    }
    return out;
  }

  /// One edit-and-requery round; returns its wall time in ms. `hook`, when
  /// set, is called around each request (the traced driver records spans).
  double round(Result& result, const Hook& hook = nullptr) {
    const auto t_round = Clock::now();
    auto call = [&](const std::string& name, const char* path,
                    const std::string& body) -> std::string {
      const auto t0 = Clock::now();
      rca::service::Response resp = router->handle({"POST", path, body});
      if (hook) hook(name, t0, Clock::now());
      result.check(resp.status == 200, name + " answered " +
                                           std::to_string(resp.status));
      return resp.body;
    };
    auto [idx, text] = edits->next(cur);
    const std::string patched = call("patch", "/v1/session/patch",
                                     patch_body(head, cur[idx].first, text));
    const JsonValue doc = rca::parse_json(patched);
    result.check(!doc.get_bool("rolled_back", true) &&
                     !doc.get_bool("full_rewalk", true),
                 "patch left the incremental path");
    cur[idx].second = std::move(text);
    head = doc.get_string("session");
    for (const std::string& label : round_labels()) {
      call("slice", "/v1/slice", slice_body(head, label));
    }
    call("rank", "/v1/rank", rank_body(head));
    call("louvain", "/v1/communities", louvain_body(head));
    call("gn", "/v1/communities", gn_body(head));
    call("lint", "/v1/lint", lint_body(head));
    return ms_since(t_round);
  }

  /// The head session's v2 snapshot must equal a cold build of the edited
  /// corpus (built untimed, in a store of its own).
  void check_final(Result& result) {
    auto final_session = store->lookup(head);
    result.check(final_session != nullptr, "final session not resident");
    if (!final_session) return;
    rca::service::SessionStore fresh(store_options());
    auto cold = fresh.get_or_build(config, cur);
    result.check(cold->key() == head, "cold rebuild hashes to another session");
    result.check(snapshot_bytes(cold->metagraph()) ==
                     snapshot_bytes(final_session->metagraph()),
                 "patched session differs from a cold build of the final "
                 "corpus");
  }
};

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// Requests per segment. The daemon slows down and grows as it serves (its
/// span registry grows with every request), so the timed phase is a series
/// of segments, each on a freshly spawned daemon with the same seeded
/// traffic. Every figure then comes from the same fixed work, whatever the
/// throughput, and a faster daemon does not report a slower tail.
constexpr std::size_t kSegmentRequests = 5000;
/// Completed requests per timed batch within a segment: wall_s is the
/// median batch time.
constexpr std::size_t kBatchRequests = 500;

struct LogEntry {
  std::uint64_t seq = 0;  // send order; a read never precedes its session
  Route route = Route::kHealth;
  std::string body;
  int status = 0;
  std::size_t resp_hash = 0;
  double latency_ms = 0.0;
  Clock::time_point done;
};

struct ServeRun {
  Corpus corpus = make_corpus(rca::model::CorpusSpec{});
  fs::path dir;
  std::unique_ptr<Daemon> daemon;
  std::string base_key;

  /// Writes the corpus the daemons read.
  explicit ServeRun(const Args& a) : dir(fs::path(a.work_dir) / "serve") {
    write_corpus(corpus, dir / "corpus");
  }

  /// Spawns daemon number `n`, waits until it is healthy and cold-builds
  /// the corpus; returns the time that took (one set-up) in ms.
  double start(const Args& a, int n) {
    const std::string body = build_body(corpus, dir / "corpus");
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(a.rca_tool,
                                      dir / ("daemon" + std::to_string(n)));
    HttpConn conn(daemon->port());
    int status = 0;
    std::string resp;
    for (;;) {
      if (conn.request("GET", "/v1/health", "", &status, &resp) &&
          status == 200 && resp.find("\"ready\"") != std::string::npos) {
        break;
      }
      if (ms_since(t0) > 30000) throw std::runtime_error("daemon never healthy");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!conn.request("POST", "/v1/graph/build", body, &status, &resp) ||
        status != 200) {
      throw std::runtime_error("cold /v1/graph/build failed: " + resp);
    }
    const double ms = ms_since(t0);
    base_key = json_string_field(resp, "session");
    return ms;
  }

  /// Graceful stop of the current daemon; returns its exit code.
  int stop() {
    const int code = daemon->stop();
    daemon.reset();
    return code;
  }

  /// 4 closed-loop keep-alive clients that send `requests` requests in all.
  /// Client 0 patches every kPatchEvery-th op (later reads retarget the new
  /// head), client 1 scrapes /v1/metrics every kScrapeEvery-th op, the rest
  /// is the read mix.
  std::vector<LogEntry> run(std::uint64_t seed, std::size_t requests,
                            const std::vector<std::string>& labels,
                            Result& result) {
    std::mutex mu;
    std::string head = base_key;
    std::uint64_t next_seq = 0;
    std::vector<LogEntry> log;
    Corpus cur_corpus = corpus;  // client 0's edit chain
    EditScript edits(corpus, seed);
    std::atomic<bool> transport_failed{false};
    auto client = [&](int c) {
      try {
        HttpConn conn(daemon->port());
        Rng rng(seed * 4099 + static_cast<std::uint64_t>(c) + 1);
        for (int op = 1;; ++op) {
          LogEntry e;
          std::pair<std::size_t, std::string> edit;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (next_seq >= requests) return;
            e.seq = next_seq++;
            if (c == 0 && op % kPatchEvery == 0) {
              e.route = Route::kPatch;
              edit = edits.next(cur_corpus.sources);
              // The daemon names each file by the path it read it from, so
              // the patch must too; any other spelling adds a second file.
              e.body = patch_body(
                  head,
                  (dir / "corpus" / cur_corpus.sources[edit.first].first)
                      .string(),
                  edit.second);
            } else if (c == 1 && op % kScrapeEvery == 0) {
              e.route = Route::kMetrics;
            } else {
              e.route = draw_read(rng);
              e.body = read_body(e.route, head,
                                 labels[rng.below(labels.size())]);
            }
          }
          std::string resp;
          const auto t0 = Clock::now();
          const bool ok = conn.request(route_method(e.route),
                                       route_path(e.route), e.body, &e.status,
                                       &resp);
          e.done = Clock::now();
          e.latency_ms =
              std::chrono::duration<double, std::milli>(e.done - t0).count();
          if (!ok) transport_failed = true;
          e.resp_hash = std::hash<std::string>{}(resp);
          std::lock_guard<std::mutex> lock(mu);
          if (ok && e.route == Route::kPatch && e.status == 200) {
            cur_corpus.sources[edit.first].second = std::move(edit.second);
            head = rca::parse_json(resp).get_string("session", head);
          }
          log.push_back(std::move(e));
          if (!ok) return;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client %d: %s\n", c, e.what());
        transport_failed = true;
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) threads.emplace_back(client, c);
    for (auto& t : threads) t.join();
    result.check(!transport_failed, "a request failed on the transport");
    std::sort(log.begin(), log.end(), [](const LogEntry& x, const LogEntry& y) {
      return x.seq < y.seq;
    });
    return log;
  }
};

/// Median time per kBatchRequests completions, from the completion stamps.
inline std::vector<double> batch_times_ms(const std::vector<LogEntry>& log,
                                          Clock::time_point start) {
  std::vector<Clock::time_point> done;
  for (const auto& e : log) done.push_back(e.done);
  std::sort(done.begin(), done.end());
  std::vector<double> out;
  Clock::time_point prev = start;
  for (std::size_t i = kBatchRequests; i <= done.size(); i += kBatchRequests) {
    out.push_back(
        std::chrono::duration<double, std::milli>(done[i - 1] - prev).count());
    prev = done[i - 1];
  }
  return out;
}

/// In-process body hash of each distinct read (route + body), shared by the
/// checks of every segment: a read names its session by content hash, so
/// its body does not depend on the segment it was sent in.
using ExpectedBodies = std::unordered_map<std::string, std::size_t>;

/// Replays one segment's log, in send order, through an in-process Router
/// over the same corpus directory, starting from a fresh store as the
/// segment's daemon did. Every response must be 200; every non-volatile
/// body must equal the in-process body for the same request. Patches always
/// run, so the store holds the segment's sessions; each distinct read runs
/// once across segments. Returns per-entry pass/fail.
inline std::vector<bool> verify_log(const std::vector<LogEntry>& log,
                                    const ServeRun& run,
                                    ExpectedBodies& expected, Result& result) {
  rca::ThreadPool build_pool(4);
  rca::service::SessionStoreOptions sopts;
  sopts.build_pool = &build_pool;
  sopts.max_bytes = kServeSessionBytes;
  rca::service::SessionStore store(sopts);
  rca::service::Router router(&store, rca::service::RouterOptions{});
  const std::string build = build_body(run.corpus, run.dir / "corpus");
  const std::string base = json_string_field(
      router.handle({"POST", "/v1/graph/build", build}).body, "session");
  result.check(base == run.base_key,
               "in-process build hashes to another session");
  std::vector<bool> ok(log.size(), true);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const LogEntry& e = log[i];
    if (e.status != 200) {
      ok[i] = false;
      continue;
    }
    if (state_route(e.route)) continue;
    if (e.route == Route::kPatch) {
      const auto resp = router.handle({"POST", route_path(e.route), e.body});
      ok[i] = std::hash<std::string>{}(resp.body) == e.resp_hash;
      continue;
    }
    const std::string k = std::string(route_path(e.route)) + "\n" + e.body;
    auto it = expected.find(k);
    if (it == expected.end()) {
      const auto resp = router.handle({"POST", route_path(e.route), e.body});
      it = expected.emplace(k, std::hash<std::string>{}(resp.body)).first;
    }
    ok[i] = it->second == e.resp_hash;
  }
  return ok;
}

}  // namespace perfbench
