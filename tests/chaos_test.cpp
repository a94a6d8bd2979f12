// Chaos suite: drives the pipeline and the rca-serve stack under armed
// fault-injection specs (src/fault) and asserts graceful degradation —
// no crash, correct 5xx/partial semantics, counters proving the fault
// fired, and byte-identical behavior once disarmed.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/score.hpp"
#include "engine/pipeline.hpp"
#include "fault/fault.hpp"
#include "graph/girvan_newman.hpp"
#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "meta/snapshot_cache.hpp"
#include "obs/obs.hpp"
#include "service/http_server.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/thread_pool.hpp"
#include "test_routes.hpp"

namespace fs = std::filesystem;

namespace rca {
namespace {

std::uint64_t counter(const char* name) {
  return obs::global().counter(name);
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("rca-chaos-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

service::SourceList make_corpus(const std::string& tag) {
  const std::string text =
      "module m_" + tag + "\n"
      "  implicit none\n"
      "  real :: x_" + tag + "\n"
      "  real :: y_" + tag + "\n"
      "contains\n"
      "  subroutine step_" + tag + "()\n"
      "    x_" + tag + " = 1.5\n"
      "    y_" + tag + " = x_" + tag + " * 2.0\n"
      "  end subroutine step_" + tag + "\n"
      "end module m_" + tag + "\n";
  return {{"mem/" + tag + ".f90", text}};
}

/// Two-file corpus so one file can be poisoned while the other survives.
service::SourceList make_two_file_corpus() {
  service::SourceList sources = make_corpus("alpha");
  service::SourceList more = make_corpus("beta");
  sources.insert(sources.end(), more.begin(), more.end());
  return sources;
}

meta::Metagraph sample_metagraph(std::unique_ptr<lang::SourceFile>* keep) {
  *keep = std::make_unique<lang::SourceFile>(
      lang::Parser("<chaos>", R"(
module m
  real :: rnd(4)
  real :: flwds(4)
contains
  subroutine s()
    real :: emis
    call shr_rand_uniform(rnd)
    emis = rnd(1) * 0.3 + 0.6
    flwds = emis * 0.8 + max(emis, 0.1)
    call outfld('FLDS', flwds)
  end subroutine
end module
)")
          .parse_file());
  std::vector<const lang::Module*> mods;
  for (const auto& mod : (*keep)->modules) mods.push_back(&mod);
  return meta::build_metagraph(mods);
}

std::string raw_request(std::uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  // Half-close the write side: the keep-alive server sees EOF when it looks
  // for a second request and closes, so reading until EOF stays one-shot.
  ::shutdown(fd, SHUT_WR);
  std::string out;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string post_request(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: l\r\nContent-Type: "
         "application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Every test starts disarmed and leaves the global registry disarmed.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::global().set_enabled(true);
    fault::FaultRegistry::global().disarm();
  }
  void TearDown() override { fault::FaultRegistry::global().disarm(); }
};

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DisarmedSitesAreNoOps) {
  EXPECT_FALSE(fault::FaultRegistry::global().armed());
  for (int i = 0; i < 1000; ++i) {
    RCA_FAULT_POINT("chaos.disarmed");
    fault::Hit h = RCA_FAULT_CHECK("chaos.disarmed");
    EXPECT_FALSE(static_cast<bool>(h));
  }
  EXPECT_EQ(fault::FaultRegistry::global().fires("chaos.disarmed"), 0u);
  EXPECT_EQ(counter("fault.injected.chaos.disarmed"), 0u);
}

TEST_F(ChaosTest, SpecGrammarParsesAndRejects) {
  auto& reg = fault::FaultRegistry::global();
  // Full grammar: seed entry, every action, optional after_n / max_fires.
  reg.arm(
      "seed=7, a.site:1.0:throw, b:0.5:errno:2, c:1:delay-15:0:3, "
      "d:0.25:short-write");
  EXPECT_TRUE(reg.armed());
  reg.disarm();
  EXPECT_FALSE(reg.armed());

  EXPECT_THROW(reg.arm(""), Error);
  EXPECT_THROW(reg.arm("name-only"), Error);
  EXPECT_THROW(reg.arm("x:1.0"), Error);            // missing action
  EXPECT_THROW(reg.arm("x:2.0:throw"), Error);      // probability > 1
  EXPECT_THROW(reg.arm("x:1.0:explode"), Error);    // unknown action
  EXPECT_THROW(reg.arm("x:1.0:delay-abc"), Error);  // bad delay
  EXPECT_THROW(reg.arm("x:1.0:throw:-1"), Error);   // bad after_n
  EXPECT_FALSE(reg.armed());  // a failed arm never half-arms
}

TEST_F(ChaosTest, PointThrowsTypedExceptions) {
  auto& reg = fault::FaultRegistry::global();
  reg.arm("chaos.p:1.0:throw");
  EXPECT_THROW(fault::point("chaos.p"), fault::FaultInjected);
  reg.arm("chaos.p:1.0:errno");
  EXPECT_THROW(fault::point("chaos.p"), fault::TransientError);
  // check() never throws: the errno action comes back as a Hit.
  fault::Hit h = fault::check("chaos.p");
  EXPECT_EQ(h.action, fault::Action::kErrno);
}

TEST_F(ChaosTest, AfterNAndMaxFiresWindowTheFaults) {
  auto& reg = fault::FaultRegistry::global();
  reg.arm("chaos.w:1.0:throw:2:1");  // skip 2 hits, then fire exactly once
  int threw = 0;
  for (int i = 0; i < 6; ++i) {
    try {
      fault::point("chaos.w");
    } catch (const fault::FaultInjected&) {
      ++threw;
      EXPECT_EQ(i, 2);  // fired on exactly the third hit
    }
  }
  EXPECT_EQ(threw, 1);
  EXPECT_EQ(reg.fires("chaos.w"), 1u);
}

TEST_F(ChaosTest, SeedDeterministicFiring) {
  auto& reg = fault::FaultRegistry::global();
  auto pattern = [&reg](const std::string& spec) {
    reg.arm(spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(static_cast<bool>(reg.hit("chaos.seeded")));
    }
    return fired;
  };
  const auto a = pattern("seed=42, chaos.seeded:0.5:throw");
  const auto b = pattern("seed=42, chaos.seeded:0.5:throw");
  EXPECT_EQ(a, b);  // same seed -> identical firing pattern
  const auto c = pattern("seed=43, chaos.seeded:0.5:throw");
  EXPECT_NE(a, c);  // different stream (2^-64 collision odds)
  // ~50% rate sanity: far from all-or-nothing.
  const auto fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 8u);
  EXPECT_LT(fires, 56u);
}

// ---------------------------------------------------------------------------
// Snapshot layer: torn writes, quarantine, missing-vs-corrupt
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, SnapshotShortWriteQuarantineAndRebuild) {
  TempDir dir("snap");
  std::unique_ptr<lang::SourceFile> keep;
  meta::Metagraph mg = sample_metagraph(&keep);
  meta::SnapshotCache cache(dir.path.string());
  meta::SnapshotKey key;
  key.add("chaos-snapshot");

  // Torn write: the short-write fault truncates the payload but the rename
  // still publishes it (the crash window where rename was durable first).
  fault::FaultRegistry::global().arm("meta.snapshot.write:1.0:short-write");
  EXPECT_TRUE(cache.store(key, mg));
  fault::FaultRegistry::global().disarm();
  ASSERT_TRUE(fs::exists(cache.path_for(key)));

  const std::uint64_t misses0 = counter("meta.snapshot.misses");
  const std::uint64_t corrupt0 = counter("meta.snapshot.corrupt");
  const std::uint64_t quarantined0 = counter("meta.snapshot.quarantined");
  EXPECT_FALSE(cache.try_load(key).has_value());  // corrupt reads as a miss
  EXPECT_EQ(counter("meta.snapshot.misses"), misses0 + 1);
  EXPECT_EQ(counter("meta.snapshot.corrupt"), corrupt0 + 1);
  EXPECT_EQ(counter("meta.snapshot.quarantined"), quarantined0 + 1);
  // The poisoned entry moved to a .corrupt sidecar: the slot is clean now.
  EXPECT_FALSE(fs::exists(cache.path_for(key)));
  EXPECT_TRUE(fs::exists(cache.path_for(key) + ".corrupt"));

  // Rebuild-on-corruption: a clean store over the quarantined slot hits.
  EXPECT_TRUE(cache.store(key, mg));
  std::optional<meta::Metagraph> loaded = cache.try_load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->node_count(), mg.node_count());
}

TEST_F(ChaosTest, SnapshotMissingIsCountedApartFromCorrupt) {
  TempDir dir("miss");
  meta::SnapshotCache cache(dir.path.string());
  meta::SnapshotKey key;
  key.add("never-stored");
  const std::uint64_t misses0 = counter("meta.snapshot.misses");
  const std::uint64_t missing0 = counter("meta.snapshot.missing");
  const std::uint64_t corrupt0 = counter("meta.snapshot.corrupt");
  EXPECT_FALSE(cache.try_load(key).has_value());
  EXPECT_EQ(counter("meta.snapshot.misses"), misses0 + 1);
  EXPECT_EQ(counter("meta.snapshot.missing"), missing0 + 1);
  EXPECT_EQ(counter("meta.snapshot.corrupt"), corrupt0);  // absent != corrupt
}

TEST_F(ChaosTest, SnapshotWriteErrnoFailsStoreWithoutThrowing) {
  TempDir dir("werr");
  std::unique_ptr<lang::SourceFile> keep;
  meta::Metagraph mg = sample_metagraph(&keep);
  meta::SnapshotCache cache(dir.path.string());
  meta::SnapshotKey key;
  key.add("errno-write");
  fault::FaultRegistry::global().arm("meta.snapshot.write:1.0:errno");
  EXPECT_FALSE(cache.store(key, mg));  // best-effort contract: false, no throw
  fault::FaultRegistry::global().disarm();
  EXPECT_FALSE(fs::exists(cache.path_for(key)));
}

// ---------------------------------------------------------------------------
// Service: degraded sessions, retry, eviction under chaos
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ParseThrowYieldsDegradedPartialSession) {
  // Serial parse (null pool): hit 1 = alpha (survives, after_n=1 skips it),
  // hit 2 = beta (throws).
  fault::FaultRegistry::global().arm("service.parse:1.0:throw:1");
  service::SessionStore store(service::SessionStoreOptions{});
  service::Router router(&store, service::RouterOptions{});
  auto session = store.get_or_build(service::SessionConfig{},
                                    make_two_file_corpus());
  fault::FaultRegistry::global().disarm();
  ASSERT_NE(session, nullptr);
  EXPECT_GT(session->metagraph().node_count(), 0u);  // partial, not empty
  const std::vector<std::string> skipped = session->skipped_modules();
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], "mem/beta.f90");

  // Responses over the resident (degraded) session say so.
  const service::Response resp = router.handle(service::Request{
      "POST", "/v1/lint", "{\"session\": \"" + session->key() + "\"}"});
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(resp.body.find("mem/beta.f90"), std::string::npos);

  // Fault-free rerun in a fresh store: nothing skipped, nothing degraded.
  service::SessionStore clean(service::SessionStoreOptions{});
  auto healthy = clean.get_or_build(service::SessionConfig{},
                                    make_two_file_corpus());
  EXPECT_TRUE(healthy->skipped_modules().empty());
  service::Router clean_router(&clean, service::RouterOptions{});
  const service::Response ok = clean_router.handle(service::Request{
      "POST", "/v1/lint", "{\"session\": \"" + healthy->key() + "\"}"});
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body.find("\"degraded\""), std::string::npos);
}

TEST_F(ChaosTest, BuildTransientRetrySucceeds) {
  // max_fires=1: exactly the first build attempt fails, the retry succeeds.
  fault::FaultRegistry::global().arm("service.build.io:1.0:errno:0:1");
  const std::uint64_t retries0 = counter("service.session.retries");
  service::SessionStoreOptions opts;
  opts.backoff_base_ms = 1;  // keep the test fast
  opts.backoff_cap_ms = 2;
  service::SessionStore store(opts);
  auto session = store.get_or_build(service::SessionConfig{},
                                    make_corpus("retry"));
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(counter("service.session.retries"), retries0 + 1);
  EXPECT_EQ(fault::FaultRegistry::global().fires("service.build.io"), 1u);
}

TEST_F(ChaosTest, BuildTransientRetryExhaustionIsA500) {
  // Unlimited fires: every attempt fails; after build_retries the error
  // escapes and the router maps it to a 5xx, never a client-fault 4xx.
  fault::FaultRegistry::global().arm("service.build.io:1.0:errno");
  const std::uint64_t retries0 = counter("service.session.retries");
  service::SessionStoreOptions opts;
  opts.build_retries = 2;
  opts.backoff_base_ms = 1;
  opts.backoff_cap_ms = 2;
  service::SessionStore store(opts);
  EXPECT_THROW(
      store.get_or_build(service::SessionConfig{}, make_corpus("exhaust")),
      fault::TransientError);
  EXPECT_EQ(counter("service.session.retries"), retries0 + 2);

  TempDir dir("src");
  std::ofstream(dir.path / "a.f90") << make_corpus("http")[0].second;
  service::Router router(&store, service::RouterOptions{});
  const service::Response resp = router.handle(service::Request{
      "POST", "/v1/graph/build",
      "{\"src\": \"" + dir.path.string() + "\"}"});
  EXPECT_EQ(resp.status, 500);
  EXPECT_NE(resp.body.find("transient_io"), std::string::npos);
}

TEST_F(ChaosTest, EvictionHoldsUnderConcurrentDelayedColdBuilds) {
  // Budget sized off a real session: ~2 fit, so 4 distinct corpora force
  // evictions while 8 threads race cold builds stretched by injected delay.
  std::size_t one_session_bytes = 0;
  {
    service::SessionStore probe(service::SessionStoreOptions{});
    one_session_bytes =
        probe.get_or_build(service::SessionConfig{}, make_corpus("t0"))
            ->bytes();
  }
  ASSERT_GT(one_session_bytes, 0u);

  fault::FaultRegistry::global().arm("service.build.io:1.0:delay-30");
  service::SessionStoreOptions opts;
  opts.max_bytes = one_session_bytes * 5 / 2;
  service::SessionStore store(opts);
  const std::uint64_t builds0 = counter("service.session.builds");
  const std::uint64_t evictions0 = counter("service.session.evictions");

  const std::vector<std::string> tags = {"t0", "t1", "t2", "t3"};
  std::vector<std::future<std::string>> futures;
  for (int worker = 0; worker < 8; ++worker) {
    const std::string tag = tags[worker % tags.size()];
    futures.push_back(std::async(std::launch::async, [&store, tag] {
      auto s = store.get_or_build(service::SessionConfig{}, make_corpus(tag));
      return s == nullptr ? std::string() : s->key();
    }));
  }
  std::vector<std::string> keys;
  for (auto& f : futures) keys.push_back(f.get());
  fault::FaultRegistry::global().disarm();

  // Every caller got the right session (single-flight pairs share a build).
  for (int worker = 0; worker < 8; ++worker) {
    EXPECT_EQ(keys[worker],
              service::SessionStore::compute_key(
                  service::SessionConfig{},
                  make_corpus(tags[worker % tags.size()])));
  }
  // At most one build per distinct corpus, despite two callers for each.
  EXPECT_EQ(counter("service.session.builds"), builds0 + tags.size());
  EXPECT_GE(counter("service.session.evictions"), evictions0 + 1);
  // LRU invariants survived the chaos: bookkeeping agrees with the budget.
  EXPECT_EQ(store.keys_by_recency().size(), store.session_count());
  EXPECT_GE(store.session_count(), 1u);
  EXPECT_TRUE(store.resident_bytes() <= opts.max_bytes ||
              store.session_count() == 1);
}

// ---------------------------------------------------------------------------
// Community budget fallback
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, GnBudgetFallsBackToLouvain) {
  // Two triangles joined by a bridge — clean 2-community structure.
  const graph::Digraph g(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}});

  graph::GirvanNewmanOptions gn;
  gn.min_community_size = 2;
  gn.budget_ms = 1;
  // Delay each step past the budget: the deadline check at the top of the
  // removal loop trips before the first removal, deterministically.
  fault::FaultRegistry::global().arm("graph.gn.step:1.0:delay-20");
  const std::uint64_t fallback0 = counter("community.fallback");

  graph::GirvanNewmanResult raw = girvan_newman(g, gn);
  EXPECT_TRUE(raw.budget_exceeded);
  EXPECT_EQ(raw.edges_removed, 0u);  // expired before removing anything

  graph::CommunityDetectionResult budgeted =
      graph::communities_with_budget(g, gn);
  fault::FaultRegistry::global().disarm();
  EXPECT_TRUE(budgeted.fell_back);
  EXPECT_EQ(counter("community.fallback"), fallback0 + 1);
  EXPECT_FALSE(budgeted.communities.empty());  // Louvain still answered

  // Without a budget the same options complete as plain Girvan-Newman.
  gn.budget_ms = 0;
  graph::CommunityDetectionResult unbudgeted =
      graph::communities_with_budget(g, gn);
  EXPECT_FALSE(unbudgeted.fell_back);
  EXPECT_EQ(unbudgeted.communities.size(), 2u);
}

// ---------------------------------------------------------------------------
// Transport chaos: the daemon survives socket-level faults end to end
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, TransportFaultsDontKillTheDaemon) {
  service::SessionStore store(service::SessionStoreOptions{});
  service::Router router(&store, service::RouterOptions{});
  test::add_sleep_route(router);
  service::HttpServer server(&router, service::HttpServerOptions{});
  server.start();
  ASSERT_NE(server.port(), 0);
  std::future<int> rc = std::async(
      std::launch::async, [&server] { return server.serve_forever(); });

  // Phase 1 — recv delay: requests stall but still answer 200.
  fault::FaultRegistry::global().arm("http.recv:1.0:delay-25");
  const std::string slow =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_NE(slow.find("200 OK"), std::string::npos);
  EXPECT_GE(fault::FaultRegistry::global().fires("http.recv"), 1u);

  // Phase 2 — recv errno: the read dies; the daemon drops the connection.
  fault::FaultRegistry::global().arm("http.recv:1.0:errno");
  const std::string dead =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_EQ(dead.find("200 OK"), std::string::npos);

  // Phase 3 — send short-write: the reply is truncated mid-flight.
  fault::FaultRegistry::global().arm("http.send:1.0:short-write");
  const std::string torn =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_LT(torn.size(), slow.size());
  EXPECT_GE(fault::FaultRegistry::global().fires("http.send"), 1u);

  // Disarmed again: the same daemon serves perfectly — no poisoned state.
  fault::FaultRegistry::global().disarm();
  const std::string healthy =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_NE(healthy.find("200 OK"), std::string::npos);
  EXPECT_NE(healthy.find("\"status\":\"ok\""), std::string::npos);

  const std::string posted = raw_request(
      server.port(), post_request("/v1/_test/sleep", R"({"ms": 0})"));
  EXPECT_NE(posted.find("200 OK"), std::string::npos);

  server.request_shutdown();
  EXPECT_EQ(rc.get(), 0);  // graceful drain still works after the chaos
}

// ---------------------------------------------------------------------------
// Engine stage faults: every stage of run_scenario fails cleanly
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, EngineStageFaultsFailCleanlyAndPoisonNothing) {
  engine::PipelineConfig config;
  config.ensemble_members = 20;
  config.experimental_runs = 6;
  config.threads = 2;
  const model::ScenarioSpec& s = *model::find_scenario("goffgratch");
  auto row = [&s](engine::Pipeline& pipe) {
    return campaign::score_outcome(s, pipe.run_scenario(s, true),
                                   pipe.metagraph().graph(), 15);
  };
  engine::Pipeline reference_pipe(config);
  const campaign::ScenarioScore reference = row(reference_pipe);
  ASSERT_GT(reference.iterations, 0u);  // refinement really samples

  // The chaos pipeline has recorded no control trace yet, so the first
  // engine.sample fault fails the control recording itself. The disarmed
  // rerun caches the control trace, so the second one fails the
  // experimental recording.
  engine::Pipeline pipe(config);
  for (const char* spec :
       {"engine.sample:1.0:throw", "engine.sample:1.0:throw",
        "engine.ect:1.0:throw", "engine.selection:1.0:throw",
        "engine.slice:1.0:throw", "engine.refinement:1.0:throw"}) {
    fault::FaultRegistry::global().arm(spec);
    EXPECT_THROW(pipe.run_scenario(s, true), fault::FaultInjected) << spec;
    fault::FaultRegistry::global().disarm();
    EXPECT_EQ(row(pipe), reference) << spec;
  }
  EXPECT_GE(counter("fault.injected.engine.sample"), 2u);
}

// ---------------------------------------------------------------------------
// Determinism: a faulted run leaves no trace once disarmed
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, FaultFreeRerunIsByteIdentical) {
  const auto run_sequence = [] {
    service::SessionStore store(service::SessionStoreOptions{});
    service::Router router(&store, service::RouterOptions{});
    auto session = store.get_or_build(service::SessionConfig{},
                                      make_two_file_corpus());
    const std::string ref = "{\"session\": \"" + session->key() + "\"";
    std::string out;
    out += router.handle(service::Request{
        "POST", "/v1/slice",
        ref + ", \"targets\": [\"x_alpha\"]}"}).body;
    out += router.handle(service::Request{
        "POST", "/v1/communities", ref + ", \"min_size\": 1}"}).body;
    out += router.handle(service::Request{
        "POST", "/v1/rank", ref + ", \"kind\": \"degree\"}"}).body;
    out += router.handle(service::Request{"POST", "/v1/lint", ref + "}"}).body;
    return out;
  };

  const std::string before = run_sequence();

  // Chaos in the middle: parse faults, transient build errors, GN delays.
  fault::FaultRegistry::global().arm(
      "service.parse:1.0:throw:1, service.build.io:0.5:errno:0:1, "
      "graph.gn.step:1.0:delay-5");
  const std::string during = run_sequence();
  EXPECT_NE(during, before);  // the fault run really did degrade
  fault::FaultRegistry::global().disarm();

  const std::string after = run_sequence();
  EXPECT_EQ(before, after);  // byte-identical once disarmed
}

}  // namespace
}  // namespace rca
