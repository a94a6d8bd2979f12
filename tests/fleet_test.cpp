// Worker-fleet subsystem tests.
//
// In-process units: consistent-hash ring determinism/coverage/minimal
// movement, circuit-breaker transitions under injected time, the pure
// restart/retry backoff schedules, campaign-journal round-trips (torn final
// line, stray .tmp cleanup), crash-resume byte-identity for journaled
// campaigns, HTTP keep-alive reuse on the server transport, and the
// enriched /v1/health document.
//
// Process-level chaos (RCA_TOOL_BIN): a real `rca-tool fleet` with two
// worker shards takes SIGKILL mid-load — every client request must still
// succeed after bounded retries (crash containment + consistent-hash
// re-routing + snapshot warm restart), the killed shard respawns with a
// generation bump, campaign ids stay routable through the gateway prefix,
// and a SIGTERM shutdown leaves no orphan workers and no port files.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "fleet/breaker.hpp"
#include "fleet/gateway.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/http_client.hpp"
#include "fleet/supervisor.hpp"
#include "obs/obs.hpp"
#include "service/http_server.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/backoff.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace rca::fleet {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("rca-fleet-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// ---------------------------------------------------------------------------
// hash ring
// ---------------------------------------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndPreferenceCoversAllShards) {
  HashRing a(4);
  HashRing b(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "session:" + std::to_string(i);
    EXPECT_EQ(a.owner(key), b.owner(key));
    const std::vector<std::size_t> pref = a.preference(key);
    ASSERT_EQ(pref.size(), 4u);
    EXPECT_EQ(pref[0], a.owner(key));
    EXPECT_EQ(std::set<std::size_t>(pref.begin(), pref.end()).size(), 4u)
        << "preference list must be a permutation of all shards";
  }
}

TEST(HashRing, KeysSpreadAcrossEveryShard) {
  HashRing ring(4);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 2000; ++i) {
    ++hits[ring.owner("key-" + std::to_string(i))];
  }
  for (int shard = 0; shard < 4; ++shard) {
    // 2000 keys over 4 shards with 64 vnodes each: every shard owns a
    // non-trivial slice (expected 500, generous tolerance).
    EXPECT_GT(hits[shard], 200) << "shard " << shard << " starved";
  }
}

TEST(HashRing, AddingAShardMovesOnlyAMinorityOfKeys) {
  HashRing four(4);
  HashRing five(5);
  int moved = 0;
  const int kKeys = 2000;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (four.owner(key) != five.owner(key)) ++moved;
  }
  // Consistent hashing: ~1/5 of keys move to the new shard; a modulo hash
  // would move ~4/5. Anything under 40% proves the ring property.
  EXPECT_LT(moved, kKeys * 2 / 5) << moved << " of " << kKeys << " moved";
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// circuit breaker (injected time: no sleeps)
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, OpensAfterThresholdAndAdmitsSingleProbe) {
  BreakerOptions opts;
  opts.failure_threshold = 3;
  opts.cooldown_ms = 500;
  CircuitBreaker br(opts);
  Clock::time_point t0 = Clock::now();

  EXPECT_TRUE(br.allow(t0));
  br.record_failure(t0);
  br.record_failure(t0);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  br.record_failure(t0);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_FALSE(br.allow(t0 + std::chrono::milliseconds(499)));

  // Cooldown elapsed: exactly one probe is admitted.
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(500);
  EXPECT_TRUE(br.allow(t1));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(br.allow(t1)) << "half-open admits one probe, not two";

  // Probe fails: re-open with a fresh cooldown.
  br.record_failure(t1);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_FALSE(br.allow(t1 + std::chrono::milliseconds(499)));
  const Clock::time_point t2 = t1 + std::chrono::milliseconds(500);
  EXPECT_TRUE(br.allow(t2));
  br.record_success();
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ForceOpenAndResetAreImmediate) {
  CircuitBreaker br;
  const Clock::time_point t0 = Clock::now();
  br.force_open(t0);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_FALSE(br.allow(t0));
  br.reset();
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.allow(t0));
}

// ---------------------------------------------------------------------------
// backoff schedules (pure functions)
// ---------------------------------------------------------------------------

TEST(Backoff, RestartScheduleIsDeterministicBoundedAndCapped) {
  long long prev_ceiling = 0;
  for (std::uint64_t attempt = 0; attempt < 12; ++attempt) {
    const long long a = jittered_backoff_ms(attempt, 50, 2000, 2019, 1);
    const long long b = jittered_backoff_ms(attempt, 50, 2000, 2019, 1);
    EXPECT_EQ(a, b) << "schedule must be deterministic";
    EXPECT_GE(a, 1);
    EXPECT_LE(a, 2000) << "attempt " << attempt << " exceeded the cap";
    // Jitter is multiplicative in [0.5, 1.0] of the exponential ceiling.
    const long long ceiling =
        std::min<long long>(2000, 50ll << std::min<std::uint64_t>(attempt, 30));
    EXPECT_GE(a, ceiling / 2);
    EXPECT_GE(ceiling, prev_ceiling);
    prev_ceiling = ceiling;
  }
  // Deep in the schedule the delay saturates near the cap.
  const long long late = jittered_backoff_ms(20, 50, 2000, 2019, 3);
  EXPECT_GE(late, 1000);
  EXPECT_LE(late, 2000);
  // Different shards decorrelate.
  bool any_differ = false;
  for (std::uint64_t attempt = 0; attempt < 8 && !any_differ; ++attempt) {
    any_differ = jittered_backoff_ms(attempt, 50, 2000, 2019, 0) !=
                 jittered_backoff_ms(attempt, 50, 2000, 2019, 1);
  }
  EXPECT_TRUE(any_differ);
}

TEST(Backoff, RingOwnersAndSchedulesArePinned) {
  // Values of the fleet's original hashing: restarts, retries and ring
  // points hash with kFleetFnvBasis, and moving any of them reshuffles
  // shard ownership or a backoff schedule.
  EXPECT_EQ(fnv1a64("a", kFleetFnvBasis), 0x44bd8ad473cd9906ULL);
  const std::vector<long long> restart = {45,  62,   168,  221,  453,  1246,
                                          1983, 1407, 1434, 1859, 1114, 1690};
  const std::vector<long long> retry = {17,  44,  76,  194, 334, 273,
                                        455, 311, 492, 348, 392, 286};
  for (std::uint64_t attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(jittered_backoff_ms(attempt, 50, 2000, 2019, 1),
              restart[attempt]);
    EXPECT_EQ(jittered_backoff_ms(attempt, 25, 500, 7, 42), retry[attempt]);
  }
  const HashRing ring(4);
  const std::vector<std::size_t> owners = {3, 0, 1, 2, 0, 2, 3, 1,
                                           3, 2, 3, 2, 1, 3, 0, 0};
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(ring.owner("key-" + std::to_string(i)), owners[i]) << i;
  }
  EXPECT_EQ(ring.preference("key-0"), (std::vector<std::size_t>{3, 1, 0, 2}));
}

TEST(Backoff, GatewayRetryScheduleIsBounded) {
  for (int attempt = 0; attempt < 12; ++attempt) {
    const long long d = jittered_backoff_ms(attempt, 25, 500, 7, 42);
    EXPECT_EQ(d, jittered_backoff_ms(attempt, 25, 500, 7, 42));
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 500);
  }
}

// ---------------------------------------------------------------------------
// campaign journal
// ---------------------------------------------------------------------------

campaign::IterationSnapshot snap(std::size_t i) {
  campaign::IterationSnapshot s;
  s.iteration = i;
  s.nodes = 100 - i;
  s.edges = 200 - i;
  s.communities = 3;
  s.sampled_sites = 9;
  s.differing_sites = 2;
  s.detected = true;
  s.applied_8a = (i % 2) == 0;
  s.stall_broken = false;
  return s;
}

TEST(CampaignJournalTest, RoundTripsStartAndCheckpoints) {
  TempDir dir("journal");
  const std::string body = "{\"session\":\"k\",\"targets\":[\"sink\"]}";
  campaign::CampaignJournal::write_start(dir.path.string(), "c3", body, "k");
  campaign::CampaignJournal::append_iteration(dir.path.string(), "c3",
                                              snap(1));
  campaign::CampaignJournal::append_iteration(dir.path.string(), "c3",
                                              snap(2));

  const auto unfinished =
      campaign::CampaignJournal::load_unfinished(dir.path.string());
  ASSERT_EQ(unfinished.size(), 1u);
  EXPECT_EQ(unfinished[0].id, "c3");
  EXPECT_EQ(unfinished[0].session_key, "k");
  // The body survives a JSON round-trip (re-serialized canonical form).
  EXPECT_NE(unfinished[0].start_body.find("\"session\":\"k\""),
            std::string::npos);
  ASSERT_EQ(unfinished[0].checkpoints.size(), 2u);
  EXPECT_EQ(unfinished[0].checkpoints[0].iteration, 1u);
  EXPECT_EQ(unfinished[0].checkpoints[1].nodes, 98u);
  EXPECT_EQ(unfinished[0].checkpoints[1].edges, 198u);

  campaign::CampaignJournal::remove(dir.path.string(), "c3");
  EXPECT_TRUE(
      campaign::CampaignJournal::load_unfinished(dir.path.string()).empty());
}

TEST(CampaignJournalTest, ToleratesTornFinalLineAndRemovesTmpStrays) {
  TempDir dir("torn");
  campaign::CampaignJournal::write_start(dir.path.string(), "c1",
                                         "{\"session\":\"k\"}", "k");
  campaign::CampaignJournal::append_iteration(dir.path.string(), "c1",
                                              snap(1));
  // A crash mid-append leaves a torn final line.
  {
    std::ofstream out(
        campaign::CampaignJournal::path_for(dir.path.string(), "c1"),
        std::ios::app | std::ios::binary);
    out << "{\"kind\":\"iteration\",\"iteration\":2,\"nod";
  }
  // And possibly a stray atomic-write temp file.
  { std::ofstream out(dir.path / "c9.journal.tmp"); out << "{"; }

  const auto unfinished =
      campaign::CampaignJournal::load_unfinished(dir.path.string());
  ASSERT_EQ(unfinished.size(), 1u);
  EXPECT_EQ(unfinished[0].checkpoints.size(), 1u)
      << "the torn checkpoint must be dropped, not parsed";
  EXPECT_FALSE(fs::exists(dir.path / "c9.journal.tmp"));
}

// ---------------------------------------------------------------------------
// crash resume: byte-identical result
// ---------------------------------------------------------------------------

service::SourceList chain_corpus() {
  std::string text = "module chainf\ncontains\n  subroutine s()\n";
  text += "    real :: bug, sink\n    real :: ";
  for (int i = 1; i <= 12; ++i) {
    text += "n" + std::to_string(i) + (i < 12 ? std::string(", ")
                                              : std::string("\n"));
  }
  text += "    n1 = bug * 2.0\n";
  for (int i = 2; i <= 12; ++i) {
    text += "    n" + std::to_string(i) + " = n" + std::to_string(i - 1) +
            " + n" + std::to_string(i > 2 ? i - 2 : i - 1) + "\n";
  }
  text += "    sink = n12 + n11\n";
  text += "  end subroutine\nend module\n";
  return {{"mem/chainf.f90", text}};
}

std::string refine_body(const std::string& session_key) {
  JsonWriter w;
  w.begin_object();
  w.key("session");
  w.string_value(session_key);
  w.key("bug");
  w.begin_array();
  w.string_value("bug");
  w.end_array();
  w.key("targets");
  w.begin_array();
  w.string_value("sink");
  w.end_array();
  w.key("small_enough");
  w.integer(4);
  w.key("min_size");
  w.integer(2);
  w.key("samples");
  w.integer(3);
  w.end_object();
  return w.str();
}

TEST(CampaignResume, InterruptedCampaignResumesToByteIdenticalResult) {
  obs::global().set_enabled(true);
  TempDir dir("resume");
  const std::string journal_dir = (dir.path / "campaigns").string();
  const service::SourceList corpus = chain_corpus();
  const std::string key = service::SessionStore::compute_key(
      service::SessionConfig{}, corpus);
  const std::string body = refine_body(key);

  // Uncrashed reference run (journaled; journal deleted at completion).
  std::string reference;
  {
    service::SessionStore store(service::SessionStoreOptions{});
    service::Router router(&store, service::RouterOptions{});
    campaign::CampaignManagerOptions mopts;
    mopts.journal_dir = journal_dir;
    campaign::CampaignManager manager(&store, mopts);
    manager.install_routes(router);
    store.get_or_build(service::SessionConfig{}, corpus);

    const service::Response started =
        router.handle({"POST", "/v1/refine", body});
    ASSERT_EQ(started.status, 200) << started.body;
    const std::string id = parse_json(started.body).get_string("campaign");
    ASSERT_EQ(manager.wait(id), campaign::CampaignState::kDone);
    reference = manager.result_json(id);
    EXPECT_TRUE(
        campaign::CampaignJournal::load_unfinished(journal_dir).empty())
        << "terminal campaigns must delete their journal";
  }

  // Simulate the crash: the journal a dead worker would have left behind —
  // start record plus the first iterations it had committed. (A process
  // crash cannot be simulated in-process; the SIGKILL path is covered by
  // the FleetChaos test.)
  campaign::CampaignJournal::write_start(journal_dir, "c1", body, key);

  // A respawned worker: fresh store (sessions rebuilt, as from the snapshot
  // dir), fresh manager, resume from the journal.
  const std::uint64_t replayed_before =
      obs::global().counter("campaign.checkpoint.replayed");
  {
    service::SessionStore store(service::SessionStoreOptions{});
    service::Router router(&store, service::RouterOptions{});
    campaign::CampaignManagerOptions mopts;
    mopts.journal_dir = journal_dir;
    campaign::CampaignManager manager(&store, mopts);
    store.get_or_build(service::SessionConfig{}, corpus);

    ASSERT_EQ(manager.resume_unfinished(router), 1u);
    ASSERT_EQ(manager.wait("c1"), campaign::CampaignState::kDone);
    EXPECT_EQ(manager.result_json("c1"), reference)
        << "resumed campaign must reproduce the uncrashed result byte for "
           "byte";
    EXPECT_TRUE(
        campaign::CampaignJournal::load_unfinished(journal_dir).empty());
  }

  // Resume with journaled checkpoints verifies them against re-execution.
  campaign::CampaignJournal::write_start(journal_dir, "c1", body, key);
  {
    service::SessionStore store(service::SessionStoreOptions{});
    service::Router router(&store, service::RouterOptions{});
    campaign::CampaignManagerOptions mopts;
    mopts.journal_dir = journal_dir;
    campaign::CampaignManager manager(&store, mopts);
    store.get_or_build(service::SessionConfig{}, corpus);
    ASSERT_EQ(manager.resume_unfinished(router), 1u);
    ASSERT_EQ(manager.wait("c1"), campaign::CampaignState::kDone);
    const std::string resumed = manager.result_json("c1");
    EXPECT_EQ(resumed, reference);
  }
  (void)replayed_before;
}

// ---------------------------------------------------------------------------
// keep-alive transport + enriched health
// ---------------------------------------------------------------------------

TEST(KeepAlive, OneConnectionServesManyRequestsThroughTheClientPool) {
  obs::global().set_enabled(true);
  service::HttpServer server(
      service::HttpServer::Handler([](const service::Request& req) {
        return service::Response{200, "{\"echo\":" +
                                          std::to_string(req.body.size()) +
                                          "}\n"};
      }),
      service::HttpServerOptions{});
  server.start();
  std::thread serving([&server] { server.serve_forever(); });

  const std::uint64_t reuses_before =
      obs::global().counter("service.http.keepalive_reuses");
  {
    HttpClientOptions copts;
    copts.max_connections = 1;  // force every request onto one socket
    HttpClient client(server.port(), copts);
    for (int i = 0; i < 5; ++i) {
      const auto resp = client.request("POST", "/v1/anything", "{}");
      ASSERT_TRUE(resp.has_value()) << "request " << i;
      EXPECT_EQ(resp->status, 200);
      EXPECT_TRUE(resp->keep_alive);
    }
  }
  EXPECT_GE(obs::global().counter("service.http.keepalive_reuses"),
            reuses_before + 4)
      << "five requests on one pooled connection reuse it four times";

  server.request_shutdown();
  serving.join();
}

TEST(Health, EnrichedDocumentIsFixedKeyAndStableUnderTestMode) {
  service::SessionStore store(service::SessionStoreOptions{});
  service::RouterOptions opts;
  opts.generation = 3;
  opts.stable_health = true;
  service::Router router(&store, opts);

  const service::Response resp = router.handle({"GET", "/v1/health", ""});
  ASSERT_EQ(resp.status, 200);
  const std::string& b = resp.body;
  // Fixed key order, so goldens and probes can parse positionally.
  const char* keys[] = {"\"status\":",   "\"phase\":",           "\"build_id\":",
                        "\"generation\":", "\"uptime_ms\":",     "\"sessions\":",
                        "\"resident_bytes\":", "\"degraded_sessions\":",
                        "\"in_flight\":"};
  std::size_t at = 0;
  for (const char* k : keys) {
    const std::size_t found = b.find(k, at);
    ASSERT_NE(found, std::string::npos) << k << " missing/out of order: " << b;
    at = found;
  }
  EXPECT_NE(b.find("\"phase\":\"ready\""), std::string::npos);
  EXPECT_NE(b.find("\"generation\":3"), std::string::npos);
  EXPECT_NE(b.find("\"uptime_ms\":0"), std::string::npos)
      << "stable_health pins uptime_ms to 0: " << b;

  router.set_warming(true);
  EXPECT_NE(router.handle({"GET", "/v1/health", ""}).body.find("\"warming\""),
            std::string::npos);
  router.set_warming(false);

  // Byte-stable across calls under stable_health.
  EXPECT_EQ(router.handle({"GET", "/v1/health", ""}).body, b);
}

// ---------------------------------------------------------------------------
// process-level chaos: real fleet, real SIGKILL
// ---------------------------------------------------------------------------

#ifdef RCA_TOOL_BIN

struct FleetUnderTest {
  pid_t pid = -1;
  std::uint16_t port = 0;
  fs::path run_dir;

  static FleetUnderTest launch(const fs::path& dir, int workers) {
    FleetUnderTest f;
    f.run_dir = dir / "run";
    const fs::path port_file = dir / "gateway.port";
    const std::string snapshot = (dir / "snap").string();
    const pid_t pid = ::fork();
    if (pid == 0) {
      const std::string log = (dir / "fleet.log").string();
      ::freopen(log.c_str(), "a", stdout);
      ::freopen(log.c_str(), "a", stderr);
      ::execl(RCA_TOOL_BIN, RCA_TOOL_BIN, "fleet", "--workers",
              std::to_string(workers).c_str(), "--port-file",
              port_file.string().c_str(), "--run-dir",
              f.run_dir.string().c_str(), "--snapshot", snapshot.c_str(),
              "--backoff-initial-ms", "50", "--probe-interval-ms", "100",
              "--retry-attempts", "12", "--retry-cap-ms", "400",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    f.pid = pid;
    // Port-file handshake, fleet-style.
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline && f.port == 0) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        f.port = static_cast<std::uint16_t>(port);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return f;
  }

  int terminate_and_wait() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(15);
    while (Clock::now() < deadline) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    pid = -1;
    return -1;
  }

  ~FleetUnderTest() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
};

/// Parses `"key":N` occurrences out of a JsonWriter-emitted document.
std::vector<long long> int_members(const std::string& body,
                                   const std::string& key) {
  std::vector<long long> out;
  const std::string needle = "\"" + key + "\":";
  std::size_t at = 0;
  while ((at = body.find(needle, at)) != std::string::npos) {
    at += needle.size();
    long long v = 0;
    bool neg = false;
    if (at < body.size() && body[at] == '-') {
      neg = true;
      ++at;
    }
    while (at < body.size() && body[at] >= '0' && body[at] <= '9') {
      v = v * 10 + (body[at] - '0');
      ++at;
    }
    out.push_back(neg ? -v : v);
  }
  return out;
}

void write_corpus_dir(const fs::path& dir) {
  fs::create_directories(dir);
  const service::SourceList corpus = chain_corpus();
  for (const auto& [path, text] : corpus) {
    const fs::path file = dir / fs::path(path).filename();
    std::ofstream out(file);
    out << text;
  }
}

TEST(FleetChaos, SigkillMidLoadLosesZeroRequestsAndRespawnsTheShard) {
  TempDir dir("chaos");
  write_corpus_dir(dir.path / "corpus");
  FleetUnderTest fleet = FleetUnderTest::launch(dir.path, 2);
  ASSERT_GT(fleet.pid, 0);
  ASSERT_NE(fleet.port, 0) << "gateway port handshake timed out";

  HttpClientOptions copts;
  copts.max_connections = 4;
  copts.io_timeout_ms = 60000;
  HttpClient client(fleet.port, copts);

  const std::string build_body =
      "{\"src\":\"" + (dir.path / "corpus").string() + "\"}";

  // Warm the fleet and learn the worker pids.
  auto first = client.request("POST", "/v1/graph/build", build_body);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200) << first->body;
  auto status = client.request("GET", "/v1/fleet/status", "");
  ASSERT_TRUE(status.has_value());
  const std::vector<long long> pids = int_members(status->body, "pid");
  ASSERT_EQ(pids.size(), 2u) << status->body;

  // Load loop with a SIGKILL in the middle: every request must succeed —
  // the gateway retries/re-routes until a live worker answers.
  int failures = 0;
  const int kRequests = 30;
  for (int i = 0; i < kRequests; ++i) {
    if (i == 10) {
      ASSERT_EQ(::kill(static_cast<pid_t>(pids[0]), SIGKILL), 0);
    }
    const auto resp = client.request("POST", "/v1/graph/build", build_body);
    if (!resp.has_value() || resp->status != 200) {
      ++failures;
      ADD_FAILURE() << "request " << i << " failed: "
                    << (resp.has_value() ? resp->body : "(transport)");
    }
  }
  EXPECT_EQ(failures, 0) << "crash containment must hide the SIGKILL";

  // The killed shard respawned: generation bumped, breaker closed again.
  const auto respawn_deadline = Clock::now() + std::chrono::seconds(20);
  bool respawned = false;
  while (!respawned && Clock::now() < respawn_deadline) {
    const auto s = client.request("GET", "/v1/fleet/status", "");
    ASSERT_TRUE(s.has_value());
    const std::vector<long long> generations =
        int_members(s->body, "generation");
    const std::vector<long long> restarts = int_members(s->body, "restarts");
    respawned = generations.size() == 2 &&
                (generations[0] >= 2 || generations[1] >= 2) &&
                (restarts[0] + restarts[1]) >= 1 &&
                s->body.find("\"state\":\"down\"") == std::string::npos;
    if (!respawned) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(respawned) << "killed shard never came back";

  // A campaign admitted through the gateway carries the shard prefix and
  // stays routable (status/result strip + re-apply it).
  const std::string refine =
      "{\"src\":\"" + (dir.path / "corpus").string() +
      "\",\"bug\":[\"bug\"],\"targets\":[\"sink\"],\"small_enough\":4,"
      "\"min_size\":2,\"samples\":3}";
  const auto started = client.request("POST", "/v1/refine", refine);
  ASSERT_TRUE(started.has_value());
  ASSERT_EQ(started->status, 200) << started->body;
  const std::string cid = parse_json(started->body).get_string("campaign");
  ASSERT_EQ(cid.rfind("w", 0), 0u) << "gateway must prefix campaign ids: "
                                   << cid;
  const auto poll_deadline = Clock::now() + std::chrono::seconds(30);
  bool done = false;
  while (!done && Clock::now() < poll_deadline) {
    const auto s = client.request("POST", "/v1/refine/status",
                                  "{\"campaign\":\"" + cid + "\"}");
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->status, 200) << s->body;
    done = s->body.find("\"state\":\"done\"") != std::string::npos;
    if (!done) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(done);
  const auto result = client.request("POST", "/v1/refine/result",
                                     "{\"campaign\":\"" + cid + "\"}");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 200) << result->body;
  EXPECT_NE(result->body.find("\"ranked\":["), std::string::npos);

  // Graceful shutdown: exit 0, no orphan workers, no port files, no torn
  // journal temp files.
  const std::vector<long long> final_pids = [&] {
    const auto s = client.request("GET", "/v1/fleet/status", "");
    return s.has_value() ? int_members(s->body, "pid")
                         : std::vector<long long>{};
  }();
  EXPECT_EQ(fleet.terminate_and_wait(), 0);
  for (const long long wpid : final_pids) {
    if (wpid <= 0) continue;
    EXPECT_EQ(::kill(static_cast<pid_t>(wpid), 0), -1)
        << "worker " << wpid << " survived fleet shutdown";
  }
  EXPECT_FALSE(fs::exists(fleet.run_dir / "worker-0.port"));
  EXPECT_FALSE(fs::exists(fleet.run_dir / "worker-1.port"));
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().extension() == ".tmp", false)
        << "stray temp file: " << entry.path();
  }
}

TEST(FleetChaos, FaultInjectedWorkerAbortIsContained) {
  TempDir dir("abort");
  write_corpus_dir(dir.path / "corpus");
  // Arm the fleet.worker.crash site in every worker (env is inherited):
  // the 3rd matching request aborts the worker mid-handle, exactly like a
  // heap corruption would.
  ::setenv("RCA_FAULTS", "seed=11,fleet.worker.crash:1.0:throw:3:1", 1);
  FleetUnderTest fleet = FleetUnderTest::launch(dir.path, 2);
  ::unsetenv("RCA_FAULTS");
  ASSERT_GT(fleet.pid, 0);
  ASSERT_NE(fleet.port, 0);

  HttpClientOptions copts;
  copts.io_timeout_ms = 60000;
  HttpClient client(fleet.port, copts);
  const std::string build_body =
      "{\"src\":\"" + (dir.path / "corpus").string() + "\"}";

  // Enough requests to trip the armed crash on some worker; all must
  // succeed from the client's point of view.
  for (int i = 0; i < 12; ++i) {
    const auto resp = client.request("POST", "/v1/graph/build", build_body);
    ASSERT_TRUE(resp.has_value()) << "request " << i;
    EXPECT_EQ(resp->status, 200) << resp->body;
  }
  EXPECT_EQ(fleet.terminate_and_wait(), 0);
}

#endif  // RCA_TOOL_BIN

}  // namespace
}  // namespace rca::fleet
