// Tests for the resident RCA query service: session store (LRU, single-
// flight, snapshot warm start), router (endpoints, errors, backpressure,
// deadlines), and the loopback HTTP server (raw TCP, graceful drain).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "service/build_info.hpp"
#include "service/http_server.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "test_routes.hpp"

namespace fs = std::filesystem;

namespace rca::service {
namespace {

std::uint64_t counter(const char* name) {
  return obs::global().counter(name);
}

/// A tiny distinct corpus: one module whose names embed `tag`, so different
/// tags hash to different session keys while staying the same size class.
SourceList make_corpus(const std::string& tag) {
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

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::global().set_enabled(true); }
};

using SessionStoreTest = ServiceTest;
using RouterTest = ServiceTest;
using HttpServerTest = ServiceTest;

// ---------------------------------------------------------------------------
// SessionStore
// ---------------------------------------------------------------------------

TEST_F(SessionStoreTest, BuildThenResidentHit) {
  SessionStore store(SessionStoreOptions{});
  const std::uint64_t builds0 = counter("service.session.builds");
  const std::uint64_t hits0 = counter("service.session.hits");
  const std::uint64_t misses0 = counter("service.session.misses");

  auto first = store.get_or_build(SessionConfig{}, make_corpus("a"));
  ASSERT_NE(first, nullptr);
  EXPECT_GT(first->metagraph().node_count(), 0u);
  EXPECT_FALSE(first->warm_started());
  EXPECT_EQ(counter("service.session.builds"), builds0 + 1);
  EXPECT_EQ(counter("service.session.misses"), misses0 + 1);

  auto second = store.get_or_build(SessionConfig{}, make_corpus("a"));
  EXPECT_EQ(first.get(), second.get());  // resident: same object, no rebuild
  EXPECT_EQ(counter("service.session.builds"), builds0 + 1);
  EXPECT_EQ(counter("service.session.hits"), hits0 + 1);
  EXPECT_EQ(store.session_count(), 1u);
  EXPECT_EQ(first->key(),
            SessionStore::compute_key(SessionConfig{}, make_corpus("a")));
}

TEST_F(SessionStoreTest, LruEvictionOrderIsDeterministic) {
  // Size the budget off a real session so the test tracks the estimator:
  // 2 same-shape sessions fit, a 3rd forces exactly one eviction.
  std::size_t one_session_bytes = 0;
  {
    SessionStore probe(SessionStoreOptions{});
    one_session_bytes =
        probe.get_or_build(SessionConfig{}, make_corpus("a"))->bytes();
  }
  ASSERT_GT(one_session_bytes, 0u);

  SessionStoreOptions opts;
  opts.max_bytes = one_session_bytes * 5 / 2;
  SessionStore store(opts);
  const std::string key_a =
      SessionStore::compute_key(SessionConfig{}, make_corpus("a"));
  const std::string key_b =
      SessionStore::compute_key(SessionConfig{}, make_corpus("b"));
  const std::string key_c =
      SessionStore::compute_key(SessionConfig{}, make_corpus("c"));
  const std::string key_d =
      SessionStore::compute_key(SessionConfig{}, make_corpus("d"));

  const std::uint64_t evict0 = counter("service.session.evictions");
  store.get_or_build(SessionConfig{}, make_corpus("a"));
  store.get_or_build(SessionConfig{}, make_corpus("b"));
  store.get_or_build(SessionConfig{}, make_corpus("c"));  // evicts a (LRU)
  EXPECT_EQ(counter("service.session.evictions"), evict0 + 1);
  EXPECT_EQ(store.keys_by_recency(), (std::vector<std::string>{key_c, key_b}));
  EXPECT_EQ(store.lookup(key_a), nullptr);

  // Touch b so c becomes the LRU victim for the next insertion.
  ASSERT_NE(store.lookup(key_b), nullptr);
  EXPECT_EQ(store.keys_by_recency(), (std::vector<std::string>{key_b, key_c}));
  store.get_or_build(SessionConfig{}, make_corpus("d"));  // evicts c
  EXPECT_EQ(counter("service.session.evictions"), evict0 + 2);
  EXPECT_EQ(store.keys_by_recency(), (std::vector<std::string>{key_d, key_b}));
  EXPECT_LE(store.resident_bytes(), opts.max_bytes);
}

TEST_F(SessionStoreTest, NewestSessionSurvivesEvenOverBudget) {
  SessionStoreOptions opts;
  opts.max_bytes = 1;  // nothing fits, but the newest must still be served
  SessionStore store(opts);
  auto session = store.get_or_build(SessionConfig{}, make_corpus("solo"));
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(store.session_count(), 1u);
}

TEST_F(SessionStoreTest, SingleFlightDedupUnderEightThreads) {
  SessionStore store(SessionStoreOptions{});
  const std::uint64_t builds0 = counter("service.session.builds");

  constexpr int kThreads = 8;
  std::vector<std::future<std::shared_ptr<const Session>>> futs;
  futs.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    futs.push_back(std::async(std::launch::async, [&store] {
      return store.get_or_build(SessionConfig{}, make_corpus("sf"));
    }));
  }
  std::vector<std::shared_ptr<const Session>> sessions;
  for (auto& f : futs) sessions.push_back(f.get());

  // Whatever the interleaving, the build ran exactly once and every caller
  // got the same session object.
  EXPECT_EQ(counter("service.session.builds"), builds0 + 1);
  for (const auto& s : sessions) {
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s.get(), sessions[0].get());
  }
  EXPECT_EQ(store.session_count(), 1u);
}

TEST_F(SessionStoreTest, SnapshotWarmStartSkipsParsing) {
  const fs::path dir =
      fs::temp_directory_path() / "rca_service_test_snap";
  fs::remove_all(dir);

  SessionStoreOptions opts;
  opts.snapshot_dir = dir.string();
  std::size_t cold_nodes = 0;
  {
    SessionStore cold(opts);
    auto s = cold.get_or_build(SessionConfig{}, make_corpus("warm"));
    EXPECT_FALSE(s->warm_started());
    cold_nodes = s->metagraph().node_count();
  }

  // A fresh store (fresh process, conceptually) warm-starts from disk:
  // a build, a hit, a snapshot_warm — and zero parses.
  const std::uint64_t hits0 = counter("service.session.hits");
  const std::uint64_t warm0 = counter("service.session.snapshot_warm");
  const std::uint64_t parses0 = counter("service.session.parses");
  const std::uint64_t misses0 = counter("service.session.misses");
  SessionStore warm_store(opts);
  auto s = warm_store.get_or_build(SessionConfig{}, make_corpus("warm"));
  EXPECT_TRUE(s->warm_started());
  EXPECT_EQ(s->metagraph().node_count(), cold_nodes);
  EXPECT_EQ(counter("service.session.hits"), hits0 + 1);
  EXPECT_EQ(counter("service.session.snapshot_warm"), warm0 + 1);
  EXPECT_EQ(counter("service.session.parses"), parses0);
  EXPECT_EQ(counter("service.session.misses"), misses0);

  // Lint needs ASTs, which a warm start skipped — it lazily parses once.
  const analysis::AnalysisResult& lint = s->lint();
  EXPECT_GT(lint.modules, 0u);
  EXPECT_EQ(counter("service.session.parses"), parses0 + 1);
  fs::remove_all(dir);
}

TEST_F(SessionStoreTest, UnparsableFileIsSkippedAndLintedAsParseError) {
  SessionStore store(SessionStoreOptions{});
  SourceList sources = make_corpus("ok");
  sources.emplace_back("mem/zz_broken.f90", "module broken\n  x = = (\n");
  auto session = store.get_or_build(SessionConfig{}, sources);
  EXPECT_GT(session->metagraph().node_count(), 0u);
  EXPECT_EQ(session->skipped_modules(),
            std::vector<std::string>{"mem/zz_broken.f90"});
  std::size_t parse_errors = 0;
  for (const analysis::Diagnostic& d : session->lint().diagnostics()) {
    if (d.rule != analysis::kParseErrorRule) continue;
    ++parse_errors;
    EXPECT_EQ(d.file, "mem/zz_broken.f90");
    EXPECT_EQ(d.severity, analysis::Severity::kError);
  }
  EXPECT_EQ(parse_errors, 1u);
}

TEST_F(SessionStoreTest, BuildFailurePropagatesAndIsNotCached) {
  SessionStore store(SessionStoreOptions{});
  SourceList bad = {{"mem/bad.f90", "module broken\n  this is not fortran"}};
  // Parse failures are diagnostics, not exceptions — but a coverage run on a
  // corpus without the cam_driver convention throws.
  SessionConfig config;
  config.coverage = true;
  EXPECT_THROW(store.get_or_build(config, bad), std::exception);
  EXPECT_EQ(store.session_count(), 0u);
  // The failed build left no single-flight tombstone: retrying throws again
  // rather than hanging on a dead future.
  EXPECT_THROW(store.get_or_build(config, bad), std::exception);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

JsonValue parse_body(const Response& resp) { return parse_json(resp.body); }

TEST_F(RouterTest, HealthReportsBuildIdInline) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  const Response resp = router.handle({"GET", "/v1/health", ""});
  EXPECT_EQ(resp.status, 200);
  const JsonValue body = parse_body(resp);
  EXPECT_EQ(body.get_string("status", ""), "ok");
  EXPECT_EQ(body.get_string("build_id", ""), build_id());
  EXPECT_EQ(body.get_int("sessions", -1), 0);
}

TEST_F(RouterTest, MetricsEndpointEmitsRegistryDocument) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  const Response resp = router.handle({"GET", "/v1/metrics", ""});
  EXPECT_EQ(resp.status, 200);
  const JsonValue body = parse_body(resp);
  EXPECT_EQ(body.get_string("schema", ""), "rca.metrics.v1");
}

TEST_F(RouterTest, BuildSliceRankCommunitiesLintOverGoldenCorpus) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});  // null pool: inline execution

  JsonWriter req;
  req.begin_object();
  req.key("src");
  req.string_value(RCA_GOLDEN_DIR);
  req.end_object();
  const Response built =
      router.handle({"POST", "/v1/graph/build", req.str()});
  ASSERT_EQ(built.status, 200) << built.body;
  const JsonValue bd = parse_body(built);
  const std::string session = bd.get_string("session", "");
  ASSERT_FALSE(session.empty());
  EXPECT_GT(bd.get_int("nodes", 0), 0);
  EXPECT_GT(bd.get_int("io_labels", 0), 0);

  const Response sliced = router.handle(
      {"POST", "/v1/slice",
       "{\"session\": \"" + session + "\", \"outputs\": [\"gflux\"]}"});
  ASSERT_EQ(sliced.status, 200) << sliced.body;
  const JsonValue sd = parse_body(sliced);
  EXPECT_GT(sd.get_int("nodes", 0), 0);
  EXPECT_LE(sd.get_int("nodes", 0), sd.get_int("graph_nodes", 0));
  ASSERT_NE(sd.get("shown"), nullptr);
  EXPECT_GT(sd.get("shown")->items().size(), 0u);

  const Response ranked = router.handle(
      {"POST", "/v1/rank",
       "{\"session\": \"" + session +
           "\", \"kind\": \"degree\", \"top\": 5, \"modules\": true}"});
  ASSERT_EQ(ranked.status, 200) << ranked.body;
  const JsonValue rd = parse_body(ranked);
  ASSERT_NE(rd.get("ranking"), nullptr);
  EXPECT_GT(rd.get("ranking")->items().size(), 0u);
  EXPECT_LE(rd.get("ranking")->items().size(), 5u);

  const Response comm = router.handle(
      {"POST", "/v1/communities",
       "{\"session\": \"" + session +
           "\", \"method\": \"louvain\", \"min_size\": 2}"});
  ASSERT_EQ(comm.status, 200) << comm.body;
  EXPECT_NE(parse_body(comm).get("communities"), nullptr);

  const Response linted = router.handle(
      {"POST", "/v1/lint", "{\"session\": \"" + session + "\"}"});
  ASSERT_EQ(linted.status, 200) << linted.body;
  const JsonValue ld = parse_body(linted);
  EXPECT_GT(ld.get_int("modules", 0), 0);
  ASSERT_NE(ld.get("report"), nullptr);
  EXPECT_EQ(ld.get("report")->get_string("schema", ""),
            "rca.diagnostics.v1");
}

TEST_F(RouterTest, StructuredErrors) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});

  // Malformed JSON body.
  Response resp = router.handle({"POST", "/v1/slice", "{not json"});
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(parse_body(resp).get("error")->get_string("code", ""),
            "bad_request");

  // Unknown endpoint.
  resp = router.handle({"POST", "/v1/nope", "{}"});
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(parse_body(resp).get("error")->get_string("code", ""),
            "not_found");

  // Wrong method.
  resp = router.handle({"GET", "/v1/slice", ""});
  EXPECT_EQ(resp.status, 405);

  // Unknown session key.
  resp = router.handle(
      {"POST", "/v1/slice",
       R"({"session": "deadbeef", "targets": ["x"]})"});
  EXPECT_EQ(resp.status, 404);
  EXPECT_EQ(parse_body(resp).get("error")->get_string("code", ""),
            "session_not_found");

  // Neither session nor src.
  resp = router.handle({"POST", "/v1/lint", "{}"});
  EXPECT_EQ(resp.status, 400);

  // Oversized body.
  RouterOptions small;
  small.max_body_bytes = 8;
  Router tiny(&store, small);
  resp = tiny.handle({"POST", "/v1/slice", std::string(64, 'x')});
  EXPECT_EQ(resp.status, 413);

  // Unregistered paths are 404 (the sleep route exists only where a test
  // registers it).
  resp = router.handle({"POST", "/v1/_test/sleep", R"({"ms": 0})"});
  EXPECT_EQ(resp.status, 404);

  // A mistyped pre-dispatch field ("deadline_ms" must be a number) is a 400,
  // not an exception escaping into the transport thread.
  resp = router.handle(
      {"POST", "/v1/slice", R"({"deadline_ms": "abc", "targets": ["x"]})"});
  EXPECT_EQ(resp.status, 400);
  EXPECT_EQ(parse_body(resp).get("error")->get_string("code", ""),
            "bad_request");
}

TEST_F(RouterTest, BackpressureRejectsWith429) {
  SessionStore store(SessionStoreOptions{});
  ThreadPool pool(2);
  RouterOptions opts;
  opts.pool = &pool;
  opts.max_in_flight = 1;
  Router router(&store, opts);
  test::add_sleep_route(router);

  const std::uint64_t rejects0 = counter("service.rejects");
  // Occupy the single in-flight slot with a slow request...
  std::thread slow([&router] {
    const Response r =
        router.handle({"POST", "/v1/_test/sleep", R"({"ms": 400})"});
    EXPECT_EQ(r.status, 200);
  });
  while (router.in_flight() == 0) std::this_thread::yield();

  // ...and watch the next one bounce, structurally.
  const Response rejected =
      router.handle({"POST", "/v1/_test/sleep", R"({"ms": 0})"});
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(parse_body(rejected).get("error")->get_string("code", ""),
            "over_capacity");
  EXPECT_EQ(counter("service.rejects"), rejects0 + 1);
  slow.join();

  // Capacity freed: the same request now succeeds.
  const Response ok =
      router.handle({"POST", "/v1/_test/sleep", R"({"ms": 0})"});
  EXPECT_EQ(ok.status, 200);
}

TEST_F(RouterTest, DeadlineExpiryAnswers504) {
  SessionStore store(SessionStoreOptions{});
  ThreadPool pool(2);
  RouterOptions opts;
  opts.pool = &pool;
  Router router(&store, opts);
  test::add_sleep_route(router);

  const std::uint64_t timeouts0 = counter("service.timeouts");
  const Response resp = router.handle(
      {"POST", "/v1/_test/sleep", R"({"ms": 600, "deadline_ms": 50})"});
  EXPECT_EQ(resp.status, 504);
  EXPECT_EQ(parse_body(resp).get("error")->get_string("code", ""),
            "deadline_exceeded");
  EXPECT_EQ(counter("service.timeouts"), timeouts0 + 1);
  // The worker is still finishing in the background; wait so the pool's
  // destructor doesn't race the sleeping task.
  while (router.in_flight() != 0) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// HttpServer (raw loopback TCP)
// ---------------------------------------------------------------------------

/// A socket connected to 127.0.0.1:`port`.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// One-shot HTTP client: sends `raw`, reads until the server closes.
std::string raw_request(std::uint16_t port, const std::string& raw) {
  const int fd = connect_loopback(port);
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
  return "POST " + path + " HTTP/1.1\r\nHost: l\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST_F(HttpServerTest, ServesHealthOverRawTcpAndDrainsCleanly) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  test::add_sleep_route(router);
  HttpServer server(&router, HttpServerOptions{});
  server.start();
  ASSERT_NE(server.port(), 0);

  std::future<int> rc =
      std::async(std::launch::async, [&server] { return server.serve_forever(); });

  const std::string health =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("Content-Length:"), std::string::npos);

  // Query strings are stripped; POST bodies honor Content-Length.
  const std::string slept = raw_request(
      server.port(), post_request("/v1/_test/sleep?x=1", R"({"ms": 0})"));
  EXPECT_NE(slept.find("200 OK"), std::string::npos);

  const std::string malformed =
      raw_request(server.port(), "BOGUS\r\n\r\n");
  EXPECT_NE(malformed.find("400 Bad Request"), std::string::npos);

  server.request_shutdown();
  EXPECT_EQ(rc.get(), 0);  // graceful drain exits 0
}

TEST_F(HttpServerTest, ShutdownDrainsInFlightRequests) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  test::add_sleep_route(router);
  HttpServer server(&router, HttpServerOptions{});
  server.start();
  std::future<int> rc =
      std::async(std::launch::async, [&server] { return server.serve_forever(); });

  // A request that is mid-execution when shutdown arrives must still get
  // its response before serve_forever returns.
  std::future<std::string> slow =
      std::async(std::launch::async, [&server] {
        return raw_request(server.port(),
                           post_request("/v1/_test/sleep", R"({"ms": 300})"));
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  server.request_shutdown();
  EXPECT_EQ(rc.get(), 0);
  EXPECT_NE(slow.get().find("200 OK"), std::string::npos);
}

TEST_F(HttpServerTest, AdversarialRequestsNeverKillTheDaemon) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  test::add_sleep_route(router);
  HttpServer server(&router, HttpServerOptions{});
  server.start();
  std::future<int> rc =
      std::async(std::launch::async, [&server] { return server.serve_forever(); });

  // Content-Length too large for long long: rejected as oversized, and the
  // process must survive (stoll overflow used to terminate the daemon).
  const std::string overflow = raw_request(
      server.port(),
      "POST /v1/_test/sleep HTTP/1.1\r\nHost: l\r\n"
      "Content-Length: 99999999999999999999\r\n\r\n");
  EXPECT_NE(overflow.find("413"), std::string::npos);

  // Mistyped deadline over the wire: structured 400, daemon alive.
  const std::string mistyped = raw_request(
      server.port(), post_request("/v1/_test/sleep", R"({"deadline_ms":[]})"));
  EXPECT_NE(mistyped.find("400 Bad Request"), std::string::npos);

  // Oversized request head (4x the 16 KiB limit, small enough to fit in the
  // loopback socket buffers so the one-shot client's send cannot block).
  const std::string big_head = raw_request(
      server.port(), "GET /v1/health HTTP/1.1\r\nX-Pad: " +
                         std::string(64 * 1024, 'a') + "\r\n\r\n");
  EXPECT_NE(big_head.find("400 Bad Request"), std::string::npos);

  // The daemon still serves normal traffic after all of the above.
  const std::string health =
      raw_request(server.port(), "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);

  server.request_shutdown();
  EXPECT_EQ(rc.get(), 0);
}

TEST_F(HttpServerTest, KeepAliveRecyclesAConnectionAfterItsHundredthRequest) {
  HttpServer server(
      HttpServer::Handler([](const Request&) { return Response{200, "{}\n"}; }),
      HttpServerOptions{});
  server.start();
  std::future<int> rc =
      std::async(std::launch::async, [&server] { return server.serve_forever(); });

  // Request/response lock-step on one connection. Each response's head is
  // kept; reading stops at the first error, so a failure still reaches the
  // shutdown below instead of leaving serve_forever running.
  const int fd = connect_loopback(server.port());
  timeval tv{5, 0};  // a server that never answers fails the test, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  auto fill = [fd](std::string& buf) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
    return n > 0;
  };
  const std::string req = "GET /v1/health HTTP/1.1\r\nHost: l\r\n\r\n";
  std::vector<std::string> heads;
  std::string buf;
  bool ok = true;
  for (int i = 0; i < 100 && ok; ++i) {
    ok = ::send(fd, req.data(), req.size(), 0) ==
         static_cast<ssize_t>(req.size());
    std::size_t head_end = std::string::npos;
    while (ok && (head_end = buf.find("\r\n\r\n")) == std::string::npos) {
      ok = fill(buf);
    }
    if (!ok) break;
    heads.push_back(buf.substr(0, head_end));
    const std::size_t len_at = heads.back().find("Content-Length: ");
    ok = len_at != std::string::npos;
    if (!ok) break;
    const std::size_t end =
        head_end + 4 + std::stoul(heads.back().substr(len_at + 16));
    while (ok && buf.size() < end) ok = fill(buf);
    if (ok) buf.erase(0, end);
  }
  // After the 100th response the server closes: the next read sees EOF.
  char byte = 0;
  const ssize_t after = ok ? ::recv(fd, &byte, 1, 0) : -1;
  ::close(fd);
  server.request_shutdown();
  EXPECT_EQ(rc.get(), 0);

  ASSERT_EQ(heads.size(), 100u);
  for (std::size_t i = 0; i < 99; ++i) {
    EXPECT_NE(heads[i].find("Connection: keep-alive"), std::string::npos)
        << "response " << i + 1 << ":\n" << heads[i];
  }
  EXPECT_NE(heads[99].find("Connection: close"), std::string::npos)
      << heads[99];
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(after, 0) << "the connection stayed open after response 100";
}

TEST_F(HttpServerTest, EphemeralPortsAreIndependent) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  HttpServer a(&router, HttpServerOptions{});
  HttpServer b(&router, HttpServerOptions{});
  a.start();
  b.start();
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

}  // namespace
}  // namespace rca::service
