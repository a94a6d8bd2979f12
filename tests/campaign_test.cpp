// Refinement-campaign subsystem tests: lifecycle over the /v1/refine routes,
// concurrent-campaign admission and backpressure, session pinning vs. LRU
// eviction, cooperative cancel, fault injection (campaign.step /
// campaign.sample / engine.sample) failing campaigns cleanly, byte-identical
// rca.campaign.v1 documents for identical seeds, and scenario campaigns on
// the shared engine Pipeline agreeing with the scoreboard.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/score.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/json.hpp"

namespace rca::campaign {
namespace {

using service::Response;
using service::Router;
using service::RouterOptions;
using service::SessionConfig;
using service::SessionStore;
using service::SessionStoreOptions;
using service::SourceList;

std::uint64_t counter(const char* name) {
  return obs::global().counter(name);
}

/// A chain corpus long enough for refinement to record iterations: bug feeds
/// a 12-step ancestry into sink, plus an unrelated side chain the slice on
/// "sink" excludes. `tag` varies the content hash (distinct session keys).
SourceList make_chain_corpus(const std::string& tag) {
  std::string text = "module chain_" + tag + "\ncontains\n  subroutine s()\n";
  text += "    real :: bug, sink, osink\n    real :: ";
  for (int i = 1; i <= 12; ++i) {
    text += "n";
    text += std::to_string(i);
    text += i < 12 ? ", " : "\n";
  }
  text += "    real :: o1, o2, o3\n";
  text += "    n1 = bug * 2.0\n";
  for (int i = 2; i <= 12; ++i) {
    text += "    n" + std::to_string(i) + " = n" + std::to_string(i - 1) +
            " + n" + std::to_string(i > 2 ? i - 2 : i - 1) + "\n";
  }
  text += "    sink = n12 + n11\n";
  text += "    o1 = 1.0\n    o2 = o1 * 2.0\n    o3 = o2 + o1\n";
  text += "    osink = o3\n";
  text += "  end subroutine\nend module\n";
  return {{"mem/chain_" + tag + ".f90", text}};
}

/// Campaign parameters that force a few recorded iterations on the chain.
CampaignParams chain_params() {
  CampaignParams p;
  p.targets = {"sink"};
  p.bug_names = {"bug"};
  p.refinement.small_enough = 4;
  p.refinement.min_community_size = 2;
  p.refinement.samples_per_community = 3;
  p.refinement.max_iterations = 6;
  p.refinement.rank_differences_on_stall = true;
  return p;
}

/// Every test starts and ends with the fault registry disarmed.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::global().set_enabled(true);
    fault::FaultRegistry::global().disarm();
  }
  void TearDown() override { fault::FaultRegistry::global().disarm(); }
};

TEST_F(CampaignTest, SessionCampaignOverRoutesRecordsProgress) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});  // null pool: inline execution
  CampaignManager manager(&store, CampaignManagerOptions{});
  manager.install_routes(router);

  // Build the session the service way, then refine it by resident key (the
  // "src" request form takes a directory path, exercised by the CLI smoke).
  const SourceList corpus = make_chain_corpus("route");
  store.get_or_build(SessionConfig{}, corpus);
  const std::string key = SessionStore::compute_key(SessionConfig{}, corpus);
  JsonWriter req;
  req.begin_object();
  req.key("session");
  req.string_value(key);
  req.key("bug");
  req.begin_array();
  req.string_value("bug");
  req.end_array();
  req.key("targets");
  req.begin_array();
  req.string_value("sink");
  req.end_array();
  req.key("small_enough");
  req.integer(4);
  req.key("min_size");
  req.integer(2);
  req.key("samples");
  req.integer(3);
  req.end_object();

  const Response started =
      router.handle({"POST", "/v1/refine", req.str()});
  ASSERT_EQ(started.status, 200) << started.body;
  const JsonValue doc = parse_json(started.body);
  const std::string id = doc.get_string("campaign");
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(manager.wait(id), CampaignState::kDone);

  const Response status = router.handle(
      {"GET", "/v1/refine/status", "{\"campaign\":\"" + id + "\"}"});
  ASSERT_EQ(status.status, 200) << status.body;
  EXPECT_NE(status.body.find("\"schema\":\"rca.campaign.v1\""),
            std::string::npos);
  EXPECT_NE(status.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(status.body.find("\"iteration\":1"), std::string::npos)
      << "expected at least one recorded iteration: " << status.body;

  const Response result = router.handle(
      {"POST", "/v1/refine/result", "{\"campaign\":\"" + id + "\"}"});
  ASSERT_EQ(result.status, 200) << result.body;
  EXPECT_NE(result.body.find("\"kind\":\"result\""), std::string::npos);
  EXPECT_NE(result.body.find("\"ranked\":["), std::string::npos);
  // The transport-level id never leaks into the deterministic document.
  EXPECT_EQ(result.body.find(id), std::string::npos);

  // Pin released: the refcount is balanced once the campaign finished.
  EXPECT_FALSE(store.pinned(key));
}

TEST_F(CampaignTest, UnknownIdsAndBadRequestsAnswerStructuredErrors) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  manager.install_routes(router);

  Response resp = router.handle(
      {"GET", "/v1/refine/status", "{\"campaign\":\"c999\"}"});
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("campaign_not_found"), std::string::npos);

  resp = router.handle({"POST", "/v1/refine/status", "{}"});
  EXPECT_EQ(resp.status, 400);

  // Session campaigns need ground truth.
  const SourceList corpus = make_chain_corpus("bad");
  store.get_or_build(SessionConfig{}, corpus);
  const std::string key = SessionStore::compute_key(SessionConfig{}, corpus);
  resp = router.handle({"POST", "/v1/refine",
                        "{\"session\":\"" + key +
                            "\",\"targets\":[\"sink\"]}"});
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("bad_request"), std::string::npos);

  resp = router.handle({"POST", "/v1/refine", "{\"scenario\":\"nope\"}"});
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("scenario_not_found"), std::string::npos);

  // Unsupported method on a registered extra route.
  resp = router.handle({"GET", "/v1/refine", ""});
  EXPECT_EQ(resp.status, 405);
}

TEST_F(CampaignTest, PinBlocksEvictionUntilCampaignEnds) {
  // Size the LRU budget so 2 chain sessions fit and a 3rd forces an
  // eviction (same probe idiom as the session-store tests).
  std::size_t one_session_bytes = 0;
  {
    SessionStore probe(SessionStoreOptions{});
    one_session_bytes =
        probe.get_or_build(SessionConfig{}, make_chain_corpus("a"))->bytes();
  }
  ASSERT_GT(one_session_bytes, 0u);
  SessionStoreOptions opts;
  opts.max_bytes = one_session_bytes * 5 / 2;
  SessionStore store(opts);
  CampaignManager manager(&store, CampaignManagerOptions{});

  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("a"));
  const std::string key_a = session->key();

  // Each recorded iteration sleeps 150 ms, holding the campaign (and its
  // pin) open while the main thread overcommits the store.
  fault::FaultRegistry::global().arm("campaign.step:1.0:delay-150");
  const std::string id = manager.start(chain_params(), session);
  session.reset();  // only the campaign's pin protects the session now
  EXPECT_TRUE(store.pinned(key_a));

  store.get_or_build(SessionConfig{}, make_chain_corpus("b"));
  store.get_or_build(SessionConfig{}, make_chain_corpus("c"));
  // Over budget, but the pinned session must survive; the LRU victim is an
  // unpinned one.
  EXPECT_NE(store.lookup(key_a), nullptr)
      << "pinned session evicted mid-campaign";

  EXPECT_EQ(manager.wait(id), CampaignState::kDone);
  EXPECT_FALSE(store.pinned(key_a));

  // Eviction resumes after the campaign: refresh the other survivor (lookup
  // above touched `a`'s recency) so the now-unpinned session is the LRU
  // victim of the next over-budget build.
  store.get_or_build(SessionConfig{}, make_chain_corpus("c"));
  store.get_or_build(SessionConfig{}, make_chain_corpus("d"));
  EXPECT_EQ(store.lookup(key_a), nullptr)
      << "unpinned session still exempt from eviction";
}

TEST_F(CampaignTest, EightConcurrentCampaignsCompleteWithoutPinLeak) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  CampaignManagerOptions mopts;
  mopts.max_running = 8;
  CampaignManager manager(&store, mopts);
  manager.install_routes(router);

  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("z"));
  const std::string key = session->key();
  const std::uint64_t completed0 = counter("campaign.completed");

  // Keep all eight in flight long enough for the admission check: every
  // iteration sleeps 100 ms.
  fault::FaultRegistry::global().arm("campaign.step:1.0:delay-100");
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(manager.start(chain_params(), session));
  }
  EXPECT_EQ(manager.active(), 8u);

  // The ninth is rejected with the retriable-backpressure contract, both
  // programmatically and over the route. The route names the resident
  // session, so it reaches admission at once; a scenario request would
  // first build its corpus, and under a slow build (sanitizers) the eight
  // could finish before the check.
  EXPECT_THROW(manager.start(chain_params(), session),
               service::HandlerError);
  const Response rejected = router.handle(
      {"POST", "/v1/refine",
       "{\"session\":\"" + key +
           "\",\"bug\":[\"bug\"],\"targets\":[\"sink\"]}"});
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.body.find("\"retriable\":true"), std::string::npos);
  EXPECT_GE(rejected.retry_after, 1);

  for (const std::string& id : ids) {
    EXPECT_EQ(manager.wait(id), CampaignState::kDone) << id;
  }
  EXPECT_EQ(manager.active(), 0u);
  EXPECT_EQ(counter("campaign.completed"), completed0 + 8);
  // Eight pins, eight releases: the shared session is evictable again.
  EXPECT_FALSE(store.pinned(key));
}

TEST_F(CampaignTest, CancelStopsAtIterationBoundaryAndUnpins) {
  SessionStore store(SessionStoreOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("k"));
  const std::string key = session->key();

  // A long sleep inside the first recorded iteration guarantees the cancel
  // request lands while the campaign is mid-flight.
  fault::FaultRegistry::global().arm("campaign.step:1.0:delay-400");
  const std::string id = manager.start(chain_params(), session);
  manager.cancel(id);
  EXPECT_EQ(manager.wait(id), CampaignState::kCancelled);

  const std::string result = manager.result_json(id);
  EXPECT_NE(result.find("\"cancelled\":true"), std::string::npos);
  EXPECT_FALSE(store.pinned(key));
  EXPECT_GE(counter("campaign.cancel_requests"), 1u);
}

TEST_F(CampaignTest, ResultWhileRunningIs409Retriable) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  manager.install_routes(router);
  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("r"));

  fault::FaultRegistry::global().arm("campaign.step:1.0:delay-400");
  const std::string id = manager.start(chain_params(), session);
  const Response early = router.handle(
      {"GET", "/v1/refine/result", "{\"campaign\":\"" + id + "\"}"});
  EXPECT_EQ(early.status, 409);
  EXPECT_NE(early.body.find("\"retriable\":true"), std::string::npos);
  EXPECT_GE(early.retry_after, 1);

  manager.cancel(id);
  manager.wait(id);
}

TEST_F(CampaignTest, InjectedFaultsFailTheCampaignCleanly) {
  SessionStore store(SessionStoreOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("f"));
  const std::string key = session->key();
  const std::uint64_t failed0 = counter("campaign.failed");

  // A fault at the iteration boundary: campaign fails, pin released.
  fault::FaultRegistry::global().arm("campaign.step:1.0:throw");
  std::string id = manager.start(chain_params(), session);
  EXPECT_EQ(manager.wait(id), CampaignState::kFailed);
  EXPECT_NE(manager.result_json(id).find("\"error\""), std::string::npos);
  EXPECT_FALSE(store.pinned(key));

  // Same for a fault inside the sampler (engine-pool side).
  fault::FaultRegistry::global().arm("campaign.sample:1.0:throw");
  id = manager.start(chain_params(), session);
  EXPECT_EQ(manager.wait(id), CampaignState::kFailed);
  EXPECT_FALSE(store.pinned(key));
  EXPECT_EQ(counter("campaign.failed"), failed0 + 2);

  // Disarmed, the same campaign succeeds — the store was never wedged.
  fault::FaultRegistry::global().disarm();
  id = manager.start(chain_params(), session);
  EXPECT_EQ(manager.wait(id), CampaignState::kDone);
  EXPECT_FALSE(store.pinned(key));
}

TEST_F(CampaignTest, IdenticalCampaignsProduceByteIdenticalDocuments) {
  SessionStore store(SessionStoreOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  auto session = store.get_or_build(SessionConfig{}, make_chain_corpus("d"));

  const std::string a = manager.start(chain_params(), session);
  ASSERT_EQ(manager.wait(a), CampaignState::kDone);
  const std::string b = manager.start(chain_params(), session);
  ASSERT_EQ(manager.wait(b), CampaignState::kDone);

  // Ids differ; the rca.campaign.v1 documents must not.
  ASSERT_NE(a, b);
  EXPECT_EQ(manager.status_json(a), manager.status_json(b));
  EXPECT_EQ(manager.result_json(a), manager.result_json(b));
}

/// Starts a campaign over the route and returns its id.
std::string start_over_route(Router& router, const std::string& body) {
  const Response started = router.handle({"POST", "/v1/refine", body});
  EXPECT_EQ(started.status, 200) << started.body;
  return parse_json(started.body).get_string("campaign");
}

/// Runs one campaign over the route to completion; its result document.
std::string result_over_route(Router& router, CampaignManager& manager,
                              const std::string& body) {
  const std::string id = start_over_route(router, body);
  EXPECT_EQ(manager.wait(id), CampaignState::kDone) << body;
  return manager.result_json(id);
}

/// A store, a router and a campaign manager with the /v1/refine routes.
struct Service {
  SessionStore store{SessionStoreOptions{}};
  Router router{&store, RouterOptions{}};
  CampaignManager manager{&store, CampaignManagerOptions{}};
  Service() { manager.install_routes(router); }
};

TEST_F(CampaignTest, ScenarioCampaignRunsOnASharedPipeline) {
  Service svc;
  const std::size_t inits0 =
      obs::global().spans_named("pipeline.init").size();

  const Response started = svc.router.handle(
      {"POST", "/v1/refine", "{\"scenario\":\"random-node\",\"top\":15}"});
  ASSERT_EQ(started.status, 200) << started.body;
  const JsonValue doc = parse_json(started.body);
  const std::string id = doc.get_string("campaign");
  EXPECT_EQ(doc.get_string("scenario"), "random-node");
  EXPECT_EQ(doc.get("session"), nullptr);

  ASSERT_EQ(svc.manager.wait(id), CampaignState::kDone);
  const std::string first = svc.manager.result_json(id);
  EXPECT_NE(first.find("\"scenario\":\"random-node\""), std::string::npos);
  EXPECT_NE(first.find("\"planted\":"), std::string::npos);
  EXPECT_NE(first.find("\"refined_rank\":"), std::string::npos);
  EXPECT_EQ(first.find("\"session\""), std::string::npos);

  // Second identical request: a byte-identical result document — the
  // acceptance determinism contract.
  const std::string second = result_over_route(
      svc.router, svc.manager, "{\"scenario\":\"random-node\",\"top\":15}");
  EXPECT_EQ(first, second);

  // Both ran on one Pipeline, built once; no store session was built or
  // pinned for them.
  EXPECT_EQ(obs::global().spans_named("pipeline.init").size(), inits0 + 1);
  EXPECT_EQ(svc.store.session_count(), 0u);
}

TEST_F(CampaignTest, ScenarioCampaignsRejectSessionFields) {
  Service svc;
  for (const char* field : {"\"targets\":[\"sink\"]", "\"outputs\":[\"T\"]",
                            "\"bug\":[\"x\"]", "\"cam_only\":false",
                            "\"drop_small\":0"}) {
    const Response resp = svc.router.handle(
        {"POST", "/v1/refine",
         std::string("{\"scenario\":\"wsub\",") + field + "}"});
    EXPECT_EQ(resp.status, 400) << field;
    EXPECT_NE(resp.body.find("bad_request"), std::string::npos) << field;
  }
  EXPECT_EQ(svc.manager.active(), 0u);
}

// One answer path: a scenario campaign reports its scoreboard row. For every
// library scenario, with simulated and with runtime sampling, the campaign's
// slice, final set, refined rank and hit equal `rca-tool score [--runtime]`.
TEST_F(CampaignTest, ScenarioCampaignsMatchTheScoreboard) {
  Service svc;
  for (const bool runtime : {false, true}) {
    ScoreOptions opts;
    opts.runtime_sampling = runtime;
    opts.pipeline.refinement.rank_differences_on_stall = true;  // as `score`
    const Scoreboard board = score_scenarios(opts);
    ASSERT_EQ(board.scores.size(), model::scenario_library().size());
    for (const ScenarioScore& row : board.scores) {
      const std::string label = row.name + (runtime ? " (runtime)" : "");
      const JsonValue doc = parse_json(result_over_route(
          svc.router, svc.manager,
          "{\"scenario\":\"" + row.name + "\"" +
              (runtime ? ",\"runtime\":true}" : "}")));
      const auto as_int = [](std::size_t v) {
        return v == SIZE_MAX ? -1LL : static_cast<long long>(v);
      };
      EXPECT_EQ(doc.get_int("planted", -2), as_int(row.planted_nodes)) << label;
      EXPECT_EQ(doc.get_int("slice_nodes", -2), as_int(row.slice_nodes))
          << label;
      EXPECT_EQ(doc.get("iterations")->items().size(), row.iterations)
          << label;
      EXPECT_EQ(doc.get_bool("stalled", !row.stalled), row.stalled) << label;
      EXPECT_EQ(doc.get_int("bug_instrumented_at", -2),
                as_int(row.bug_instrumented_at))
          << label;
      EXPECT_EQ(doc.get_int("final_nodes", -2), as_int(row.final_nodes))
          << label;
      EXPECT_EQ(doc.get_int("refined_rank", -2), as_int(row.refined_rank))
          << label;
      EXPECT_EQ(doc.get_bool("hit", !row.hit), row.hit) << label;
    }
  }
}

// Two scenario campaigns on one seed, started together, race on the shared
// Pipeline's build, its bug-corpus cache and its control trace; they write
// the documents that serial runs write.
TEST_F(CampaignTest, ConcurrentScenarioCampaignsMatchSerialRuns) {
  const std::vector<std::string> bodies = {
      "{\"scenario\":\"goffgratch\",\"runtime\":true}",
      "{\"scenario\":\"random-node\",\"runtime\":true}"};
  std::vector<std::string> serial;
  {
    Service svc;
    for (const std::string& body : bodies) {
      serial.push_back(result_over_route(svc.router, svc.manager, body));
    }
  }
  Service svc;
  std::vector<std::string> ids;
  for (const std::string& body : bodies) {
    ids.push_back(start_over_route(svc.router, body));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(svc.manager.wait(ids[i]), CampaignState::kDone) << bodies[i];
    EXPECT_EQ(svc.manager.result_json(ids[i]), serial[i]) << bodies[i];
  }
}

// A scenario campaign that fails mid-run poisons nothing it shares: the next
// campaign on the same seed writes the fault-free document. engine.sample
// fails the shared control-trace recording itself; campaign.step fails the
// campaign after its first refinement iteration.
TEST_F(CampaignTest, FailedScenarioCampaignLeavesTheSharedPipelineClean) {
  const std::string body = "{\"scenario\":\"random-node\",\"runtime\":true}";
  std::string reference;
  {
    Service svc;
    reference = result_over_route(svc.router, svc.manager, body);
  }
  Service svc;
  for (const std::string site : {"engine.sample", "campaign.step"}) {
    fault::FaultRegistry::global().arm(site + ":1.0:throw:0:1");
    const std::string id = start_over_route(svc.router, body);
    EXPECT_EQ(svc.manager.wait(id), CampaignState::kFailed) << site;
    EXPECT_EQ(fault::FaultRegistry::global().fires(site), 1u) << site;
    fault::FaultRegistry::global().disarm();
    EXPECT_EQ(result_over_route(svc.router, svc.manager, body), reference)
        << site;
  }
}

// A scenario campaign journals without a session key and resumes from its
// start record alone to the document of the uncrashed run.
TEST_F(CampaignTest, ScenarioCampaignResumesFromItsJournal) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rca-campaign-resume-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  CampaignManagerOptions opts;
  opts.journal_dir = (dir / "campaigns").string();
  const std::string body = "{\"scenario\":\"prng\"}";
  std::string reference;
  {
    SessionStore store(SessionStoreOptions{});
    Router router(&store, RouterOptions{});
    CampaignManager manager(&store, opts);
    manager.install_routes(router);
    reference = result_over_route(router, manager, body);
    EXPECT_TRUE(CampaignJournal::load_unfinished(opts.journal_dir).empty());
  }

  // The journal a crashed worker leaves: the start record only.
  CampaignJournal::write_start(opts.journal_dir, "c1", body, "");
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  CampaignManager manager(&store, opts);
  manager.install_routes(router);
  ASSERT_EQ(manager.resume_unfinished(router), 1u);
  ASSERT_EQ(manager.wait("c1"), CampaignState::kDone);
  EXPECT_EQ(manager.result_json("c1"), reference);
  EXPECT_TRUE(CampaignJournal::load_unfinished(opts.journal_dir).empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rca::campaign
