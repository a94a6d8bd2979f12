// Refinement-campaign subsystem tests: lifecycle over the /v1/refine routes,
// concurrent-campaign admission and backpressure, session pinning vs. LRU
// eviction, cooperative cancel, fault injection (campaign.step /
// campaign.sample) failing campaigns cleanly, and byte-identical
// rca.campaign.v1 documents for identical seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
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

TEST_F(CampaignTest, ScenarioCampaignBuildsASharedStoreSession) {
  SessionStore store(SessionStoreOptions{});
  Router router(&store, RouterOptions{});
  CampaignManager manager(&store, CampaignManagerOptions{});
  manager.install_routes(router);

  const std::uint64_t sessions0 = store.session_count();
  const Response started = router.handle(
      {"POST", "/v1/refine", "{\"scenario\":\"random-node\",\"top\":15}"});
  ASSERT_EQ(started.status, 200) << started.body;
  const JsonValue doc = parse_json(started.body);
  const std::string id = doc.get_string("campaign");
  const std::string key = doc.get_string("session");
  EXPECT_EQ(doc.get_string("scenario"), "random-node");
  EXPECT_EQ(store.session_count(), sessions0 + 1);

  ASSERT_EQ(manager.wait(id), CampaignState::kDone);
  const std::string first = manager.result_json(id);
  EXPECT_NE(first.find("\"scenario\":\"random-node\""), std::string::npos);
  EXPECT_NE(first.find("\"planted\":"), std::string::npos);
  EXPECT_FALSE(store.pinned(key));

  // Second identical request: resident-session hit (content-keyed), and a
  // byte-identical result document — the acceptance determinism contract.
  const Response again = router.handle(
      {"POST", "/v1/refine", "{\"scenario\":\"random-node\",\"top\":15}"});
  ASSERT_EQ(again.status, 200) << again.body;
  const std::string id2 = parse_json(again.body).get_string("campaign");
  EXPECT_EQ(store.session_count(), sessions0 + 1);
  ASSERT_EQ(manager.wait(id2), CampaignState::kDone);
  EXPECT_EQ(first, manager.result_json(id2));
}

}  // namespace
}  // namespace rca::campaign
