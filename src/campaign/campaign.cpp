#include "campaign/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <utility>

#include "campaign/journal.hpp"
#include "fault/fault.hpp"
#include "graph/centrality.hpp"
#include "model/corpus.hpp"
#include "obs/obs.hpp"
#include "slice/slicer.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace rca::campaign {

using graph::NodeId;
using service::HandlerError;

const char* campaign_state_name(CampaignState s) {
  switch (s) {
    case CampaignState::kPending: return "pending";
    case CampaignState::kRunning: return "running";
    case CampaignState::kDone: return "done";
    case CampaignState::kCancelled: return "cancelled";
    case CampaignState::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Campaigns retained for result polling; the oldest finished ones are
/// forgotten beyond this.
constexpr std::size_t kMaxRetained = 64;

/// Wraps the campaign's inner sampler with the campaign.sample fault site
/// and a sample counter. Called from the engine pool's community tasks; an
/// injected fault propagates out of RefinementEngine::run and fails the
/// campaign cleanly.
class FaultableSampler : public engine::Sampler {
 public:
  explicit FaultableSampler(engine::Sampler* inner) : inner_(inner) {}

  std::vector<engine::Difference> detect_with_magnitudes(
      const std::vector<NodeId>& sites) override {
    RCA_FAULT_POINT("campaign.sample");
    obs::count("campaign.samples");
    return inner_->detect_with_magnitudes(sites);
  }

 private:
  engine::Sampler* inner_;
};

void push_unique(std::vector<std::string>* names, const std::string& name) {
  if (std::find(names->begin(), names->end(), name) == names->end()) {
    names->push_back(name);
  }
}

/// Eigenvector in-centrality ranking of the final subgraph, flagged against
/// the planted ground truth — the campaign's actual answer. Sets `*rank` to
/// the scorer's refined rank (campaign::score_outcome): the best planted
/// position over the whole final set, SIZE_MAX when none is ranked.
std::vector<RankedSite> rank_final_nodes(const meta::Metagraph& mg,
                                         const std::vector<NodeId>& final_nodes,
                                         const std::vector<NodeId>& planted,
                                         std::size_t top, std::size_t* rank) {
  std::vector<double> scores;
  const std::vector<NodeId> order = graph::rank_by_in_centrality(
      mg.graph(), final_nodes, final_nodes.size(), &scores);
  *rank = model::best_rank(order, planted);
  std::vector<RankedSite> ranked;
  for (std::size_t r = 0; r < order.size() && r < top; ++r) {
    const NodeId global = order[r];
    const meta::NodeInfo& info = mg.info(global);
    RankedSite site;
    site.unique_name = info.unique_name;
    site.module = info.module;
    site.centrality = scores[r];
    site.planted = std::find(planted.begin(), planted.end(), global) !=
                   planted.end();
    ranked.push_back(std::move(site));
  }
  return ranked;
}

std::string require_campaign_id(const JsonValue& body) {
  const std::string id = body.get_string("campaign");
  if (id.empty()) {
    throw HandlerError{400, "bad_request", "need \"campaign\" (the id from POST /v1/refine)"};
  }
  return id;
}

}  // namespace

struct CampaignManager::Campaign {
  std::string id;
  CampaignParams params;
  std::shared_ptr<const service::Session> session;  // null = scenario
  const model::ScenarioSpec* scenario = nullptr;  // null = session campaign
  std::atomic<bool> cancel{false};
  /// Crash durability: true when this campaign has a journal on disk.
  bool journaled = false;
  /// Checkpoints read back from the journal on resume; the first
  /// expected.size() iterations replay deterministically and are verified
  /// against these instead of re-appended.
  std::vector<IterationSnapshot> expected;

  // Pin bookkeeping (session campaigns): held from admission until the run
  // exits (any path), so the LRU can never evict the session mid-refinement.
  // The destructor is the backstop for campaigns torn down before their
  // worker ran.
  service::SessionStore* store = nullptr;
  std::atomic<bool> pin_held{false};
  void release_pin() {
    if (pin_held.exchange(false)) store->unpin(session->key());
  }
  ~Campaign() { release_pin(); }

  mutable std::mutex mu;
  std::condition_variable cv;
  CampaignState state = CampaignState::kPending;
  std::string error;
  std::vector<IterationSnapshot> progress;
  std::vector<std::string> targets;  // resolved slicing criteria
  std::size_t planted_count = 0;
  std::size_t slice_nodes = 0;
  std::size_t slice_edges = 0;
  // Result fields (valid in kDone/kCancelled).
  bool stalled = false;
  bool was_cancelled = false;
  std::size_t final_nodes = 0;
  std::size_t bug_instrumented_at = 0;
  std::size_t first_detection_at = 0;
  std::vector<RankedSite> ranked;
  std::size_t refined_rank = SIZE_MAX;
  bool hit = false;
};

CampaignManager::CampaignManager(service::SessionStore* store,
                                 CampaignManagerOptions opts)
    : store_(store), opts_(opts) {
  if (opts_.max_running == 0) opts_.max_running = 1;
  workers_ = std::make_unique<ThreadPool>(opts_.max_running);
  engine_pool_ = std::make_unique<ThreadPool>(
      opts_.engine_threads == 0 ? 1 : opts_.engine_threads);
}

CampaignManager::~CampaignManager() {
  // Cooperative drain: ask every live campaign to stop at its next
  // iteration boundary, then let the worker pool join.
  std::vector<std::shared_ptr<Campaign>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, c] : campaigns_) live.push_back(c);
  }
  for (auto& c : live) c->cancel.store(true, std::memory_order_relaxed);
  workers_.reset();  // joins after running tasks finish
  engine_pool_.reset();
}

std::shared_ptr<CampaignManager::Campaign> CampaignManager::find(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = campaigns_.find(id);
  if (it == campaigns_.end()) {
    throw HandlerError{404, "campaign_not_found", "no campaign " + id};
  }
  return it->second;
}

std::string CampaignManager::start(
    CampaignParams params, std::shared_ptr<const service::Session> session) {
  return admit(std::move(params), std::move(session), /*forced_id=*/"", {},
               /*bypass_capacity=*/false);
}

std::string CampaignManager::admit(
    CampaignParams params, std::shared_ptr<const service::Session> session,
    const std::string& forced_id, std::vector<IterationSnapshot> expected,
    bool bypass_capacity) {
  RCA_CHECK_MSG((session != nullptr) == params.scenario.empty(),
                "a session campaign needs a session, a scenario campaign none");
  std::shared_ptr<Campaign> c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    prune_finished_locked();
    if (!bypass_capacity) {
      if (active_locked() >= opts_.max_running) {
        obs::count("campaign.rejected");
        throw HandlerError{429, "over_capacity",
                           "campaign capacity (" +
                               std::to_string(opts_.max_running) +
                               ") exhausted; retry later",
                           /*retriable=*/true, /*retry_after=*/1};
      }
    }
    c = std::make_shared<Campaign>();
    if (forced_id.empty()) {
      c->id = "c" + std::to_string(++next_id_);
    } else {
      // Journal resume: keep the transport-visible id, and make sure fresh
      // campaigns can never collide with a resumed one.
      c->id = forced_id;
      const char* end = forced_id.data() + forced_id.size();
      std::uint64_t n = 0;
      if (forced_id.size() > 1 && forced_id[0] == 'c' &&
          std::from_chars(forced_id.data() + 1, end, n).ptr == end) {
        next_id_ = std::max(next_id_, n);
      }
      RCA_CHECK_MSG(campaigns_.find(c->id) == campaigns_.end(),
                    "duplicate campaign id on resume");
    }
    c->params = std::move(params);
    c->session = std::move(session);
    c->expected = std::move(expected);
    if (!c->params.scenario.empty()) {
      c->scenario = model::find_scenario(c->params.scenario);
      RCA_CHECK_MSG(c->scenario != nullptr, "scenario vanished after parse");
    }
    c->store = store_;
    if (c->session != nullptr) {
      store_->pin(c->session->key());
      c->pin_held.store(true);
    }
    campaigns_[c->id] = c;
    order_.push_back(c->id);
  }

  // Durability: publish the start record before the worker can produce any
  // checkpoint. A resumed campaign's journal already exists. A journal
  // write failure downgrades the campaign to non-durable instead of
  // failing it — durability is best-effort, the run itself is not.
  if (!opts_.journal_dir.empty() && !c->params.start_body.empty()) {
    if (forced_id.empty()) {
      try {
        CampaignJournal::write_start(
            opts_.journal_dir, c->id, c->params.start_body,
            c->session != nullptr ? c->session->key() : std::string());
        c->journaled = true;
      } catch (const std::exception&) {
        obs::count("campaign.journal.errors");
      }
    } else {
      c->journaled = true;
    }
  }

  obs::count(forced_id.empty() ? "campaign.started" : "campaign.resumed");
  workers_->submit([this, c] { run(c); });
  return c->id;
}

std::size_t CampaignManager::resume_unfinished(service::Router& router) {
  if (opts_.journal_dir.empty()) return 0;
  std::size_t resumed = 0;
  for (CampaignJournal::Unfinished& u :
       CampaignJournal::load_unfinished(opts_.journal_dir)) {
    try {
      const JsonValue body = parse_json(u.start_body);
      std::shared_ptr<const service::Session> session;
      CampaignParams params = parse_campaign_request(body, router, &session);
      params.start_body = u.start_body;
      admit(std::move(params), std::move(session), u.id,
            std::move(u.checkpoints), /*bypass_capacity=*/true);
      ++resumed;
    } catch (const std::exception&) {
      // Unresumable (e.g. a bare "session" key that is no longer resident):
      // drop the journal so it does not shadow every future restart.
      obs::count("campaign.resume_failed");
      CampaignJournal::remove(opts_.journal_dir, u.id);
    }
  }
  return resumed;
}

void CampaignManager::prune_finished_locked() {
  while (campaigns_.size() > kMaxRetained) {
    bool pruned = false;
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      auto cit = campaigns_.find(*it);
      if (cit == campaigns_.end()) {
        it = order_.erase(it);
        pruned = true;
        break;
      }
      std::lock_guard<std::mutex> clock(cit->second->mu);
      if (cit->second->state == CampaignState::kDone ||
          cit->second->state == CampaignState::kCancelled ||
          cit->second->state == CampaignState::kFailed) {
        campaigns_.erase(cit);
        order_.erase(it);
        pruned = true;
        break;
      }
    }
    if (!pruned) break;  // everything retained is still live
  }
}

std::shared_ptr<engine::Pipeline> CampaignManager::pipeline_for(
    std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  if (pipeline_ == nullptr || pipeline_seed_ != seed) {
    pipeline_ = nullptr;  // running campaigns keep their own reference
    engine::PipelineConfig config;
    config.corpus.seed = seed;
    config.threads = opts_.engine_threads;
    pipeline_ = std::make_shared<engine::Pipeline>(std::move(config));
    pipeline_seed_ = seed;
  }
  return pipeline_;
}

void CampaignManager::run(const std::shared_ptr<Campaign>& c) {
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->state = CampaignState::kRunning;
  }
  obs::Span span("campaign.run");
  span.attr("scenario",
            c->params.scenario.empty() ? "-" : c->params.scenario.c_str());
  span.attr("runtime_sampling", c->params.runtime_sampling);
  CampaignState terminal = CampaignState::kFailed;
  try {
    // Scenario campaigns run the engine's own stages on the shared Pipeline:
    // UF-ECT and lasso choose the criteria, and the planted sites are the
    // ground truth. Session campaigns slice the session's graph on the
    // request's criteria and resolve its named ground truth.
    std::shared_ptr<engine::Pipeline> pipeline;
    const meta::Metagraph* mg = nullptr;
    std::vector<NodeId> planted;
    std::vector<std::string> targets;
    if (c->scenario != nullptr) {
      pipeline = pipeline_for(c->params.seed);
      mg = &pipeline->metagraph();
      engine::ExperimentOutcome criteria = pipeline->criteria(*c->scenario);
      planted = std::move(criteria.bug_nodes);
      targets = std::move(criteria.internal_names);
    } else {
      mg = &c->session->metagraph();
      for (const std::string& name : c->params.bug_names) {
        for (NodeId v : mg->by_canonical(name)) planted.push_back(v);
      }
      std::sort(planted.begin(), planted.end());
      planted.erase(std::unique(planted.begin(), planted.end()),
                    planted.end());
      targets = c->params.targets;
    }
    RCA_CHECK_MSG(!planted.empty(),
                  "no ground-truth nodes resolved for this campaign");
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->targets = targets;
      c->planted_count = planted.size();
    }

    slice::SliceResult sl;
    if (pipeline != nullptr) {
      sl = pipeline->slice(targets);
    } else {
      slice::SliceOptions sopts;
      if (c->params.cam_only) {
        sopts.module_filter = [](const std::string& m) {
          return model::is_cam_module(m);
        };
      }
      sopts.drop_components_smaller_than = c->params.drop_small;
      sl = slice::backward_slice(*mg, targets, sopts);
    }
    RCA_CHECK_MSG(!sl.nodes.empty(), "empty slice for the campaign criteria");
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->slice_nodes = sl.nodes.size();
      c->slice_edges = sl.subgraph.edge_count();
    }

    const std::unique_ptr<engine::Sampler> inner =
        pipeline != nullptr
            ? pipeline->sampler_for(*c->scenario, planted,
                                    c->params.runtime_sampling)
            : std::make_unique<engine::SimulatedSampler>(*mg, planted);
    FaultableSampler sampler(inner.get());

    engine::RefinementOptions ropts = c->params.refinement;
    ropts.pool = engine_pool_.get();
    ropts.on_iteration = [this, c](const engine::IterationReport& report,
                                   const std::vector<NodeId>&) {
      RCA_FAULT_POINT("campaign.step");
      IterationSnapshot snap;
      snap.nodes = report.subgraph_nodes;
      snap.edges = report.subgraph_edges;
      snap.communities = report.communities.size();
      for (const engine::CommunityReport& comm : report.communities) {
        snap.sampled_sites += comm.sampled.size();
        snap.differing_sites += comm.differing.size();
      }
      snap.detected = report.detected;
      snap.applied_8a = report.applied_8a;
      snap.stall_broken = report.stall_broken;
      obs::count("campaign.iterations");
      bool append = false;
      {
        std::lock_guard<std::mutex> lock(c->mu);
        snap.iteration = c->progress.size() + 1;
        c->progress.push_back(snap);
        if (c->journaled) {
          if (snap.iteration <= c->expected.size()) {
            // Resume replay: this iteration is already on disk — verify the
            // deterministic re-execution reproduced it instead of
            // re-appending.
            obs::count(c->expected[snap.iteration - 1] == snap
                           ? "campaign.checkpoint.replayed"
                           : "campaign.checkpoint.mismatch");
          } else {
            append = true;
          }
        }
      }
      if (append) {
        try {
          CampaignJournal::append_iteration(opts_.journal_dir, c->id, snap);
        } catch (const std::exception&) {
          obs::count("campaign.journal.errors");
        }
      }
      return !c->cancel.load(std::memory_order_relaxed);
    };

    engine::RefinementEngine eng(*mg, sampler, ropts);
    const engine::RefinementResult res =
        eng.run(sl.nodes, planted, sl.targets);

    std::size_t refined_rank = SIZE_MAX;
    std::vector<RankedSite> ranked = rank_final_nodes(
        *mg, res.final_nodes, planted, c->params.top, &refined_rank);

    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->stalled = res.stalled;
      c->was_cancelled = res.cancelled;
      c->final_nodes = res.final_nodes.size();
      c->bug_instrumented_at = res.bug_instrumented_at;
      c->first_detection_at = res.first_detection_at;
      c->ranked = std::move(ranked);
      c->refined_rank = refined_rank;
      c->hit = refined_rank < c->params.top;
    }
    terminal = res.cancelled ? CampaignState::kCancelled : CampaignState::kDone;
    span.attr("iterations", res.iterations.size());
    span.attr("final_nodes", res.final_nodes.size());
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->error = e.what();
    }
    terminal = CampaignState::kFailed;
  }
  // Release everything the run holds before publishing the terminal state:
  // once wait() returns, the session is unpinned, the journal is gone (only
  // campaigns that never finished are resumable) and the outcome is counted.
  c->release_pin();
  if (c->journaled) CampaignJournal::remove(opts_.journal_dir, c->id);
  obs::count(terminal == CampaignState::kDone        ? "campaign.completed"
             : terminal == CampaignState::kCancelled ? "campaign.cancelled"
                                                     : "campaign.failed");
  span.attr("state", campaign_state_name(terminal));
  {
    std::lock_guard<std::mutex> lock(c->mu);
    c->state = terminal;
  }
  c->cv.notify_all();
}

void CampaignManager::write_progress(JsonWriter& w, const Campaign& c) const {
  // Caller holds c.mu. Deliberately no campaign id and no timestamps: the
  // document must be byte-identical across runs with identical seeds.
  w.key(c.scenario != nullptr ? "scenario" : "session");
  w.string_value(c.scenario != nullptr ? c.params.scenario : c.session->key());
  w.key("state");
  w.string_value(campaign_state_name(c.state));
  w.key("targets");
  w.begin_array();
  for (const std::string& t : c.targets) w.string_value(t);
  w.end_array();
  w.key("planted");
  w.integer(static_cast<long long>(c.planted_count));
  w.key("slice_nodes");
  w.integer(static_cast<long long>(c.slice_nodes));
  w.key("slice_edges");
  w.integer(static_cast<long long>(c.slice_edges));
  w.key("iterations");
  w.begin_array();
  for (const IterationSnapshot& s : c.progress) {
    w.begin_object();
    w.key("iteration");
    w.integer(static_cast<long long>(s.iteration));
    w.key("nodes");
    w.integer(static_cast<long long>(s.nodes));
    w.key("edges");
    w.integer(static_cast<long long>(s.edges));
    w.key("communities");
    w.integer(static_cast<long long>(s.communities));
    w.key("sampled");
    w.integer(static_cast<long long>(s.sampled_sites));
    w.key("differing");
    w.integer(static_cast<long long>(s.differing_sites));
    w.key("detected");
    w.boolean(s.detected);
    w.key("applied_8a");
    w.boolean(s.applied_8a);
    w.key("stall_broken");
    w.boolean(s.stall_broken);
    w.end_object();
  }
  w.end_array();
}

std::string CampaignManager::status_json(const std::string& id) const {
  const std::shared_ptr<Campaign> c = find(id);
  JsonWriter w;
  std::lock_guard<std::mutex> lock(c->mu);
  w.begin_object();
  w.key("schema");
  w.string_value("rca.campaign.v1");
  w.key("kind");
  w.string_value("status");
  write_progress(w, *c);
  w.end_object();
  return w.str() + "\n";
}

std::string CampaignManager::result_json(const std::string& id) const {
  const std::shared_ptr<Campaign> c = find(id);
  JsonWriter w;
  std::lock_guard<std::mutex> lock(c->mu);
  if (c->state == CampaignState::kPending ||
      c->state == CampaignState::kRunning) {
    throw HandlerError{409, "not_finished",
                       "campaign " + id +
                           " is still running; poll /v1/refine/status",
                       /*retriable=*/true, /*retry_after=*/1};
  }
  w.begin_object();
  w.key("schema");
  w.string_value("rca.campaign.v1");
  w.key("kind");
  w.string_value("result");
  write_progress(w, *c);
  if (c->state == CampaignState::kFailed) {
    w.key("error");
    w.string_value(c->error);
  } else {
    w.key("stalled");
    w.boolean(c->stalled);
    w.key("cancelled");
    w.boolean(c->was_cancelled);
    w.key("final_nodes");
    w.integer(static_cast<long long>(c->final_nodes));
    w.key("bug_instrumented_at");
    w.integer(static_cast<long long>(c->bug_instrumented_at));
    w.key("first_detection_at");
    w.integer(static_cast<long long>(c->first_detection_at));
    w.key("ranked");
    w.begin_array();
    for (const RankedSite& site : c->ranked) {
      w.begin_object();
      w.key("name");
      w.string_value(site.unique_name);
      w.key("module");
      w.string_value(site.module);
      w.key("centrality");
      w.number(site.centrality);
      w.key("planted");
      w.boolean(site.planted);
      w.end_object();
    }
    w.end_array();
    if (c->scenario != nullptr) {
      w.key("refined_rank");
      w.integer(c->refined_rank == SIZE_MAX
                    ? -1
                    : static_cast<long long>(c->refined_rank));
    }
    w.key("hit");
    w.boolean(c->hit);
  }
  w.end_object();
  return w.str() + "\n";
}

CampaignState CampaignManager::cancel(const std::string& id) {
  const std::shared_ptr<Campaign> c = find(id);
  c->cancel.store(true, std::memory_order_relaxed);
  obs::count("campaign.cancel_requests");
  std::lock_guard<std::mutex> lock(c->mu);
  return c->state;
}

CampaignState CampaignManager::state(const std::string& id) const {
  const std::shared_ptr<Campaign> c = find(id);
  std::lock_guard<std::mutex> lock(c->mu);
  return c->state;
}

CampaignState CampaignManager::wait(const std::string& id) {
  const std::shared_ptr<Campaign> c = find(id);
  std::unique_lock<std::mutex> lock(c->mu);
  c->cv.wait(lock, [&c] {
    return c->state != CampaignState::kPending &&
           c->state != CampaignState::kRunning;
  });
  return c->state;
}

std::size_t CampaignManager::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_locked();
}

std::size_t CampaignManager::active_locked() const {
  std::size_t n = 0;
  for (const auto& [id, c] : campaigns_) {
    std::lock_guard<std::mutex> clock(c->mu);
    if (c->state == CampaignState::kPending ||
        c->state == CampaignState::kRunning) {
      ++n;
    }
  }
  return n;
}

CampaignParams parse_campaign_request(
    const JsonValue& body, service::Router& router,
    std::shared_ptr<const service::Session>* session_out) {
  CampaignParams p;
  p.scenario = body.get_string("scenario");
  p.seed = static_cast<std::uint64_t>(body.get_int("seed", 2019));
  p.runtime_sampling = body.get_bool("runtime", false);
  p.top = static_cast<std::size_t>(body.get_int("top", 15));

  std::shared_ptr<const service::Session> session;
  if (!p.scenario.empty()) {
    if (model::find_scenario(p.scenario) == nullptr) {
      throw HandlerError{404, "scenario_not_found",
                         "unknown scenario \"" + p.scenario + "\" (have: " +
                             join(model::scenario_names(), ", ") + ")"};
    }
    // The engine's stages choose a scenario's criteria (UF-ECT + lasso) and
    // its ground truth, and slice as the scoreboard does.
    for (const char* field :
         {"targets", "outputs", "bug", "cam_only", "drop_small"}) {
      if (body.get(field) != nullptr) {
        throw HandlerError{400, "bad_request",
                           std::string("\"") + field +
                               "\" is for session campaigns; a scenario's "
                               "criteria come from its UF-ECT and lasso"};
      }
    }
  } else {
    if (p.runtime_sampling) {
      throw HandlerError{400, "bad_request",
                         "\"runtime\" sampling needs a \"scenario\""};
    }
    session = router.resolve_session(body);
    p.bug_names = body.get_string_array("bug");
    if (p.bug_names.empty()) {
      throw HandlerError{
          400, "bad_request",
          "session campaigns need \"bug\" ground-truth variable names "
          "(or start from a \"scenario\")"};
    }
    p.cam_only = body.get_bool("cam_only", false);
    p.drop_small = static_cast<std::size_t>(body.get_int("drop_small", 0));
    p.targets = body.get_string_array("targets");
    for (const std::string& label : body.get_string_array("outputs")) {
      for (const std::string& name :
           slice::internal_names_for_output(session->metagraph(), label)) {
        push_unique(&p.targets, name);
      }
    }
    if (p.targets.empty()) {
      throw HandlerError{400, "bad_request", "need \"targets\" or \"outputs\""};
    }
  }

  engine::RefinementOptions& r = p.refinement;
  r.max_iterations =
      static_cast<std::size_t>(body.get_int("max_iterations", 8));
  r.samples_per_community =
      static_cast<std::size_t>(body.get_int("samples", 10));
  r.min_community_size =
      static_cast<std::size_t>(body.get_int("min_size", 4));
  r.small_enough = static_cast<std::size_t>(body.get_int("small_enough", 10));
  r.rank_differences_on_stall = body.get_bool("rank_on_stall", true);
  r.gn_budget_ms = body.get_int("gn_budget_ms", 10000);
  const std::string method = body.get_string("method", "gn");
  if (method == "gn") {
    r.community_method = engine::CommunityMethod::kGirvanNewman;
  } else if (method == "louvain") {
    r.community_method = engine::CommunityMethod::kLouvain;
  } else {
    throw HandlerError{400, "bad_request",
                       "unknown community method \"" + method +
                           "\" (gn | louvain)"};
  }

  *session_out = std::move(session);
  return p;
}

void CampaignManager::install_routes(service::Router& router) {
  service::Router* rp = &router;
  router.add_route(
      "POST", "/v1/refine",
      [this, rp](const service::Request&, const JsonValue& body) {
        std::shared_ptr<const service::Session> session;
        CampaignParams params = parse_campaign_request(body, *rp, &session);
        // The verbatim body is the campaign's durable identity: everything
        // a respawned worker needs to re-execute the run is in it.
        params.start_body = to_json(body);
        // A scenario campaign is named by its scenario, a session campaign
        // by its session key.
        const bool scenario = session == nullptr;
        const std::string subject = scenario ? params.scenario : session->key();
        const std::string id = start(std::move(params), std::move(session));
        JsonWriter w;
        w.begin_object();
        w.key("campaign");
        w.string_value(id);
        w.key(scenario ? "scenario" : "session");
        w.string_value(subject);
        w.key("state");
        w.string_value(campaign_state_name(state(id)));
        w.end_object();
        return service::Response{200, w.str() + "\n"};
      });
  const auto status_handler = [this](const service::Request&,
                                     const JsonValue& body) {
    return service::Response{200, status_json(require_campaign_id(body))};
  };
  const auto result_handler = [this](const service::Request&,
                                     const JsonValue& body) {
    return service::Response{200, result_json(require_campaign_id(body))};
  };
  // GET with a body works over the loopback transport (and matches the
  // read-only semantics); POST is registered too for strict clients.
  router.add_route("GET", "/v1/refine/status", status_handler);
  router.add_route("POST", "/v1/refine/status", status_handler);
  router.add_route("GET", "/v1/refine/result", result_handler);
  router.add_route("POST", "/v1/refine/result", result_handler);
  router.add_route(
      "POST", "/v1/refine/cancel",
      [this](const service::Request&, const JsonValue& body) {
        const std::string id = require_campaign_id(body);
        const CampaignState s = cancel(id);
        JsonWriter w;
        w.begin_object();
        w.key("campaign");
        w.string_value(id);
        w.key("state");
        w.string_value(campaign_state_name(s));
        w.key("cancel_requested");
        w.boolean(true);
        w.end_object();
        return service::Response{200, w.str() + "\n"};
      });
}

}  // namespace rca::campaign
