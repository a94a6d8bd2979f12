// Refinement campaigns as a service.
//
// A *campaign* is a long-lived, server-side run of Algorithm 5.4: it slices
// a metagraph on its criteria, then iterates 8a/8b re-induction on a
// dedicated engine thread pool, recording per-iteration progress (subgraph
// size, communities, sampled sites, differences, stall-breaking events).
// Campaigns are asynchronous: POST /v1/refine starts one and returns
// immediately; GET /v1/refine/status streams progress while it runs; GET
// /v1/refine/result answers the finished document; POST /v1/refine/cancel
// requests a cooperative stop at the next iteration boundary.
//
// Two flavours, one RefinementEngine call:
//   * session campaigns — the request names a resident session (or "src")
//     plus slicing criteria ("targets"/"outputs") and ground-truth "bug"
//     names for the simulated sampler. The session is pinned for the run
//     (the LRU must not evict a graph mid-refinement);
//   * scenario campaigns — the request names a planted root-cause scenario
//     (model/scenario.hpp); engine::Pipeline's own stages choose its
//     criteria by UF-ECT and lasso, slice and sample (criteria, slice,
//     sampler_for) on a Pipeline shared per corpus seed, so the campaign
//     reports its `rca-tool score` row. "runtime": true samples with real
//     model runs (RuntimeSampler) instead of reachability simulation.
//
// Progress and result documents use the `rca.campaign.v1` schema. They
// deliberately contain no campaign id and no timestamps: identical seeds
// must produce byte-identical documents (ids are transport-level, returned
// by POST /v1/refine and passed back in poll bodies).
//
// Observability: campaign.started/completed/cancelled/failed/rejected
// counters, campaign.iterations, a campaign.run span per campaign, and the
// campaign.step / campaign.sample fault sites (a fault mid-campaign fails
// that campaign cleanly — state "failed", session unpinned — and never
// wedges the store or the shared Pipeline).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"
#include "model/scenario.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/thread_pool.hpp"

namespace rca::campaign {

enum class CampaignState { kPending, kRunning, kDone, kCancelled, kFailed };

const char* campaign_state_name(CampaignState s);

/// One recorded refinement iteration (the progress-log row).
struct IterationSnapshot {
  std::size_t iteration = 0;  // 1-based
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t communities = 0;
  std::size_t sampled_sites = 0;
  std::size_t differing_sites = 0;
  bool detected = false;
  bool applied_8a = false;
  bool stall_broken = false;

  bool operator==(const IterationSnapshot&) const = default;
};

/// Final ranked site (eigenvector in-centrality over the final subgraph).
struct RankedSite {
  std::string unique_name;
  std::string module;
  double centrality = 0.0;
  bool planted = false;
};

/// Everything one campaign was asked to do (parsed out of the start body).
struct CampaignParams {
  std::string scenario;  // empty = session campaign
  std::uint64_t seed = 2019;  // scenario campaigns: corpus seed
  bool runtime_sampling = false;  // scenario campaigns only
  // Session campaigns only: criteria, ground truth and slice options.
  std::vector<std::string> targets;  // canonical internal names
  std::vector<std::string> bug_names;
  bool cam_only = false;
  std::size_t drop_small = 0;
  engine::RefinementOptions refinement;
  /// Ranked sites reported; a planted site ranked inside it is a hit (the
  /// scoreboard's top-m).
  std::size_t top = 15;
  /// Verbatim /v1/refine request JSON. When non-empty and the manager has a
  /// journal_dir, the campaign is journaled for crash resume: the body is
  /// everything needed to deterministically re-execute the run.
  std::string start_body;
};

struct CampaignManagerOptions {
  /// Campaigns admitted concurrently (pending + running); one worker each.
  std::size_t max_running = 8;
  /// Threads in the shared engine pool campaigns sample communities on.
  std::size_t engine_threads = 2;
  /// Directory for per-campaign crash journals (see campaign/journal.hpp);
  /// conventionally `<snapshot_dir>/campaigns`. Empty disables durability.
  std::string journal_dir;
};

class CampaignManager {
 public:
  CampaignManager(service::SessionStore* store, CampaignManagerOptions opts);
  ~CampaignManager();

  CampaignManager(const CampaignManager&) = delete;
  CampaignManager& operator=(const CampaignManager&) = delete;

  /// Registers POST /v1/refine, GET|POST /v1/refine/status,
  /// GET|POST /v1/refine/result and POST /v1/refine/cancel on the router.
  /// Call before serving. The router reference must outlive the manager's
  /// routes (`router` is captured for resolve_session on session campaigns).
  void install_routes(service::Router& router);

  /// Starts a campaign from parsed parameters and an already-resolved
  /// session (null for a scenario campaign); returns the campaign id ("c1",
  /// "c2", ...). Throws
  /// service::HandlerError (429, retriable) when max_running campaigns are
  /// already active. Programmatic entry for tests and the CLI.
  std::string start(CampaignParams params,
                    std::shared_ptr<const service::Session> session);

  /// Replays every unfinished journal in options().journal_dir: each is
  /// re-admitted under its original id (bypassing the max_running gate —
  /// these campaigns were already admitted once) and re-executed, verifying
  /// the journaled checkpoints along the way (counters
  /// campaign.checkpoint.replayed / .mismatch). Journals that cannot be
  /// resumed (e.g. a session campaign whose bare "session" key is no longer
  /// resident) are dropped with campaign.resume_failed. Call once at worker
  /// startup, after install_routes and before serving. Returns the number
  /// of campaigns resumed.
  std::size_t resume_unfinished(service::Router& router);

  /// rca.campaign.v1 progress document. Throws HandlerError(404) for an
  /// unknown id.
  std::string status_json(const std::string& id) const;

  /// rca.campaign.v1 result document. Throws HandlerError(404) for an
  /// unknown id and HandlerError(409, retriable) while still running.
  std::string result_json(const std::string& id) const;

  /// Requests a cooperative cancel; returns the state observed. Unknown id
  /// throws HandlerError(404). Idempotent; cancelling a finished campaign is
  /// a no-op.
  CampaignState cancel(const std::string& id);

  CampaignState state(const std::string& id) const;

  /// Blocks until the campaign leaves pending/running (test helper; the
  /// service polls instead).
  CampaignState wait(const std::string& id);

  /// Campaigns currently pending or running.
  std::size_t active() const;

  const CampaignManagerOptions& options() const { return opts_; }

 private:
  struct Campaign;

  std::shared_ptr<Campaign> find(const std::string& id) const;
  /// Shared admission path. `forced_id` non-empty = journal resume: reuse
  /// the id, seed checkpoint verification with `expected`, skip the
  /// capacity gate and the (already present) start record.
  std::string admit(CampaignParams params,
                    std::shared_ptr<const service::Session> session,
                    const std::string& forced_id,
                    std::vector<IterationSnapshot> expected,
                    bool bypass_capacity);
  void run(const std::shared_ptr<Campaign>& c);
  /// The shared Pipeline for `seed`: the one kept for the most recent seed,
  /// or a new one built while holding pipeline_mu_ (single-flight).
  std::shared_ptr<engine::Pipeline> pipeline_for(std::uint64_t seed);
  void write_progress(JsonWriter& w, const Campaign& c) const;
  /// Campaigns pending or running (mu_ held).
  std::size_t active_locked() const;
  /// Drops the oldest finished campaigns beyond kMaxRetained (mu_ held).
  void prune_finished_locked();

  service::SessionStore* store_;
  CampaignManagerOptions opts_;
  /// Campaign bodies run here: one task per campaign, so max_running tasks.
  std::unique_ptr<ThreadPool> workers_;
  /// Shared sampling pool for RefinementOptions::pool ("performed in
  /// parallel") — distinct from workers_: a campaign blocking on a
  /// parallel_for of its own pool would deadlock.
  std::unique_ptr<ThreadPool> engine_pool_;

  std::mutex pipeline_mu_;  // guards pipeline_ and pipeline_seed_
  std::shared_ptr<engine::Pipeline> pipeline_;
  std::uint64_t pipeline_seed_ = 0;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Campaign>> campaigns_;
  std::vector<std::string> order_;  // insertion order, for pruning
  std::uint64_t next_id_ = 0;
};

/// Parses a /v1/refine request body into params + a resolved session.
/// Session campaigns resolve through `router.resolve_session`; scenario
/// campaigns have no session (`*session_out` stays null) and reject the
/// session-only fields. Throws service::HandlerError on bad input.
CampaignParams parse_campaign_request(
    const JsonValue& body, service::Router& router,
    std::shared_ptr<const service::Session>* session_out);

}  // namespace rca::campaign
