// Algorithm 5.4: the iterative refinement procedure (the paper's primary
// contribution).
//
//   1-4. variable selection -> internal names -> backward slice -> induced
//        subgraph G (done by the caller via src/stats + src/slice);
//   5.   Girvan-Newman communities of undirected G (one split iteration,
//        communities below the size threshold omitted);
//   6.   eigenvector in-centrality per community; top-m nodes per community
//        become sampling sites;
//   7.   instrument the sites for an ensemble and an experimental run — one
//        task per community, executed on a thread pool ("the procedure can
//        be performed in parallel");
//   8a.  no differences seen: drop everything on BFS paths terminating on
//        the sampled nodes;
//   8b.  differences seen: keep only nodes on BFS paths terminating on the
//        differing sites;
//   9.   repeat until the subgraph is small enough for manual analysis, the
//        bug sites are instrumented, or refinement stalls (the paper's
//        "issue 1": 8b can reproduce the same subgraph).
//
// Sampling is pluggable: SimulatedSampler reproduces the paper's evaluation
// mode (differences deduced from directed reachability from known bug
// sites); RuntimeSampler actually executes the model with watchpoints —
// the "challenging undertaking that remains to be done" of the paper's
// conclusion, which our interpreter substrate makes possible. Like KGen, it
// records values once per run and compares them offline: one fully watched
// control run and one fully watched experimental run (RunTrace) answer
// every step-7 round by lookup.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "meta/metagraph.hpp"
#include "model/model.hpp"
#include "support/thread_pool.hpp"

namespace rca::engine {

/// One detected value difference at a sampled site.
struct Difference {
  graph::NodeId node = graph::kInvalidNode;
  /// Relative magnitude of the difference (sampler-specific scale); used by
  /// the stall-breaking "rank the differences" extension (paper §6.3
  /// future work).
  double magnitude = 1.0;
};

/// Pluggable "step 7" instrumentation.
class Sampler {
 public:
  virtual ~Sampler() = default;
  /// The subset of `sites` (full-metagraph node ids) whose runtime values
  /// differ between the ensemble and the experimental run, in site order,
  /// each with its magnitude. RefinementEngine calls only this.
  virtual std::vector<Difference> detect_with_magnitudes(
      const std::vector<graph::NodeId>& sites) = 0;

  /// The nodes of detect_with_magnitudes(sites), in order. Virtual only so
  /// that timing decorators (perfbench's TimingSampler) can wrap it.
  virtual std::vector<graph::NodeId> detect_differences(
      const std::vector<graph::NodeId>& sites);
};

/// Paper evaluation mode: a site takes different values iff it is reachable
/// from a known bug node in the full digraph (paper §5.2: "Given our
/// knowledge of directed paths' connectivity from known bug sources ... we
/// can deduce whether a difference can be detected").
class SimulatedSampler : public Sampler {
 public:
  SimulatedSampler(const meta::Metagraph& mg,
                   const std::vector<graph::NodeId>& bug_nodes);
  /// Magnitude surrogate: 1 / (1 + hops from the nearest bug node) — sites
  /// closer to the source are "most affected".
  std::vector<Difference> detect_with_magnitudes(
      const std::vector<graph::NodeId>& sites) override;

 private:
  std::vector<bool> influenced_;            // bug node or descendant of one
  std::vector<std::uint32_t> bug_distance_; // hops from the bug set
};

/// Local nodes (module, subprogram, name) of `mg` whose module-level twin
/// (module, "", name) is also a node. See RunTrace.
std::vector<graph::NodeId> nodes_with_module_twin(const meta::Metagraph& mg);

/// The watch statistics of one model run with every metagraph node's watch
/// key bound, stored densely by NodeId.
///
/// Watching more keys changes one thing in the interpreter: a local
/// assignment whose own key is watched no longer falls back to its
/// (module, "", name) watch. A lookup therefore equals a run that watches
/// only the looked-up sites exactly when no local node has such a
/// module-level twin in the metagraph; record() checks that precondition.
class RunTrace {
 public:
  /// One run of `model` under `config` (its watches replaced by every node
  /// of `mg`). Throws rca::Error when nodes_with_module_twin(mg) is not
  /// empty.
  static RunTrace record(const meta::Metagraph& mg,
                         const model::CesmModel& model,
                         model::RunConfig config);

  const interp::WatchStats& stats(graph::NodeId v) const;
  /// Heap bytes held by the per-node statistics.
  std::size_t bytes() const { return stats_.capacity() * sizeof(stats_[0]); }

 private:
  std::vector<interp::WatchStats> stats_;
};

/// One model run's RunTrace, recorded at most once, on first use, and shared
/// by every RuntimeSampler handed the same slot (a Pipeline records its
/// control run once for all its scenarios and campaigns). `mu` serializes
/// the recording and guards `trace` (set once, never reset); a recording
/// that throws leaves it null and the next get() retries.
struct LazyTrace {
  const meta::Metagraph& mg;
  const model::CesmModel& model;
  model::RunConfig config;
  const char* role;
  std::shared_ptr<const RunTrace> trace;
  std::mutex mu;

  /// The trace, recording it first if no caller has yet.
  const RunTrace& get();
};

/// Real runtime sampling: compare each site's per-variable normalized RMS
/// (the KGen criterion, threshold 1e-12) between one control run and one
/// experimental run. Each run is recorded once as a RunTrace, on the first
/// detect_* call; concurrent callers wait for it, and a recording that
/// throws is retried by the next call.
class RuntimeSampler : public Sampler {
 public:
  RuntimeSampler(const meta::Metagraph& mg,
                 const model::CesmModel& control_model,
                 const model::CesmModel& experiment_model,
                 model::RunConfig control_config,
                 model::RunConfig experiment_config,
                 double rms_threshold = 1e-12);
  /// Samples against a control trace slot shared with other samplers.
  RuntimeSampler(const meta::Metagraph& mg,
                 std::shared_ptr<LazyTrace> control,
                 const model::CesmModel& experiment_model,
                 model::RunConfig experiment_config,
                 double rms_threshold = 1e-12);
  /// Magnitude = relative normalized-RMS difference.
  std::vector<Difference> detect_with_magnitudes(
      const std::vector<graph::NodeId>& sites) override;

 private:
  std::shared_ptr<LazyTrace> control_;
  LazyTrace experiment_;
  double rms_threshold_;
};

/// Which community detector partitions the subgraph (paper: Girvan-Newman;
/// Louvain is the near-linear alternative for large slices).
enum class CommunityMethod { kGirvanNewman, kLouvain };

struct IterationReport;

struct RefinementOptions {
  int gn_iterations = 1;              // paper default
  /// Wall-clock budget per Girvan–Newman run; 0 = unlimited. Over budget
  /// the iteration degrades to Louvain (counter: community.fallback) —
  /// refinement keeps moving instead of stalling on one partition.
  long long gn_budget_ms = 0;
  std::size_t min_community_size = 4; // paper omits clusters < 4 nodes
  std::size_t samples_per_community = 10;
  std::size_t max_iterations = 8;
  /// Stop when the subgraph is at most this many nodes ("small enough for
  /// manual analysis").
  std::size_t small_enough = 10;
  CommunityMethod community_method = CommunityMethod::kGirvanNewman;
  /// Paper §6.3 future work: when step 8b reproduces the same subgraph,
  /// rank the sampled differences by magnitude and re-slice on the single
  /// most-affected site.
  bool rank_differences_on_stall = false;
  ThreadPool* pool = nullptr;
  /// Observer invoked after every recorded iteration with the report just
  /// produced and the node set refinement will continue from. Returning
  /// false cancels the run: the loop stops where it is and
  /// RefinementResult::cancelled is set. Long-lived campaigns use this for
  /// progress streaming and cooperative cancellation.
  std::function<bool(const IterationReport&,
                     const std::vector<graph::NodeId>& remaining)>
      on_iteration;
};

struct CommunityReport {
  std::vector<graph::NodeId> members;    // full-graph ids
  std::vector<graph::NodeId> sampled;    // chosen sites, centrality order
  std::vector<double> sampled_centrality;
  std::vector<graph::NodeId> differing;  // sites with value differences
  std::vector<double> difference_magnitudes;  // aligned with `differing`
};

struct IterationReport {
  std::size_t subgraph_nodes = 0;
  std::size_t subgraph_edges = 0;
  std::vector<CommunityReport> communities;
  bool detected = false;   // any differing site this iteration
  bool applied_8a = false; // shrink by removing silent-site ancestors
  /// 8b reproduced the subgraph but the magnitude-ranked re-slice broke the
  /// stall (only with RefinementOptions::rank_differences_on_stall).
  bool stall_broken = false;
};

struct RefinementResult {
  std::vector<IterationReport> iterations;
  /// Final subgraph nodes (full-graph ids).
  std::vector<graph::NodeId> final_nodes;
  /// True when refinement ended because the subgraph reproduced itself
  /// (paper's issue 1) rather than shrinking below the threshold.
  bool stalled = false;
  /// True when RefinementOptions::on_iteration asked the run to stop.
  bool cancelled = false;
  /// Evaluation: iteration (1-based) at which a known bug node was inside
  /// the sampled set, 0 if never (filled when bug nodes are supplied).
  std::size_t bug_instrumented_at = 0;
  /// Evaluation: iteration at which a difference was first detected.
  std::size_t first_detection_at = 0;
};

class RefinementEngine {
 public:
  RefinementEngine(const meta::Metagraph& mg, Sampler& sampler,
                   const RefinementOptions& opts = {});

  /// Runs Algorithm 5.4 steps 5-9 starting from the slice node set
  /// (full-graph ids; produced by slice::backward_slice). `bug_nodes` is
  /// optional ground truth used only to fill the evaluation fields.
  /// `excluded_sites` are never chosen as sampling sites — by default the
  /// slicing-criterion nodes themselves, whose divergence is already
  /// established by the ECT; instrumenting them would localize nothing.
  RefinementResult run(const std::vector<graph::NodeId>& slice_nodes,
                       const std::vector<graph::NodeId>& bug_nodes = {},
                       const std::vector<graph::NodeId>& excluded_sites = {});

 private:
  const meta::Metagraph& mg_;
  Sampler& sampler_;
  RefinementOptions opts_;
};

}  // namespace rca::engine
