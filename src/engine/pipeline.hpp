// End-to-end pipeline (Figure 1 of the paper): model runs -> UF-ECT ->
// variable selection -> output-to-internal mapping -> backward slice ->
// iterative refinement. Every RCA answer for a library scenario takes the
// public stages: run_scenario composes them for `analyze`, `score` and the
// benches, and scenario campaigns call them on a shared Pipeline, which is
// safe for concurrent stage calls (locked bug-corpus cache, one lazily
// recorded control trace).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ect/ect.hpp"
#include "engine/refinement.hpp"
#include "meta/metagraph.hpp"
#include "model/model.hpp"
#include "model/scenario.hpp"
#include "slice/slicer.hpp"
#include "stats/selection.hpp"

namespace rca::engine {

struct PipelineConfig {
  model::CorpusSpec corpus;             // control corpus
  model::RunConfig base_run;            // ensemble-member template
  std::size_t ensemble_members = 40;
  std::size_t experimental_runs = 12;   // set used for lasso selection
  ect::EctOptions ect;
  std::size_t lasso_target = 5;         // paper tunes to ~5 variables
  bool restrict_to_cam = true;          // paper restricts subgraphs to CAM
  std::size_t drop_small_components = 4;
  RefinementOptions refinement;
  /// Worker threads for the parallel front end (corpus parse, metagraph
  /// build, multi-target slice) plus per-community sampling and parallel
  /// betweenness (Algorithm 5.4's "performed in parallel"). 0 = serial.
  std::size_t threads = 0;
  /// Forwarded to BuilderOptions::prune_dead_stores: drop assignments the
  /// liveness analysis (src/analysis) proves dead before they add edges.
  bool prune_dead_stores = false;

  PipelineConfig() {
    ect.num_pcs = 10;
    ect.sigma_multiplier = 3.29;
    ect.min_failing_pcs = 3;
  }
};

/// Everything one scenario run produced, for reporting.
struct ExperimentOutcome {
  ect::Verdict verdict;
  /// Variables most affected, by both §3 methods.
  std::vector<std::string> lasso_selected;
  std::vector<stats::RankedVariable> median_ranked;
  /// Output labels used as slicing criteria (lasso set, or median top-k as
  /// fallback) and their internal canonical names.
  std::vector<std::string> criteria_outputs;
  std::vector<std::string> internal_names;
  slice::SliceResult slice;
  /// Ground-truth bug nodes in the metagraph (for evaluation/plots).
  std::vector<graph::NodeId> bug_nodes;
  RefinementResult refinement;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  const PipelineConfig& config() const { return config_; }
  const model::CesmModel& control_model() const { return *control_; }
  /// Coverage-filtered metagraph of the control corpus.
  const meta::Metagraph& metagraph() const { return mg_; }
  const ect::EnsembleConsistencyTest& ect() const { return *ect_; }
  const std::vector<std::string>& output_names() const { return names_; }
  const stats::Matrix& ensemble() const { return ensemble_; }

  /// Full pipeline for a library scenario (model/scenario.hpp), scored
  /// against its planted sites: criteria() -> slice() -> one
  /// RefinementEngine run on sampler_for(). Simulated sampling is the
  /// paper's mode; `runtime_sampling` samples through real interpreter runs.
  ExperimentOutcome run_scenario(const model::ScenarioSpec& s,
                                 bool runtime_sampling = false);

  /// Stages 0-2: the planted nodes, the UF-ECT verdict on a 3-run
  /// experimental set, lasso and median-distance selection, the slicing
  /// criteria chosen from them and their internal names. Fills every
  /// ExperimentOutcome field except `slice` and `refinement`.
  ExperimentOutcome criteria(const model::ScenarioSpec& s);

  /// Stages 3-4: backward slice on `internal_names` and its induced
  /// subgraph (CAM restriction and small-component drop per the config).
  slice::SliceResult slice(const std::vector<std::string>& internal_names);

  /// Step-7 sampler: reachability from `planted`, or runtime sampling of one
  /// accepted member (experiment recorded once per sampler, control once
  /// per Pipeline).
  std::unique_ptr<Sampler> sampler_for(
      const model::ScenarioSpec& s, const std::vector<graph::NodeId>& planted,
      bool runtime_sampling);

  /// Planted ground-truth nodes for a scenario on this pipeline's graph.
  std::vector<graph::NodeId> scenario_planted_nodes(
      const model::ScenarioSpec& s) const {
    return model::scenario_planted_nodes(s, mg_, control_->compiled_modules());
  }

  /// Model for a bug-injected corpus (the control model for kNone); built
  /// once per BugId and cached.
  const model::CesmModel& bug_model(model::BugId bug);

 private:
  PipelineConfig config_;
  std::unique_ptr<model::CesmModel> control_;
  meta::Metagraph mg_;
  std::vector<std::string> names_;
  stats::Matrix ensemble_;
  std::unique_ptr<ect::EnsembleConsistencyTest> ect_;
  std::mutex bug_models_mu_;  // guards bug_models_
  std::map<model::BugId, std::unique_ptr<model::CesmModel>> bug_models_;
  /// Fully watched run of the runtime sampler's control member, recorded by
  /// the first sampler that needs it and shared by every later one.
  std::shared_ptr<LazyTrace> control_trace_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace rca::engine
