#include "engine/pipeline.hpp"

#include <algorithm>

#include "cov/coverage_filter.hpp"
#include "fault/fault.hpp"
#include "meta/builder.hpp"
#include "model/corpus.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::engine {

using graph::NodeId;

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  obs::Span span("pipeline.init");
  if (config_.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    config_.refinement.pool = pool_.get();
  }
  control_ = std::make_unique<model::CesmModel>(config_.corpus, pool_.get());
  RCA_CHECK_MSG(control_->parse_failures() == 0,
                "control corpus failed to parse");

  // Coverage run (time step 2, like the paper) and filtered metagraph.
  const cov::CoverageFilter filter(control_->coverage_run(2),
                                   &control_->compiled_modules());
  meta::BuilderOptions builder_opts;
  builder_opts.module_filter = filter.module_predicate();
  builder_opts.subprogram_filter = filter.subprogram_predicate();
  builder_opts.pool = pool_.get();
  builder_opts.prune_dead_stores = config_.prune_dead_stores;
  mg_ = meta::build_metagraph(control_->compiled_modules(), builder_opts);
  if (config_.prune_dead_stores) {
    span.attr("dead_stores_pruned", mg_.dead_stores_pruned);
    obs::count("meta.dead_stores_pruned", mg_.dead_stores_pruned);
  }

  // Accepted ensemble.
  ensemble_ = model::ensemble_matrix(*control_, config_.base_run,
                                     config_.ensemble_members, &names_, 1);
  ect_ = std::make_unique<ect::EnsembleConsistencyTest>(ensemble_, names_,
                                                        config_.ect);
  span.attr("graph_nodes", mg_.node_count());
  span.attr("graph_edges", mg_.graph().edge_count());
  span.attr("ensemble_members", config_.ensemble_members);
  obs::gauge("pipeline.graph_nodes", static_cast<double>(mg_.node_count()));
  obs::gauge("pipeline.graph_edges",
             static_cast<double>(mg_.graph().edge_count()));
}

const model::CesmModel& Pipeline::bug_model(model::BugId bug) {
  if (bug == model::BugId::kNone) return *control_;
  for (std::size_t i = 0; i < bug_model_ids_.size(); ++i) {
    if (bug_model_ids_[i] == bug) return *bug_models_[i];
  }
  model::CorpusSpec corpus_spec = config_.corpus;
  corpus_spec.bug = bug;
  bug_models_.push_back(
      std::make_unique<model::CesmModel>(corpus_spec, pool_.get()));
  bug_model_ids_.push_back(bug);
  RCA_CHECK_MSG(bug_models_.back()->parse_failures() == 0,
                "bug corpus failed to parse");
  return *bug_models_.back();
}

std::vector<NodeId> Pipeline::scenario_planted_nodes(
    const model::ScenarioSpec& s) {
  return model::scenario_planted_nodes(s, mg_, control_->compiled_modules());
}

ExperimentOutcome Pipeline::run_scenario(const model::ScenarioSpec& s,
                                         bool runtime_sampling) {
  const model::CesmModel& exp_model = bug_model(s.bug);
  const model::RunConfig exp_config =
      model::scenario_run_config(s, config_.base_run);
  ExperimentOutcome outcome;
  outcome.bug_nodes = scenario_planted_nodes(s);
  obs::Span experiment_span("experiment");
  experiment_span.attr("name", s.name);
  experiment_span.attr("runtime_sampling", runtime_sampling);

  // Stage-boundary fault sites: chaos tests prove a failure inside one
  // stage surfaces as a clean error from run_scenario(), never a crash or
  // a half-written outcome.
  // 0. UF-ECT verdict on a 3-run experimental set.
  {
    obs::Span span("ect");
    RCA_FAULT_POINT("engine.ect");
    const auto verdict_runs =
        model::experiment_set(exp_model, exp_config, 3, 5000, names_);
    outcome.verdict = ect_->evaluate(verdict_runs);
    span.attr("pass", outcome.verdict.pass);
    span.attr("failing_pcs", outcome.verdict.failing_pcs.size());
  }

  // 1. Variable selection (§3): both methods reported; lasso drives the
  //    slice (falling back to median ranking if lasso selects nothing).
  obs::Span selection_span("selection");
  RCA_FAULT_POINT("engine.selection");
  const auto exp_runs = model::experiment_set(
      exp_model, exp_config, config_.experimental_runs, 6000, names_);
  stats::Matrix exp_matrix(exp_runs.size(), names_.size());
  for (std::size_t i = 0; i < exp_runs.size(); ++i) {
    for (std::size_t j = 0; j < names_.size(); ++j) {
      exp_matrix.at(i, j) = exp_runs[i][j];
    }
  }
  outcome.lasso_selected = stats::lasso_selection(
      ensemble_, exp_matrix, names_, config_.lasso_target);
  outcome.median_ranked =
      stats::median_distance_ranking(ensemble_, exp_matrix, names_);

  // WSUBBUG-style dominance (§6.1): when the top median-distance variable
  // dwarfs the runner-up by >1000x and its IQR is disjoint, it alone is the
  // slicing criterion. Otherwise the lasso set drives the slice, with the
  // median ranking as fallback.
  const bool dominant =
      outcome.median_ranked.size() >= 2 &&
      outcome.median_ranked[0].iqr_disjoint &&
      outcome.median_ranked[0].median_distance >
          1000.0 * std::max(outcome.median_ranked[1].median_distance, 1e-300);
  if (dominant) {
    outcome.criteria_outputs = {outcome.median_ranked[0].name};
  } else {
    outcome.criteria_outputs = outcome.lasso_selected;
  }
  if (outcome.criteria_outputs.empty()) {
    for (std::size_t k = 0;
         k < config_.lasso_target && k < outcome.median_ranked.size(); ++k) {
      outcome.criteria_outputs.push_back(outcome.median_ranked[k].name);
    }
  }

  // 2. Output label -> internal canonical names (instrumented I/O map).
  for (const std::string& label : outcome.criteria_outputs) {
    for (const std::string& internal :
         slice::internal_names_for_output(mg_, label)) {
      if (std::find(outcome.internal_names.begin(),
                    outcome.internal_names.end(),
                    internal) == outcome.internal_names.end()) {
        outcome.internal_names.push_back(internal);
      }
    }
  }
  RCA_CHECK_MSG(!outcome.internal_names.empty(),
                "no internal names resolved for selected outputs");
  selection_span.attr("criteria", outcome.criteria_outputs.size());
  selection_span.attr("internal_names", outcome.internal_names.size());
  selection_span.attr("lasso_selected", outcome.lasso_selected.size());
  selection_span.end();

  // 3-4. Backward slice and induced subgraph.
  obs::Span slice_span("slice");
  RCA_FAULT_POINT("engine.slice");
  slice::SliceOptions slice_opts;
  if (config_.restrict_to_cam) {
    slice_opts.module_filter = [](const std::string& m) {
      return model::is_cam_module(m);
    };
  }
  slice_opts.drop_components_smaller_than = config_.drop_small_components;
  slice_opts.pool = pool_.get();
  outcome.slice = slice::backward_slice(mg_, outcome.internal_names,
                                        slice_opts);
  slice_span.attr("nodes", outcome.slice.nodes.size());
  slice_span.attr("edges", outcome.slice.subgraph.edge_count());
  obs::gauge("pipeline.slice_nodes",
             static_cast<double>(outcome.slice.nodes.size()));
  obs::gauge("pipeline.slice_edges",
             static_cast<double>(outcome.slice.subgraph.edge_count()));
  slice_span.end();

  // 5-9. Iterative refinement.
  obs::Span refinement_span("refinement");
  RCA_FAULT_POINT("engine.refinement");
  std::unique_ptr<Sampler> sampler;
  RuntimeSampler* runtime = nullptr;
  if (runtime_sampling) {
    model::RunConfig control_config = config_.base_run;
    control_config.member_seed = 31;  // one accepted member
    model::RunConfig experiment_config = exp_config;
    experiment_config.member_seed = 31;
    auto owned = std::make_unique<RuntimeSampler>(
        mg_, *control_, exp_model, control_config, experiment_config, 1e-12,
        control_trace_);
    runtime = owned.get();
    sampler = std::move(owned);
  } else {
    sampler = std::make_unique<SimulatedSampler>(mg_, outcome.bug_nodes);
  }
  RefinementEngine engine(mg_, *sampler, config_.refinement);
  outcome.refinement = engine.run(outcome.slice.nodes, outcome.bug_nodes,
                                  outcome.slice.targets);
  if (runtime != nullptr) control_trace_ = runtime->control_trace();
  refinement_span.attr("iterations", outcome.refinement.iterations.size());
  refinement_span.attr("final_nodes", outcome.refinement.final_nodes.size());
  refinement_span.attr("stalled", outcome.refinement.stalled);
  return outcome;
}

}  // namespace rca::engine
