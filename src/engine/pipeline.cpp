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

/// The accepted ensemble member the runtime sampler runs as its control and,
/// with the scenario's deltas, as its experiment.
constexpr std::uint64_t kSamplerMember = 31;

Pipeline::Pipeline(PipelineConfig config) : config_(std::move(config)) {
  obs::Span span("pipeline.init");
  if (config_.threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    config_.refinement.pool = pool_.get();
  }
  {
    obs::Span corpus_span("model.corpus");
    control_ = std::make_unique<model::CesmModel>(config_.corpus, pool_.get());
  }
  RCA_CHECK_MSG(control_->parse_failures() == 0,
                "control corpus failed to parse");

  // Coverage run (time step 2, like the paper) and filtered metagraph.
  interp::CoverageRecorder coverage;
  {
    obs::Span coverage_span("interp.coverage");
    coverage = control_->coverage_run(2);
  }
  {
    obs::Span build_span("meta.build");
    const cov::CoverageFilter filter(coverage, &control_->compiled_modules());
    meta::BuilderOptions builder_opts;
    builder_opts.module_filter = filter.module_predicate();
    builder_opts.subprogram_filter = filter.subprogram_predicate();
    builder_opts.pool = pool_.get();
    builder_opts.prune_dead_stores = config_.prune_dead_stores;
    mg_ = meta::build_metagraph(control_->compiled_modules(), builder_opts);
  }
  if (config_.prune_dead_stores) {
    span.attr("dead_stores_pruned", mg_.dead_stores_pruned);
    obs::count("meta.dead_stores_pruned", mg_.dead_stores_pruned);
  }

  // Accepted ensemble.
  ensemble_ = model::ensemble_matrix(*control_, config_.base_run,
                                     config_.ensemble_members, &names_, 1);
  {
    obs::Span fit_span("ect.fit");
    ect_ = std::make_unique<ect::EnsembleConsistencyTest>(ensemble_, names_,
                                                          config_.ect);
  }
  model::RunConfig control_config = config_.base_run;
  control_config.member_seed = kSamplerMember;
  control_trace_ = std::make_shared<LazyTrace>(mg_, *control_,
                                               std::move(control_config),
                                               "control");
  span.attr("graph_nodes", mg_.node_count());
  span.attr("graph_edges", mg_.graph().edge_count());
  span.attr("ensemble_members", config_.ensemble_members);
  obs::gauge("pipeline.graph_nodes", static_cast<double>(mg_.node_count()));
  obs::gauge("pipeline.graph_edges",
             static_cast<double>(mg_.graph().edge_count()));
}

const model::CesmModel& Pipeline::bug_model(model::BugId bug) {
  if (bug == model::BugId::kNone) return *control_;
  std::lock_guard<std::mutex> lock(bug_models_mu_);
  std::unique_ptr<model::CesmModel>& slot = bug_models_[bug];
  if (slot == nullptr) {
    obs::Span span("model.corpus");
    model::CorpusSpec corpus_spec = config_.corpus;
    corpus_spec.bug = bug;
    slot = std::make_unique<model::CesmModel>(corpus_spec, pool_.get());
    RCA_CHECK_MSG(slot->parse_failures() == 0, "bug corpus failed to parse");
  }
  return *slot;
}

ExperimentOutcome Pipeline::run_scenario(const model::ScenarioSpec& s,
                                         bool runtime_sampling) {
  obs::Span experiment_span("experiment");
  experiment_span.attr("name", s.name);
  experiment_span.attr("runtime_sampling", runtime_sampling);
  ExperimentOutcome outcome = criteria(s);
  outcome.slice = slice(outcome.internal_names);

  // 5-9. Iterative refinement.
  obs::Span refinement_span("refinement");
  RCA_FAULT_POINT("engine.refinement");
  const std::unique_ptr<Sampler> sampler =
      sampler_for(s, outcome.bug_nodes, runtime_sampling);
  RefinementEngine engine(mg_, *sampler, config_.refinement);
  outcome.refinement = engine.run(outcome.slice.nodes, outcome.bug_nodes,
                                  outcome.slice.targets);
  refinement_span.attr("iterations", outcome.refinement.iterations.size());
  refinement_span.attr("final_nodes", outcome.refinement.final_nodes.size());
  refinement_span.attr("stalled", outcome.refinement.stalled);
  return outcome;
}

ExperimentOutcome Pipeline::criteria(const model::ScenarioSpec& s) {
  const model::CesmModel& exp_model = bug_model(s.bug);
  const model::RunConfig exp_config =
      model::scenario_run_config(s, config_.base_run);
  ExperimentOutcome outcome;
  outcome.bug_nodes = scenario_planted_nodes(s);

  // Stage-boundary fault sites: chaos tests prove a failure inside one
  // stage surfaces as a clean error from the stage, never a crash or a
  // half-written outcome.
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
  {
    obs::Span lasso_span("stats.lasso");
    outcome.lasso_selected = stats::lasso_selection(
        ensemble_, exp_matrix, names_, config_.lasso_target);
  }
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
  return outcome;
}

slice::SliceResult Pipeline::slice(
    const std::vector<std::string>& internal_names) {
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
  slice::SliceResult result =
      slice::backward_slice(mg_, internal_names, slice_opts);
  slice_span.attr("nodes", result.nodes.size());
  slice_span.attr("edges", result.subgraph.edge_count());
  obs::gauge("pipeline.slice_nodes", static_cast<double>(result.nodes.size()));
  obs::gauge("pipeline.slice_edges",
             static_cast<double>(result.subgraph.edge_count()));
  return result;
}

std::unique_ptr<Sampler> Pipeline::sampler_for(
    const model::ScenarioSpec& s, const std::vector<NodeId>& planted,
    bool runtime_sampling) {
  if (!runtime_sampling) {
    return std::make_unique<SimulatedSampler>(mg_, planted);
  }
  model::RunConfig experiment_config =
      model::scenario_run_config(s, config_.base_run);
  experiment_config.member_seed = kSamplerMember;
  return std::make_unique<RuntimeSampler>(mg_, control_trace_,
                                          bug_model(s.bug),
                                          std::move(experiment_config));
}

}  // namespace rca::engine
