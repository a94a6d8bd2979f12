// Extension (beyond the paper's evaluation, grounded in its §1): the
// CESM-ECT family also covers the ocean model (POP-ECT, Baker et al. 2016,
// pyCECT v2). Our corpus has a POP stand-in forced by the atmosphere's
// surface fluxes, so atmospheric discrepancies should propagate into the
// ocean-only consistency test — and slicing an ocean output without the
// CAM restriction should walk back across the component boundary into the
// atmosphere.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

namespace {

/// Column-subset of a matrix by variable-name prefix filter.
stats::Matrix select_columns(const stats::Matrix& data,
                             const std::vector<std::string>& names,
                             const std::vector<std::string>& keep,
                             std::vector<std::string>* kept_names) {
  std::vector<std::size_t> cols;
  for (std::size_t j = 0; j < names.size(); ++j) {
    if (std::find(keep.begin(), keep.end(), names[j]) != keep.end()) {
      cols.push_back(j);
      kept_names->push_back(names[j]);
    }
  }
  stats::Matrix out(data.rows(), cols.size());
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      out.at(i, j) = data.at(i, cols[j]);
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Extension — POP-ECT: ocean-only consistency testing",
                "atmospheric discrepancies must fail the ocean ECT through "
                "the surface-flux coupling (paper §1: ECT covers CAM and "
                "POP)");

  engine::PipelineConfig config = bench::default_config();
  config.restrict_to_cam = false;
  engine::Pipeline pipe(config);

  // Ocean-only ensemble consistency test over sst/ssh/uocn.
  const std::vector<std::string> ocean_vars = {"sst", "ssh", "uocn"};
  std::vector<std::string> kept;
  stats::Matrix ocean_ens =
      select_columns(pipe.ensemble(), pipe.output_names(), ocean_vars, &kept);
  ect::EctOptions opts;
  opts.num_pcs = 3;
  opts.sigma_multiplier = 3.29;
  opts.min_failing_pcs = 1;  // only 3 variables: one robust PC failure
  ect::EnsembleConsistencyTest ocean_ect(ocean_ens, kept, opts);

  auto ocean_verdict = [&](const model::ScenarioSpec& s) {
    const model::CesmModel& exp_model = pipe.bug_model(s.bug);
    const model::RunConfig rc = model::scenario_run_config(s, config.base_run);
    const auto runs =
        model::experiment_set(exp_model, rc, 3, 7000, pipe.output_names());
    std::vector<std::vector<double>> ocean_runs;
    for (const auto& run : runs) {
      std::vector<double> row;
      for (std::size_t j = 0; j < pipe.output_names().size(); ++j) {
        if (std::find(ocean_vars.begin(), ocean_vars.end(),
                      pipe.output_names()[j]) != ocean_vars.end()) {
          row.push_back(run[j]);
        }
      }
      ocean_runs.push_back(std::move(row));
    }
    return ocean_ect.evaluate(ocean_runs);
  };

  Table table("Ocean-only ECT verdicts");
  table.set_header({"Experiment", "ocean ECT", "expected"});
  bool control_passes = true;
  bool coupled_bugs_fail = true;
  bool uncoupled_passes = true;
  {
    // Control: unseen control members must pass.
    const auto runs = model::experiment_set(pipe.control_model(),
                                            config.base_run, 3, 8000,
                                            pipe.output_names());
    std::vector<std::vector<double>> ocean_runs;
    for (const auto& run : runs) {
      std::vector<double> row;
      for (std::size_t j = 0; j < pipe.output_names().size(); ++j) {
        if (std::find(ocean_vars.begin(), ocean_vars.end(),
                      pipe.output_names()[j]) != ocean_vars.end()) {
          row.push_back(run[j]);
        }
      }
      ocean_runs.push_back(std::move(row));
    }
    const bool pass = ocean_ect.evaluate(ocean_runs).pass;
    control_passes = pass;
    table.add_row({"control", pass ? "PASS" : "FAIL", "PASS"});
  }
  for (const char* name : {"goffgratch", "fma-contraction"}) {
    const model::ScenarioSpec& s = bench::scenario(name);
    const bool pass = ocean_verdict(s).pass;
    if (pass) coupled_bugs_fail = false;
    table.add_row({s.paper_id, pass ? "PASS" : "FAIL", "FAIL (coupled)"});
  }
  {
    // RAND-MT perturbs only the radiation diagnostics, which have no
    // pathway into the surface fluxes forcing the ocean: the ocean-only
    // test correctly stays green — component-level ECTs localize which
    // couplings a discrepancy crosses.
    const model::ScenarioSpec& s = bench::scenario("prng");
    const bool pass = ocean_verdict(s).pass;
    uncoupled_passes = pass;
    table.add_row({s.paper_id, pass ? "PASS" : "FAIL", "PASS (uncoupled)"});
  }
  table.print(std::cout);

  // Cross-component slice: the ocean output's unrestricted ancestry reaches
  // the atmosphere.
  slice::SliceResult sl = slice::backward_slice(pipe.metagraph(), {"sst"});
  std::size_t cam_nodes = 0;
  for (graph::NodeId v : sl.nodes) {
    if (model::is_cam_module(pipe.metagraph().info(v).module)) ++cam_nodes;
  }
  std::printf("\nslice on ocean output 'sst': %zu nodes, %zu inside CAM "
              "(coupling crossed)\n", sl.nodes.size(), cam_nodes);

  const bool shape_holds = control_passes && coupled_bugs_fail &&
                           uncoupled_passes && cam_nodes > 20;
  std::printf("shape check (control passes; state-coupled bugs fail the "
              "ocean test; the radiation-only bug does not; slice crosses "
              "the coupling): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
