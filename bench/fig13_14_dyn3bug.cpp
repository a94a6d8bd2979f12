// Regenerates Figures 13-14 (supplementary): DYN3BUG — a single-line
// coefficient change in the dynamics subroutine computing hydrostatic
// pressure.
//
// Paper narrative: the slice (5,999 nodes / 11,495 edges there) separates a
// dynamics community from the physics community; instrumented central nodes
// are reachable from the bug (detection); the second iteration reproduces
// the same subgraph — refinement cannot proceed without value magnitudes.
#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

int main() {
  bench::banner("Figures 13-14 — DYN3BUG iterations 1 and 2",
                "paper: 5,999-node slice; dynamics/physics communities "
                "separated; detection; iteration-2 fixed point");

  engine::PipelineConfig config = bench::default_config();
  // Two G-N iterations expose the dynamics community at this corpus scale
  // (the paper's graph is ~35x larger; its first split already separates
  // dynamics from physics).
  config.refinement.gn_iterations = 2;
  engine::Pipeline pipe(config);
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("dyn3"));
  const meta::Metagraph& mg = pipe.metagraph();

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);
  std::printf("\ninduced subgraph: %zu nodes / %zu edges "
              "(paper: 5,999 / 11,495)\n",
              outcome.slice.nodes.size(), outcome.slice.subgraph.edge_count());
  std::printf("bug locations:");
  for (graph::NodeId b : outcome.bug_nodes) {
    std::printf(" %s", mg.info(b).unique_name.c_str());
  }
  std::printf("\n\n");
  bench::print_refinement_trace(mg, outcome.refinement);

  // Is there a community dominated by dynamics modules (the paper's orange
  // cluster)?
  bool dynamics_community = false;
  if (!outcome.refinement.iterations.empty()) {
    for (const auto& comm : outcome.refinement.iterations[0].communities) {
      std::size_t dyn_nodes = 0;
      for (graph::NodeId v : comm.members) {
        const std::string& mod = mg.info(v).module;
        // The prognostic state belongs to the dycore cluster (as in CESM's
        // finite-volume core, where the state arrays live with dynamics).
        if (mod == "dyn_core" || mod == "dyn_hydro" ||
            mod == "phys_state_mod") {
          ++dyn_nodes;
        }
      }
      if (dyn_nodes * 2 > comm.members.size()) dynamics_community = true;
    }
  }
  std::printf("\ndynamics-dominated community found: %s (paper: orange "
              "cluster)\n", dynamics_community ? "yes" : "no");

  const auto& iters = outcome.refinement.iterations;
  const bool shape_holds =
      !outcome.verdict.pass && !iters.empty() && iters[0].detected &&
      outcome.refinement.stalled &&
      model::contains_any(outcome.refinement.final_nodes, outcome.bug_nodes);
  std::printf("shape check (fail, detect, fixed point, bug retained): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
