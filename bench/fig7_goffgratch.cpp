// Regenerates Figure 7: the GOFFGRATCH experiment (saturation-vapor-pressure
// coefficient typo 8.1328e-3 -> 8.1828e-3).
//
// Paper narrative: lasso selects ~10 (mostly cloud) variables; the induced
// subgraph (4,243 nodes / 9,150 edges there) clusters; the community holding
// the bug detects a difference on the FIRST sampling round (paths exist from
// the bug to the central nodes); the second iteration reaches a static fixed
// point — "no further simulated iterative refinement can be performed".
#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 7 — GOFFGRATCH iteration 1 (and the iteration-2 "
                "fixed point)",
                "paper: 4,243-node slice; detection on iteration 1; "
                "iteration 2 cannot refine further");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("goffgratch"));

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);
  std::printf("\ninduced subgraph: %zu nodes / %zu edges "
              "(paper: 4,243 / 9,150)\n",
              outcome.slice.nodes.size(), outcome.slice.subgraph.edge_count());
  std::printf("bug locations:");
  for (graph::NodeId b : outcome.bug_nodes) {
    std::printf(" %s", pipe.metagraph().info(b).unique_name.c_str());
  }
  std::printf("\n\n");
  bench::print_refinement_trace(pipe.metagraph(), outcome.refinement);

  // Paper Figure 7c: paths exist from the bug to the sampled central nodes.
  bool bug_reaches_samples = false;
  if (!outcome.refinement.iterations.empty()) {
    for (const auto& comm : outcome.refinement.iterations[0].communities) {
      if (model::reaches_any_of(pipe.metagraph().graph(), outcome.bug_nodes,
                                comm.sampled)) {
        bug_reaches_samples = true;
      }
    }
  }
  std::printf("\npaths from bug to iteration-1 sampling sites: %s\n",
              bug_reaches_samples ? "yes (as in Figure 7c)" : "no");

  const auto& iters = outcome.refinement.iterations;
  const bool shape_holds =
      !outcome.verdict.pass && !iters.empty() && iters[0].detected &&
      bug_reaches_samples && outcome.refinement.stalled &&
      model::contains_any(outcome.refinement.final_nodes, outcome.bug_nodes);
  std::printf("shape check (detect on iter 1, fixed point after, bug "
              "retained): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
