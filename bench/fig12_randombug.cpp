// Regenerates Figure 12 (supplementary): RANDOMBUG — an array-index error in
// the assignment writing the derived-type state variable omega.
//
// Paper narrative: slicing on canonical name "omega" pulls every node so
// named across scopes (628 nodes / 295 edges there — more nodes than edges,
// i.e. a forest of small ancestries); G-N finds several small communities,
// and the bug is reachable from the sampled central node of one of them.
#include "bench/bench_common.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 12 — RANDOMBUG (array-index error writing "
                "state%omega)",
                "paper: 628-node / 295-edge slice across all 'omega' scopes; "
                "a small community's central node connects to the bug");

  engine::PipelineConfig config = bench::default_config();
  // The paper keeps even small residual communities for this experiment.
  config.drop_small_components = 0;
  engine::Pipeline pipe(config);
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("random-node"));
  const meta::Metagraph& mg = pipe.metagraph();

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);

  std::printf("\nnodes with canonical name 'omega' anywhere in the graph: "
              "%zu\n", mg.by_canonical("omega").size());
  std::printf("induced subgraph: %zu nodes / %zu edges (paper: 628 / 295)\n",
              outcome.slice.nodes.size(), outcome.slice.subgraph.edge_count());
  std::printf("bug location:");
  for (graph::NodeId b : outcome.bug_nodes) {
    std::printf(" %s", mg.info(b).unique_name.c_str());
  }
  std::printf("\n\n");
  bench::print_refinement_trace(mg, outcome.refinement);

  // Figure 12c: a purple edge connects the bug to an instrumented node.
  bool bug_connects = false;
  for (const auto& iter : outcome.refinement.iterations) {
    for (const auto& comm : iter.communities) {
      if (model::reaches_any_of(mg.graph(), outcome.bug_nodes, comm.sampled)) {
        bug_connects = true;
      }
    }
  }
  std::printf("\nbug connects to an instrumented node: %s\n",
              bug_connects ? "yes" : "no");

  const bool shape_holds =
      !outcome.verdict.pass && bug_connects &&
      model::contains_any(outcome.refinement.final_nodes, outcome.bug_nodes);
  std::printf("shape check (fail, detection, bug retained): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
