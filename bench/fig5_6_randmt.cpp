// Regenerates Figures 5-6: the RAND-MT experiment (Mersenne-Twister PRNG
// substitution) through two refinement iterations.
//
// Paper narrative: lasso selects 5 radiation/surface outputs; the induced
// subgraph (4,509 nodes / 9,498 edges there) splits into two main
// communities; sampling the top-10 in-central nodes of the PRNG community
// detects NOTHING (no paths from the PRNG-fed variables to those nodes);
// step 8a then shrinks the search space dramatically, and the second
// iteration's sampling sites sit next to the PRNG sources.
#include "bench/bench_common.hpp"

using namespace rca;

int main() {
  bench::banner("Figures 5-6 — RAND-MT iterations 1 and 2",
                "paper: 4,509-node slice, 2 communities, miss -> 8a -> "
                "detect near sources on iteration 2");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("prng"));

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);
  std::printf("\ninduced subgraph: %zu nodes / %zu edges "
              "(paper: 4,509 / 9,498)\n",
              outcome.slice.nodes.size(), outcome.slice.subgraph.edge_count());
  std::printf("PRNG-influenced bug locations: %zu nodes:",
              outcome.bug_nodes.size());
  for (graph::NodeId b : outcome.bug_nodes) {
    std::printf(" %s", pipe.metagraph().info(b).unique_name.c_str());
  }
  std::printf("\n\n");

  bench::print_refinement_trace(pipe.metagraph(), outcome.refinement);

  const auto& iters = outcome.refinement.iterations;
  const bool shape_holds =
      !outcome.verdict.pass && iters.size() >= 2 && !iters[0].detected &&
      iters[0].applied_8a && iters[1].detected &&
      iters[1].subgraph_nodes * 4 < iters[0].subgraph_nodes &&
      model::contains_any(outcome.refinement.final_nodes, outcome.bug_nodes);
  std::printf("\nshape check (miss -> 8a shrink >4x -> detect, bug retained): "
              "%s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
