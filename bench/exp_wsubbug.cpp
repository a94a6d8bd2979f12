// Regenerates the §6.1 WSUBBUG narrative: the sanity-check experiment with
// an isolated, highly localized bug (0.20 -> 2.00 in one wsub assignment,
// written to the history file on the next line).
//
// Paper narrative: the median-distance method flags wsub with a distance
// more than 1,000x the runner-up; the induced subgraph contains only 14
// internal variables, all related to wsub, one being the bug itself; the
// subgraph is disconnected from the CAM core.
#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

int main() {
  bench::banner("WSUBBUG (§6.1) — isolated single-line bug",
                "paper: wsub median distance >1000x runner-up; 14-node "
                "subgraph; disconnected from the CAM core");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("wsub"));
  const meta::Metagraph& mg = pipe.metagraph();

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);

  const double ratio = outcome.median_ranked[0].median_distance /
                       std::max(outcome.median_ranked[1].median_distance,
                                1e-300);
  std::printf("\nmedian-distance dominance: %.3g x runner-up (paper: >1000x)\n",
              ratio);
  std::printf("induced subgraph: %zu nodes (paper: 14)\n",
              outcome.slice.nodes.size());
  std::printf("subgraph members:");
  for (graph::NodeId v : outcome.slice.nodes) {
    std::printf(" %s", mg.info(v).unique_name.c_str());
  }
  std::printf("\n");

  // Disconnection from the CAM core: no path from the chaotic state into
  // the wsub subgraph within the CAM-restricted view.
  const graph::NodeId t_state = mg.find("phys_state_mod", "", "t");
  bool reachable_from_core = false;
  if (t_state != graph::kInvalidNode) {
    reachable_from_core =
        graph::reaches_any(mg.graph(), t_state, outcome.slice.nodes);
  }
  std::printf("reachable from the CAM core state: %s (paper: no)\n",
              reachable_from_core ? "yes" : "no");

  const bool shape_holds = !outcome.verdict.pass && ratio > 1000.0 &&
                           outcome.slice.nodes.size() <= 20 &&
                           !reachable_from_core &&
                           model::contains_any(outcome.slice.nodes,
                                               outcome.bug_nodes);
  std::printf("\nshape check (dominant wsub, tiny isolated subgraph holding "
              "the bug): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
