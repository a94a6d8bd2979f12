// Scenario: a developer introduced a coefficient typo somewhere in ~80
// modules of the synthetic climate model; the consistency test fails; find
// the bug. This drives the complete paper pipeline end-to-end, using REAL
// runtime sampling (interpreter watchpoints), not just the paper's
// simulated mode.
//
// Build & run:  ./build/examples/find_injected_bug
#include <cstdio>

#include "engine/pipeline.hpp"
#include "support/stopwatch.hpp"

using namespace rca;

int main() {
  Stopwatch sw;
  std::printf("building control model, ensemble and metagraph...\n");
  engine::PipelineConfig config;
  config.ensemble_members = 30;
  engine::Pipeline pipe(config);
  std::printf("  %zu modules compiled, metagraph %zu nodes / %zu edges "
              "(%.1fs)\n\n",
              pipe.control_model().compiled_modules().size(),
              pipe.metagraph().node_count(),
              pipe.metagraph().graph().edge_count(), sw.seconds());

  // The "unknown" bug: GOFFGRATCH's 8.1328e-3 -> 8.1828e-3 typo.
  std::printf("running the GOFFGRATCH experiment with runtime sampling...\n");
  engine::ExperimentOutcome outcome = pipe.run_scenario(
      *model::find_scenario("goffgratch"), /*runtime_sampling=*/true);

  std::printf("UF-ECT verdict: %s (%zu failing principal components)\n",
              outcome.verdict.pass ? "PASS" : "FAIL",
              outcome.verdict.failing_pcs.size());
  std::printf("most affected outputs:");
  for (const auto& name : outcome.criteria_outputs) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nbackward slice: %zu nodes (of %zu)\n",
              outcome.slice.nodes.size(), pipe.metagraph().node_count());

  for (std::size_t i = 0; i < outcome.refinement.iterations.size(); ++i) {
    const auto& iter = outcome.refinement.iterations[i];
    std::printf("iteration %zu: %zu communities over %zu nodes — %s\n", i + 1,
                iter.communities.size(), iter.subgraph_nodes,
                iter.detected ? "runtime watchpoints saw differing values"
                              : "no differences at the sampled sites");
  }

  // Report the suspect set: differing sampled variables, with locations.
  std::printf("\nsuspect variables (watchpoints with differing normalized "
              "RMS):\n");
  std::size_t shown = 0;
  for (const auto& iter : outcome.refinement.iterations) {
    for (const auto& comm : iter.communities) {
      for (graph::NodeId v : comm.differing) {
        const auto& info = pipe.metagraph().info(v);
        std::printf("  %-28s module %-16s line %d\n",
                    info.unique_name.c_str(), info.module.c_str(), info.line);
        if (++shown >= 12) break;
      }
      if (shown >= 12) break;
    }
    if (shown >= 12) break;
  }

  // Did the procedure keep the true bug location in its final search set?
  bool retained = false;
  for (graph::NodeId b : outcome.bug_nodes) {
    for (graph::NodeId n : outcome.refinement.final_nodes) {
      if (n == b) retained = true;
    }
  }
  std::printf("\nfinal search space: %zu nodes; true bug location %s\n",
              outcome.refinement.final_nodes.size(),
              retained ? "RETAINED (inspect wv_saturation::goffgratch_svp)"
                       : "lost — widen the search");
  std::printf("total elapsed: %.1fs\n", sw.seconds());
  return retained ? 0 : 1;
}
