// Ablation: breaking the step-8b fixed point by ranking difference
// magnitudes (paper §6.3 future work: "we can rank the differences obtained
// by sampling and further refine the subgraph based on the nodes with the
// greatest differences").
//
// GOFFGRATCH and DYN3BUG both stall in the paper (and here) because the
// kept subgraph is so interconnected that 8b reproduces it. With
// rank_differences_on_stall the engine re-slices on the single
// most-affected site; the search space shrinks further and the bug is
// still retained.
#include "bench/bench_common.hpp"

using namespace rca;

int main() {
  bench::banner("Ablation — difference-magnitude stall breaking (§6.3 "
                "future work)",
                "fixed-point subgraphs refined further by ranking sampled "
                "differences");

  Table table("Final search-space size");
  table.set_header({"Experiment", "plain Algorithm 5.4", "with ranking",
                    "bug retained"});

  bool all_retained = true;
  bool any_shrunk = false;
  for (const char* name : {"goffgratch", "dyn3"}) {
    const model::ScenarioSpec& s = bench::scenario(name);
    engine::Pipeline plain_pipe(bench::default_config());
    engine::ExperimentOutcome plain = plain_pipe.run_scenario(s);

    engine::PipelineConfig ranked_config = bench::default_config();
    ranked_config.refinement.rank_differences_on_stall = true;
    ranked_config.refinement.max_iterations = 12;
    engine::Pipeline ranked_pipe(ranked_config);
    engine::ExperimentOutcome ranked = ranked_pipe.run_scenario(s);

    const bool retained = model::contains_any(ranked.refinement.final_nodes,
                                              ranked.bug_nodes);
    all_retained = all_retained && retained;
    if (ranked.refinement.final_nodes.size() <
        plain.refinement.final_nodes.size()) {
      any_shrunk = true;
    }
    table.add_row({s.paper_id,
                   Table::integer(static_cast<long long>(
                       plain.refinement.final_nodes.size())),
                   Table::integer(static_cast<long long>(
                       ranked.refinement.final_nodes.size())),
                   retained ? "yes" : "NO"});
  }
  table.print(std::cout);

  const bool shape_holds = all_retained && any_shrunk;
  std::printf("\nshape check (ranking shrinks a stalled search space without "
              "losing the bug): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
