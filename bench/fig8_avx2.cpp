// Regenerates Figure 8 plus the in-centrality listing of §6.4: the AVX2/FMA
// experiment.
//
// Paper narrative: enabling AVX2 (hence FMA contraction) fails UF-CAM-ECT;
// KGen flags 42 MG1 variables whose normalized RMS differs beyond 1e-12;
// the induced subgraph (4,159 nodes / 9,028 edges there) puts the flagged
// variables in the physics community; the temporary `dum` has the largest
// eigenvector in-centrality, and 4 of the 5 in-slice flagged variables sit
// in the top-15 — instrumented on the FIRST iteration.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/centrality.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 8 — AVX2/FMA sensitivity localized to MG1",
                "paper: dum most central; flagged MG1 variables in top-15; "
                "sampled on iteration 1");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("fma-contraction"));
  const meta::Metagraph& mg = pipe.metagraph();
  const std::vector<graph::NodeId> kgen = bench::kgen_nodes(pipe);

  std::printf("UF-ECT verdict: %s\n", outcome.verdict.pass ? "PASS" : "FAIL");
  bench::print_selection(outcome);
  std::printf("\ninduced subgraph: %zu nodes / %zu edges "
              "(paper: 4,159 / 9,028)\n",
              outcome.slice.nodes.size(), outcome.slice.subgraph.edge_count());

  std::printf("KGen-style flagged variables (normalized RMS diff > 1e-12): "
              "%zu (paper: 42)\n", kgen.size());

  bench::print_refinement_trace(mg, outcome.refinement, 15);

  // §6.4's REPL-style listing: the physics community's in-centrality order.
  std::printf("\nphysics-community eigenvector in-centrality (top 16, "
              "* = KGen-flagged):\n");
  bool dum_first = false;
  std::size_t flagged_in_top15 = 0;
  if (!outcome.refinement.iterations.empty()) {
    // Find the community containing micro_mg nodes.
    for (const auto& comm : outcome.refinement.iterations[0].communities) {
      bool is_physics = false;
      for (graph::NodeId v : comm.sampled) {
        if (mg.info(v).module == "micro_mg") is_physics = true;
      }
      if (!is_physics) continue;
      for (std::size_t k = 0; k < comm.sampled.size() && k < 16; ++k) {
        const graph::NodeId v = comm.sampled[k];
        const bool flagged = model::contains_any({v}, kgen);
        std::printf("  (%s, %.6f)%s\n", mg.info(v).unique_name.c_str(),
                    comm.sampled_centrality[k], flagged ? "  *" : "");
        if (k == 0 && mg.info(v).unique_name == "dum__micro_mg_tend") {
          dum_first = true;
        }
      }
      flagged_in_top15 = model::count_planted(comm.sampled, kgen, 15);
    }
  }

  std::printf("\ndum ranked first: %s (paper: yes)\n", dum_first ? "yes" : "no");
  std::printf("flagged variables in top-15: %zu (paper: 4 of 5 in-slice)\n",
              flagged_in_top15);

  const bool shape_holds = !outcome.verdict.pass && dum_first &&
                           flagged_in_top15 >= 2 &&
                           outcome.refinement.bug_instrumented_at == 1;
  std::printf("\nshape check (fail, dum first, flagged vars sampled on "
              "iteration 1): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
