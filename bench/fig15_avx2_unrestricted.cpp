// Regenerates Figure 15 (supplementary): the AVX2 experiment WITHOUT the
// CAM-module restriction — land-side nodes admitted.
//
// Paper narrative: the unrestricted subgraph is larger (7,796 nodes / 16,532
// edges vs 4,159 / 9,028) but manifests the same CAM-core community, and the
// most central nodes of that community match the restricted run's — the
// restriction only saves iterations.
#include <algorithm>

#include "bench/bench_common.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 15 — AVX2 without the CAM restriction",
                "paper: larger slice, same central nodes after one extra "
                "iteration");

  // Restricted run.
  engine::Pipeline restricted_pipe(bench::default_config());
  engine::ExperimentOutcome restricted =
      restricted_pipe.run_scenario(bench::scenario("fma-contraction"));

  // Unrestricted run.
  engine::PipelineConfig config = bench::default_config();
  config.restrict_to_cam = false;
  engine::Pipeline pipe(config);
  engine::ExperimentOutcome unrestricted =
      pipe.run_scenario(bench::scenario("fma-contraction"));
  const meta::Metagraph& mg = pipe.metagraph();

  std::printf("restricted subgraph:   %zu nodes / %zu edges "
              "(paper: 4,159 / 9,028)\n",
              restricted.slice.nodes.size(),
              restricted.slice.subgraph.edge_count());
  std::printf("unrestricted subgraph: %zu nodes / %zu edges "
              "(paper: 7,796 / 16,532)\n\n",
              unrestricted.slice.nodes.size(),
              unrestricted.slice.subgraph.edge_count());

  bench::print_refinement_trace(mg, unrestricted.refinement, 15);

  // Compare the physics-community central node names across the two runs.
  auto top_names = [](const engine::Pipeline& p,
                      const engine::ExperimentOutcome& o) {
    std::vector<std::string> names;
    if (o.refinement.iterations.empty()) return names;
    for (const auto& comm : o.refinement.iterations[0].communities) {
      for (graph::NodeId v : comm.sampled) {
        if (p.metagraph().info(v).module == "micro_mg") {
          names.push_back(p.metagraph().info(v).unique_name);
        }
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto restricted_names = top_names(restricted_pipe, restricted);
  const auto unrestricted_names = top_names(pipe, unrestricted);
  std::size_t overlap = 0;
  for (const auto& n : restricted_names) {
    if (std::find(unrestricted_names.begin(), unrestricted_names.end(), n) !=
        unrestricted_names.end()) {
      ++overlap;
    }
  }
  std::printf("\nMG1 central nodes — restricted: %zu, unrestricted: %zu, "
              "overlap: %zu\n", restricted_names.size(),
              unrestricted_names.size(), overlap);

  const bool shape_holds =
      unrestricted.slice.nodes.size() > restricted.slice.nodes.size() &&
      !restricted_names.empty() &&
      overlap * 2 >= restricted_names.size() &&
      model::contains_any(unrestricted.refinement.final_nodes,
                          unrestricted.bug_nodes);
  std::printf("shape check (larger slice, same MG1 central nodes, bug "
              "retained): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
