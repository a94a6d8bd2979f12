// Regenerates Figure 10 (supplementary): degree distribution of the
// GOFFGRATCH induced subgraph — "induced subgraphs of the CESM graph are
// also approximately scale-free".
#include "bench/bench_common.hpp"
#include "graph/degree_dist.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 10 — degree distribution of the GOFFGRATCH subgraph",
                "paper: the slice inherits the full graph's approximate "
                "power law");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("goffgratch"));

  graph::DegreeDistribution full =
      graph::degree_distribution(pipe.metagraph().graph(), 2);
  graph::DegreeDistribution sub =
      graph::degree_distribution(outcome.slice.subgraph, 2);

  std::printf("full graph:  %zu nodes, MLE exponent %.3f\n",
              pipe.metagraph().node_count(), full.mle_exponent);
  std::printf("subgraph:    %zu nodes, MLE exponent %.3f\n\n",
              outcome.slice.nodes.size(), sub.mle_exponent);

  Table table("log-binned degree distribution of the subgraph (plot series)");
  table.set_header({"degree (bin center)", "frequency"});
  for (const auto& [deg, freq] : sub.log_binned) {
    table.add_row({Table::num(deg, 2), Table::num(freq, 3)});
  }
  table.print(std::cout);

  const bool shape_holds =
      sub.mle_exponent > 1.2 && sub.mle_exponent < 5.0 &&
      sub.log_binned.size() >= 3 &&
      sub.log_binned.front().second > sub.log_binned.back().second;
  std::printf("\nshape check (decreasing, credible exponent): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
