// Regenerates Figure 11 (supplementary): Hashimoto non-backtracking
// centrality vs eigenvector centrality on the GOFFGRATCH subgraph,
// log-rank vs log-|centrality|.
//
// Paper narrative: the non-backtracking curve redistributes weight away from
// hubs but the effect is subtle until deep in the ranking, and the NBT curve
// drops sharply at its tail because nodes absent from the line graph get no
// rank. Conclusion: "no advantage over standard eigenvector centrality" for
// these graphs.
#include <algorithm>
#include <cmath>

#include "bench/bench_common.hpp"
#include "graph/centrality.hpp"
#include "graph/nonbacktracking.hpp"

using namespace rca;

int main() {
  bench::banner("Figure 11 — Hashimoto vs eigenvector centrality",
                "paper: curves nearly coincide; NBT tail drops (line-graph "
                "exclusion)");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("goffgratch"));
  const graph::Digraph& sub = outcome.slice.subgraph;

  const auto eig = eigenvector_centrality(sub, graph::Direction::kIn);
  const auto nbt = nonbacktracking_centrality(sub, graph::Direction::kIn);

  auto sorted_desc = [](std::vector<double> v) {
    std::sort(v.rbegin(), v.rend());
    return v;
  };
  const auto eig_sorted = sorted_desc(eig);
  const auto nbt_sorted = sorted_desc(nbt.centrality);

  std::printf("subgraph: %zu nodes / %zu edges; Hashimoto matrix size: %zu "
              "directed edges\n\n",
              sub.node_count(), sub.edge_count(), nbt.hashimoto_size);

  Table table("rank vs |centrality| (log-log plot series)");
  table.set_header({"rank", "eigenvector", "non-backtracking"});
  for (std::size_t r = 1; r <= eig_sorted.size(); r = r < 10 ? r + 1 : r * 5 / 4) {
    table.add_row({Table::integer(static_cast<long long>(r)),
                   Table::num(eig_sorted[r - 1], 6),
                   Table::num(nbt_sorted[r - 1], 6)});
  }
  table.print(std::cout);

  // Count NBT zeros (the sharp drop at the end of the paper's curve).
  std::size_t nbt_zero = 0;
  for (double c : nbt.centrality) {
    if (c == 0.0) ++nbt_zero;
  }
  std::printf("\nnodes with zero NBT centrality (excluded from the line "
              "graph): %zu of %zu\n", nbt_zero, nbt.centrality.size());

  // Rank agreement in the head: Spearman-ish overlap of the top 20.
  const auto top_eig = graph::top_k(eig, 20);
  const auto top_nbt = graph::top_k(nbt.centrality, 20);
  std::size_t overlap = 0;
  for (graph::NodeId a : top_eig) {
    if (std::find(top_nbt.begin(), top_nbt.end(), a) != top_nbt.end()) {
      ++overlap;
    }
  }
  std::printf("top-20 overlap between the two rankings: %zu/20\n", overlap);

  const bool shape_holds = overlap >= 12 && nbt_zero > 0;
  std::printf("\nshape check (rankings nearly coincide; NBT tail drops): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
