// Ablation: which centrality picks the best sampling sites?
//
// The paper chooses eigenvector in-centrality ("information sinks") and
// reports that Hashimoto non-backtracking centrality adds nothing (§5.3,
// supplementary §8.1). This bench scores eigenvector, degree, PageRank,
// Katz and non-backtracking in-centralities on the AVX2 experiment by how
// many KGen-flagged MG1 variables land in each community's top-10.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/nonbacktracking.hpp"

using namespace rca;

int main() {
  bench::banner("Ablation — centrality choice for sampling-site selection",
                "paper: eigenvector in-centrality; NBT no advantage; "
                "metric = flagged MG1 variables captured in top-10");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("fma-contraction"));
  const meta::Metagraph& mg = pipe.metagraph();
  const graph::Digraph& sub = outcome.slice.subgraph;
  const auto& slice_nodes = outcome.slice.nodes;

  // Communities of the slice (as the engine would see them).
  graph::GirvanNewmanOptions gn;
  gn.iterations = 1;
  gn.min_community_size = 4;
  const auto communities = girvan_newman(sub, gn);

  const std::vector<graph::NodeId> kgen = bench::kgen_nodes(pipe);
  std::vector<bool> flagged(mg.node_count(), false);
  for (graph::NodeId b : kgen) flagged[b] = true;
  std::vector<bool> excluded(mg.node_count(), false);
  for (graph::NodeId t : outcome.slice.targets) excluded[t] = true;

  struct Scorer {
    const char* name;
    std::function<std::vector<double>(const graph::Digraph&)> score;
  };
  const std::vector<Scorer> scorers = {
      {"eigenvector (paper)",
       [](const graph::Digraph& g) {
         return eigenvector_centrality(g, graph::Direction::kIn);
       }},
      {"degree",
       [](const graph::Digraph& g) {
         return degree_centrality(g, graph::Direction::kIn);
       }},
      {"pagerank",
       [](const graph::Digraph& g) {
         return pagerank(g, graph::Direction::kIn);
       }},
      {"katz",
       [](const graph::Digraph& g) {
         return katz_centrality(g, graph::Direction::kIn);
       }},
      {"non-backtracking",
       [](const graph::Digraph& g) {
         return nonbacktracking_centrality(g, graph::Direction::kIn).centrality;
       }},
  };

  Table table("AVX2: flagged variables captured by top-10 sampling");
  table.set_header({"Centrality", "flagged captured", "dum ranked first"});
  int eigen_captured = -1;
  for (const auto& scorer : scorers) {
    std::size_t captured = 0;
    bool dum_first = false;
    for (const auto& members : communities.communities) {
      graph::Digraph comm = induced_subgraph(sub, members, nullptr);
      const auto centrality = scorer.score(comm);
      const auto ranked = graph::top_k(centrality, centrality.size());
      std::size_t taken = 0;
      bool first = true;
      for (graph::NodeId local : ranked) {
        if (taken >= 10) break;
        const graph::NodeId full = slice_nodes[members[local]];
        if (excluded[full]) continue;
        ++taken;
        if (flagged[full]) ++captured;
        if (first && mg.info(full).unique_name == "dum__micro_mg_tend") {
          dum_first = true;
        }
        first = false;
      }
    }
    if (std::string(scorer.name).find("eigen") != std::string::npos) {
      eigen_captured = static_cast<int>(captured);
    }
    table.add_row({scorer.name,
                   Table::integer(static_cast<long long>(captured)),
                   dum_first ? "yes" : "no"});
  }
  table.print(std::cout);
  std::printf("\nflagged variables in slice: %zu\n", kgen.size());

  const bool shape_holds = eigen_captured >= 2;
  std::printf("shape check (eigenvector captures flagged variables): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
