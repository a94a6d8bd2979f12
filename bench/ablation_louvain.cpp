// Ablation: Girvan-Newman vs Louvain community detection in the engine.
//
// The paper uses G-N (and notes "numerous algorithms for graph partitioning
// which we could use", §6.3). G-N recomputes edge betweenness per removal —
// O(V·E) each — while Louvain is near-linear, so large slices favor it.
// This bench compares modularity, partition shape, wall time, and whether
// the refinement still localizes the AVX2 bug.
#include "bench/bench_common.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "support/stopwatch.hpp"

using namespace rca;

int main() {
  bench::banner("Ablation — Girvan-Newman vs Louvain communities",
                "same slice, both detectors: modularity, time, localization");

  engine::Pipeline gn_pipe(bench::default_config());
  engine::ExperimentOutcome gn_outcome =
      gn_pipe.run_scenario(bench::scenario("fma-contraction"));
  const graph::Digraph& sub = gn_outcome.slice.subgraph;

  // Direct comparison on the slice.
  Stopwatch sw;
  graph::GirvanNewmanOptions gn_opts;
  gn_opts.iterations = 1;
  gn_opts.min_community_size = 4;
  auto gn_result = girvan_newman(sub, gn_opts);
  const double gn_time = sw.milliseconds();

  sw.reset();
  graph::LouvainOptions lv_opts;
  lv_opts.min_community_size = 4;
  auto lv_result = louvain(sub, lv_opts);
  const double lv_time = sw.milliseconds();

  // Modularity of the G-N partition (assign each kept community an id;
  // leftovers get singleton ids).
  std::vector<graph::NodeId> gn_assign(sub.node_count());
  for (graph::NodeId v = 0; v < sub.node_count(); ++v) {
    gn_assign[v] = static_cast<graph::NodeId>(gn_result.communities.size()) +
                   v;  // default: singleton
  }
  for (std::size_t c = 0; c < gn_result.communities.size(); ++c) {
    for (graph::NodeId v : gn_result.communities[c]) {
      gn_assign[v] = static_cast<graph::NodeId>(c);
    }
  }

  Table table("Community detection on the AVX2 slice");
  table.set_header({"Method", "communities (>=4)", "largest", "modularity",
                    "time ms"});
  auto largest = [](const std::vector<std::vector<graph::NodeId>>& cs) {
    return cs.empty() ? 0 : cs.front().size();
  };
  table.add_row({"Girvan-Newman (paper)",
                 Table::integer(static_cast<long long>(
                     gn_result.communities.size())),
                 Table::integer(static_cast<long long>(
                     largest(gn_result.communities))),
                 Table::num(graph::modularity(sub, gn_assign), 4),
                 Table::num(gn_time, 1)});
  table.add_row({"Louvain",
                 Table::integer(static_cast<long long>(
                     lv_result.communities.size())),
                 Table::integer(static_cast<long long>(
                     largest(lv_result.communities))),
                 Table::num(lv_result.modularity, 4), Table::num(lv_time, 1)});
  table.print(std::cout);

  // Full engine run with Louvain.
  engine::PipelineConfig lv_config = bench::default_config();
  lv_config.refinement.community_method = engine::CommunityMethod::kLouvain;
  engine::Pipeline lv_pipe(lv_config);
  engine::ExperimentOutcome lv_outcome =
      lv_pipe.run_scenario(bench::scenario("fma-contraction"));

  std::printf("\nengine with Louvain: bug instrumented at iteration %zu "
              "(G-N: %zu)\n", lv_outcome.refinement.bug_instrumented_at,
              gn_outcome.refinement.bug_instrumented_at);

  const bool shape_holds =
      lv_result.modularity >= 0.0 &&
      model::contains_any(lv_outcome.refinement.final_nodes,
                          lv_outcome.bug_nodes) &&
      model::contains_any(gn_outcome.refinement.final_nodes,
                          gn_outcome.bug_nodes);
  std::printf("shape check (both detectors localize the bug): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
