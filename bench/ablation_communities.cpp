// Ablation: community detection vs whole-subgraph centrality sampling.
//
// Paper §6.2: "If we were to sample the most central nodes of the entire
// subgraph ... we would be concentrating on the centrality-dominant blue
// community, and it could take many iterations ... to reach nodes in the
// green community." This bench quantifies that on RAND-MT: with G-N
// communities the PRNG cluster gets its own sampling budget; without (one
// community = whole slice), the sampled sites all come from the dominant
// core and sit farther from the bug.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

namespace {

/// Mean undirected hop distance from each bug node to the nearest sampled
/// site within the slice subgraph.
double mean_distance_to_samples(const graph::Digraph& sub,
                                const std::vector<graph::NodeId>& slice_nodes,
                                const std::vector<graph::NodeId>& sampled,
                                const std::vector<graph::NodeId>& bugs) {
  // Undirected distances: run BFS on a symmetrized copy.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> both_ways;
  for (const auto& [u, v] : sub.edges()) {
    both_ways.emplace_back(u, v);
    both_ways.emplace_back(v, u);
  }
  const graph::Digraph undirected(sub.node_count(), std::move(both_ways));
  std::vector<graph::NodeId> to_local(slice_nodes.size());
  std::vector<graph::NodeId> sampled_local;
  std::vector<graph::NodeId> bug_local;
  for (std::size_t i = 0; i < slice_nodes.size(); ++i) {
    for (graph::NodeId s : sampled) {
      if (slice_nodes[i] == s) sampled_local.push_back(static_cast<graph::NodeId>(i));
    }
    for (graph::NodeId b : bugs) {
      if (slice_nodes[i] == b) bug_local.push_back(static_cast<graph::NodeId>(i));
    }
  }
  if (bug_local.empty() || sampled_local.empty()) return -1.0;
  const auto dist = graph::bfs_distances(undirected, sampled_local);
  double total = 0.0;
  std::size_t counted = 0;
  for (graph::NodeId b : bug_local) {
    if (dist[b] != graph::kUnreached) {
      total += dist[b];
      ++counted;
    }
  }
  return counted ? total / static_cast<double>(counted) : -1.0;
}

std::vector<graph::NodeId> all_sampled(const engine::RefinementResult& r) {
  std::vector<graph::NodeId> out;
  if (r.iterations.empty()) return out;
  for (const auto& comm : r.iterations[0].communities) {
    out.insert(out.end(), comm.sampled.begin(), comm.sampled.end());
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation — community detection vs whole-subgraph sampling",
                "paper §6.2: communities keep sampling budget near small "
                "clusters; whole-graph sampling concentrates on the dominant "
                "core");

  // With communities (paper default).
  engine::Pipeline with_pipe(bench::default_config());
  engine::ExperimentOutcome with_comm =
      with_pipe.run_scenario(bench::scenario("prng"));

  // Without: zero G-N iterations => weakly connected components only, i.e.
  // effectively the whole subgraph as one community.
  engine::PipelineConfig config = bench::default_config();
  config.refinement.gn_iterations = 0;
  config.refinement.samples_per_community = 20;  // same total budget
  engine::Pipeline without_pipe(config);
  engine::ExperimentOutcome without_comm =
      without_pipe.run_scenario(bench::scenario("prng"));

  const double dist_with = mean_distance_to_samples(
      with_comm.slice.subgraph, with_comm.slice.nodes,
      all_sampled(with_comm.refinement), with_comm.bug_nodes);
  const double dist_without = mean_distance_to_samples(
      without_comm.slice.subgraph, without_comm.slice.nodes,
      all_sampled(without_comm.refinement), without_comm.bug_nodes);

  Table table("RAND-MT sampling-site quality");
  table.set_header({"Variant", "communities", "iterations run",
                    "first detection", "mean hops bug->nearest site"});
  auto row = [&](const char* name, const engine::ExperimentOutcome& o,
                 double dist) {
    table.add_row(
        {name,
         Table::integer(o.refinement.iterations.empty()
                            ? 0
                            : static_cast<long long>(
                                  o.refinement.iterations[0].communities.size())),
         Table::integer(static_cast<long long>(o.refinement.iterations.size())),
         o.refinement.first_detection_at
             ? Table::integer(static_cast<long long>(
                   o.refinement.first_detection_at))
             : "never",
         dist < 0 ? "n/a" : Table::num(dist, 2)});
  };
  row("Girvan-Newman communities (paper)", with_comm, dist_with);
  row("whole subgraph, same budget", without_comm, dist_without);
  table.print(std::cout);

  const bool shape_holds =
      with_comm.refinement.first_detection_at > 0 &&
      (dist_without < 0 || dist_with <= dist_without);
  std::printf("\nshape check (community sampling at least as close to the "
              "bug): %s\n", shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
