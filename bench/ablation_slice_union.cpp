// Ablation: union vs intersection of per-target ancestor sets.
//
// Paper §5.1: "We are interested in the union rather than the intersection
// as multiple disjoint code sections can be involved in the computation of
// an affected variable." This bench compares both on the GOFFGRATCH
// criteria: the intersection can lose the bug when criteria have disjoint
// ancestries; the union never does (slicer soundness).
#include <algorithm>

#include "bench/bench_common.hpp"
#include "graph/bfs.hpp"

using namespace rca;

int main() {
  bench::banner("Ablation — union vs intersection slicing",
                "paper §5.1: the union keeps disjoint contributing code "
                "sections; intersection can drop the bug");

  engine::Pipeline pipe(bench::default_config());
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(bench::scenario("goffgratch"));
  const meta::Metagraph& mg = pipe.metagraph();

  // Per-target ancestor sets.
  std::vector<std::vector<graph::NodeId>> per_target;
  for (graph::NodeId t : outcome.slice.targets) {
    per_target.push_back(graph::ancestors_of(mg.graph(), {t}));
  }

  // Union and intersection.
  std::vector<std::size_t> count(mg.node_count(), 0);
  for (const auto& set : per_target) {
    for (graph::NodeId v : set) ++count[v];
  }
  std::vector<graph::NodeId> union_set, intersection_set;
  for (graph::NodeId v = 0; v < mg.node_count(); ++v) {
    if (count[v] > 0) union_set.push_back(v);
    if (count[v] == per_target.size()) intersection_set.push_back(v);
  }

  const bool union_has_bug = model::contains_any(union_set, outcome.bug_nodes);
  const bool inter_has_bug =
      model::contains_any(intersection_set, outcome.bug_nodes);

  Table table("GOFFGRATCH slice variants");
  table.set_header({"Variant", "nodes", "contains bug"});
  table.add_row({"union of shortest-path node sets (paper)",
                 Table::integer(static_cast<long long>(union_set.size())),
                 union_has_bug ? "yes" : "NO"});
  table.add_row({"intersection",
                 Table::integer(static_cast<long long>(intersection_set.size())),
                 inter_has_bug ? "yes" : "NO"});
  table.print(std::cout);

  // Also demonstrate on WSUBBUG + GOFFGRATCH criteria combined, where the
  // ancestries are fully disjoint and the intersection collapses.
  engine::ExperimentOutcome wsub =
      pipe.run_scenario(bench::scenario("wsub"));
  std::vector<graph::NodeId> combined_targets = outcome.slice.targets;
  combined_targets.insert(combined_targets.end(), wsub.slice.targets.begin(),
                          wsub.slice.targets.end());
  std::vector<std::size_t> count2(mg.node_count(), 0);
  for (graph::NodeId t : combined_targets) {
    for (graph::NodeId v : graph::ancestors_of(mg.graph(), {t})) ++count2[v];
  }
  std::size_t inter2 = 0;
  for (graph::NodeId v = 0; v < mg.node_count(); ++v) {
    if (count2[v] == combined_targets.size()) ++inter2;
  }
  std::printf("\ndisjoint-criteria check (GOFFGRATCH + WSUBBUG targets): "
              "intersection has %zu nodes (union keeps both ancestries)\n",
              inter2);

  const bool shape_holds = union_has_bug && union_set.size() >
                           intersection_set.size();
  std::printf("shape check (union sound and strictly larger): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
