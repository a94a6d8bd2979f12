// Strongly connected components (Tarjan, iterative) and the condensation
// DAG. The CESM variable graph's cyclic cores (prognostic-state update
// loops) are exactly where eigenvector centrality mass concentrates; the
// condensation exposes them for analysis. No engine stage calls it yet:
// only the graph and property tests do.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

namespace rca::graph {

struct SccResult {
  /// Per-node component id; ids are in reverse topological order of the
  /// condensation (a property of Tarjan's algorithm).
  std::vector<NodeId> component;
  std::size_t count = 0;

  /// Node lists per component.
  std::vector<std::vector<NodeId>> members() const;
};

SccResult strongly_connected_components(const Digraph& g);

/// Condensation: one node per SCC, edges between distinct components.
Digraph condensation(const Digraph& g, const SccResult& scc);

}  // namespace rca::graph
