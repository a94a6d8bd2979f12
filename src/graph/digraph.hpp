// Compact, immutable directed-graph container used for the CESM variable
// graph.
//
// Nodes are dense 32-bit ids; all labels/metadata live in the Metagraph layer
// (src/meta), keeping this container cache-friendly (Core Guidelines Per.16:
// compact data structures). The paper builds the variable digraph once from
// the parsed source (§4) and afterwards only reads it (§5), so a Digraph is
// constructed once from an edge list and never mutated. It stores exactly
// two compressed-sparse-row arrays — out- and in-adjacency — so the backward
// slicer (reverse BFS) and in-centrality need no transposition pass, and the
// hot kernels (Brandes betweenness, BFS, power iteration) stream one flat
// array instead of chasing per-node vectors.
//
// Neighbor order is an invariant the kernels rely on: out(u) lists u's
// targets in first-occurrence order of the construction edge list, and
// in(v) lists v's sources in the global order of accepted edges. Kernels
// therefore visit nodes in the same order as the historic adjacency-list
// code paths and produce bit-identical floating-point results (pinned by
// tests/betweenness_csr_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace rca::graph {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One direction of adjacency in CSR form: neighbors of u are
/// targets[offsets[u] .. offsets[u+1]).
struct Csr {
  std::vector<std::uint32_t> offsets;  // node_count + 1 entries
  std::vector<NodeId> targets;

  std::size_t node_count() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const NodeId> neighbors(NodeId u) const {
    return {targets.data() + offsets[u], targets.data() + offsets[u + 1]};
  }
  std::size_t degree(NodeId u) const { return offsets[u + 1] - offsets[u]; }
};

class Digraph {
 public:
  Digraph() = default;

  /// Graph on `n` nodes with the given edges, built in one O(V+E) pass.
  /// Self-loops are dropped (a variable assigned from itself adds no
  /// dependency information) and parallel edges collapse onto their first
  /// occurrence. An endpoint >= n fails RCA_CHECK.
  explicit Digraph(std::size_t n,
                   std::vector<std::pair<NodeId, NodeId>> edges = {});

  /// Linear scan of out(u); false for out-of-range endpoints.
  bool has_edge(NodeId u, NodeId v) const;

  std::size_t node_count() const { return out_.node_count(); }
  std::size_t edge_count() const { return out_.targets.size(); }

  const Csr& out() const { return out_; }
  const Csr& in() const { return in_; }

  std::span<const NodeId> out_neighbors(NodeId u) const {
    return out_.neighbors(u);
  }
  std::span<const NodeId> in_neighbors(NodeId u) const {
    return in_.neighbors(u);
  }

  std::size_t out_degree(NodeId u) const { return out_.degree(u); }
  std::size_t in_degree(NodeId u) const { return in_.degree(u); }
  /// Total degree in the undirected (weakly connected) view; a node with
  /// both u->v and v->u counts that neighbor twice here, matching the
  /// digraph's edge multiset.
  std::size_t degree(NodeId u) const { return out_degree(u) + in_degree(u); }

  /// Graph with every edge reversed (used for in-centralities).
  Digraph reversed() const;

  /// All edges as (u, v) pairs, ordered by u then out(u) order.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  Csr out_;
  Csr in_;
};

/// Induced subgraph on `nodes` (order defines new ids). Returns the new graph
/// and fills `old_to_new` (size = g.node_count(), kInvalidNode when absent).
Digraph induced_subgraph(const Digraph& g, const std::vector<NodeId>& nodes,
                         std::vector<NodeId>* old_to_new = nullptr);

/// Quotient graph (graph minor) under the equivalence classes in
/// `node_class` (size = g.node_count(); class ids must be dense 0..k-1).
/// Self-loops produced by intra-class edges are dropped; parallel inter-class
/// edges are merged. This is the paper's §6.5 module-collapse operation.
Digraph quotient_graph(const Digraph& g, const std::vector<NodeId>& node_class,
                       std::size_t class_count);

}  // namespace rca::graph
