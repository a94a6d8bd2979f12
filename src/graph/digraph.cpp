#include "graph/digraph.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace rca::graph {

Digraph::Digraph(std::size_t n, std::vector<std::pair<NodeId, NodeId>> edges) {
  RCA_CHECK_MSG(n < kInvalidNode &&
                    edges.size() <= std::numeric_limits<std::uint32_t>::max(),
                "Digraph too large for 32-bit ids");
  // Stable counting sort of the candidate edges (self-loops never are) by
  // source: by_source lists edge indices grouped by u, input order within u.
  std::vector<std::uint32_t> start(n + 1, 0);
  for (const auto& [u, v] : edges) {
    RCA_CHECK_MSG(u < n && v < n, "edge endpoint out of range");
    if (u != v) ++start[u + 1];
  }
  for (std::size_t u = 0; u < n; ++u) start[u + 1] += start[u];
  std::vector<std::uint32_t> by_source(start[n]);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    if (u != v) by_source[cursor[u]++] = i;
  }

  // Per source, keep each target's first occurrence (stamp[v] == u marks v
  // as seen from u) and compact the kept targets in place. A rejected
  // duplicate is rewritten into a self-loop so the in-pass skips it.
  std::vector<NodeId> stamp(n, kInvalidNode);
  out_.offsets.assign(n + 1, 0);
  std::uint32_t kept = 0;
  for (NodeId u = 0; u < n; ++u) {
    out_.offsets[u] = kept;
    for (std::uint32_t k = start[u]; k < start[u + 1]; ++k) {
      NodeId& v = edges[by_source[k]].second;
      if (stamp[v] == u) {
        v = u;
        continue;
      }
      stamp[v] = u;
      by_source[kept++] = v;
    }
  }
  out_.offsets[n] = kept;
  by_source.resize(kept);
  out_.targets = std::move(by_source);

  // Stable counting sort of the accepted edges by target: in(v) lists the
  // sources in the global order of accepted edges.
  in_.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u != v) ++in_.offsets[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) in_.offsets[v + 1] += in_.offsets[v];
  in_.targets.resize(kept);
  cursor.assign(in_.offsets.begin(), in_.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u != v) in_.targets[cursor[v]++] = u;
  }
}

bool Digraph::has_edge(NodeId u, NodeId v) const {
  if (u >= node_count() || v >= node_count()) return false;
  const std::span<const NodeId> nbrs = out_neighbors(u);
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

Digraph Digraph::reversed() const {
  std::vector<std::pair<NodeId, NodeId>> rev;
  rev.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : out_neighbors(u)) rev.emplace_back(v, u);
  }
  return Digraph(node_count(), std::move(rev));
}

std::vector<std::pair<NodeId, NodeId>> Digraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : out_neighbors(u)) out.emplace_back(u, v);
  }
  return out;
}

Digraph induced_subgraph(const Digraph& g, const std::vector<NodeId>& nodes,
                         std::vector<NodeId>* old_to_new) {
  std::vector<NodeId> map(g.node_count(), kInvalidNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    RCA_CHECK_MSG(nodes[i] < g.node_count(), "subgraph node out of range");
    RCA_CHECK_MSG(map[nodes[i]] == kInvalidNode, "duplicate node in subgraph set");
    map[nodes[i]] = static_cast<NodeId>(i);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (NodeId v : g.out_neighbors(nodes[i])) {
      if (map[v] != kInvalidNode) {
        edges.emplace_back(static_cast<NodeId>(i), map[v]);
      }
    }
  }
  Digraph sub(nodes.size(), std::move(edges));
  if (old_to_new) *old_to_new = std::move(map);
  return sub;
}

Digraph quotient_graph(const Digraph& g, const std::vector<NodeId>& node_class,
                       std::size_t class_count) {
  RCA_CHECK_MSG(node_class.size() == g.node_count(),
                "node_class size mismatch");
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    RCA_CHECK_MSG(node_class[u] < class_count, "class id out of range");
    for (NodeId v : g.out_neighbors(u)) {
      // Intra-class edges become self-loops and parallel inter-class edges
      // merge, both dropped by the constructor.
      edges.emplace_back(node_class[u], node_class[v]);
    }
  }
  return Digraph(class_count, std::move(edges));
}

}  // namespace rca::graph
