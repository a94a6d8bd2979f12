#include "graph/bfs.hpp"

#include <algorithm>
#include <deque>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::graph {

namespace {

std::vector<std::uint32_t> bfs_impl(const Csr& adj,
                                    const std::vector<NodeId>& starts) {
  const std::size_t n = adj.node_count();
  std::vector<std::uint32_t> dist(n, kUnreached);
  std::deque<NodeId> queue;
  for (NodeId s : starts) {
    RCA_CHECK_MSG(s < n, "BFS start node out of range");
    if (dist[s] != 0) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : adj.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  if (obs::global().enabled()) {
    // Reconstruct per-level frontier sizes from the distance array; only
    // paid for when the metrics sink is live.
    std::vector<std::uint32_t> level_counts;
    std::uint32_t reached = 0;
    for (std::uint32_t d : dist) {
      if (d == kUnreached) continue;
      ++reached;
      if (level_counts.size() <= d) level_counts.resize(d + 1, 0);
      ++level_counts[d];
    }
    obs::count("graph.bfs.runs");
    obs::observe("graph.bfs.reached_nodes", static_cast<double>(reached));
    for (std::uint32_t frontier : level_counts) {
      obs::observe("graph.bfs.frontier_size", static_cast<double>(frontier));
    }
  }
  return dist;
}

std::vector<NodeId> reached_nodes(const std::vector<std::uint32_t>& dist) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < dist.size(); ++v) {
    if (dist[v] != kUnreached) out.push_back(v);
  }
  return out;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Digraph& g,
                                         const std::vector<NodeId>& sources) {
  return bfs_impl(g.out(), sources);
}

std::vector<std::uint32_t> bfs_distances_to(const Digraph& g,
                                            const std::vector<NodeId>& targets) {
  return bfs_impl(g.in(), targets);
}

std::vector<NodeId> ancestors_of(const Digraph& g,
                                 const std::vector<NodeId>& targets) {
  return reached_nodes(bfs_distances_to(g, targets));
}

std::vector<NodeId> descendants_of(const Digraph& g,
                                   const std::vector<NodeId>& sources) {
  return reached_nodes(bfs_distances(g, sources));
}

bool reaches_any(const Digraph& g, NodeId from, const std::vector<NodeId>& to) {
  std::vector<bool> is_target(g.node_count(), false);
  for (NodeId t : to) is_target[t] = true;
  auto dist = bfs_distances(g, {from});
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (is_target[v] && dist[v] != kUnreached) return true;
  }
  return false;
}

std::vector<NodeId> weakly_connected_components(const Digraph& g,
                                                std::size_t* component_count) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> comp(n, kInvalidNode);
  NodeId next_id = 0;
  std::deque<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    if (comp[s] != kInvalidNode) continue;
    comp[s] = next_id;
    queue.push_back(s);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId v) {
        if (comp[v] == kInvalidNode) {
          comp[v] = next_id;
          queue.push_back(v);
        }
      };
      for (NodeId v : g.out_neighbors(u)) visit(v);
      for (NodeId v : g.in_neighbors(u)) visit(v);
    }
    ++next_id;
  }
  if (component_count) *component_count = next_id;
  return comp;
}

}  // namespace rca::graph
