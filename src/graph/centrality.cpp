#include "graph/centrality.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/nonbacktracking.hpp"
#include "support/error.hpp"

namespace rca::graph {

namespace {

/// One multiply: y = M x where M is A (kOut: score flows along out-edges
/// toward the node, i.e. x[u] contributes to y[v] for edge v->u) — concretely
/// for kIn we want  y[v] = sum over in-neighbors u of x[u].
void apply(const Csr& adj, const std::vector<double>& x,
           std::vector<double>& y) {
  const std::size_t n = adj.node_count();
  for (NodeId v = 0; v < n; ++v) {
    double sum = 0.0;
    for (NodeId u : adj.neighbors(v)) sum += x[u];
    y[v] = sum;
  }
}

const Csr& gather_adjacency(const Digraph& g, Direction dir) {
  return (dir == Direction::kIn) ? g.in() : g.out();
}

double l2_norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace

std::vector<double> eigenvector_centrality(const Digraph& g, Direction dir) {
  const std::size_t n = g.node_count();
  if (n == 0) return {};
  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> y(n, 0.0);

  const Csr& adj = gather_adjacency(g, dir);
  for (std::size_t it = 0; it < kPowerIterationCap; ++it) {
    apply(adj, x, y);
    for (double& v : y) v += kPowerIterationRegularization;
    const double norm = l2_norm(y);
    if (norm <= 0.0) {
      // No edges in this direction at all: centrality undefined; return the
      // uniform vector rather than NaNs.
      return std::vector<double>(n, 1.0 / std::sqrt(static_cast<double>(n)));
    }
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] /= norm;
      diff += std::abs(y[i] - x[i]);
    }
    x.swap(y);
    if (diff < kPowerIterationTolerance * static_cast<double>(n)) break;
  }
  return x;
}

std::vector<double> degree_centrality(const Digraph& g, Direction dir) {
  const std::size_t n = g.node_count();
  std::vector<double> c(n, 0.0);
  if (n <= 1) return c;
  const double scale = 1.0 / static_cast<double>(n - 1);
  for (NodeId v = 0; v < n; ++v) {
    c[v] = scale * static_cast<double>(dir == Direction::kIn ? g.in_degree(v)
                                                             : g.out_degree(v));
  }
  return c;
}

std::vector<double> pagerank(const Digraph& g, Direction dir, double damping,
                             std::size_t max_iterations, double tolerance) {
  const std::size_t n = g.node_count();
  if (n == 0) return {};
  RCA_CHECK_MSG(damping > 0.0 && damping < 1.0, "damping must be in (0,1)");

  // For kIn we walk edges forward (mass flows u -> v), ranking nodes that
  // accumulate influence; for kOut we walk reversed edges.
  const Csr& adj = (dir == Direction::kIn) ? g.out() : g.in();
  std::vector<double> x(n, 1.0 / static_cast<double>(n)), y(n, 0.0);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    std::fill(y.begin(), y.end(), 0.0);
    double dangling = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      const auto nbrs = adj.neighbors(u);
      if (nbrs.empty()) {
        dangling += x[u];
        continue;
      }
      const double share = x[u] / static_cast<double>(nbrs.size());
      for (NodeId v : nbrs) y[v] += share;
    }
    const double base =
        (1.0 - damping + damping * dangling) / static_cast<double>(n);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = base + damping * y[i];
      diff += std::abs(y[i] - x[i]);
    }
    x.swap(y);
    if (diff < tolerance * static_cast<double>(n)) break;
  }
  return x;
}

std::vector<double> katz_centrality(const Digraph& g, Direction dir,
                                    double alpha, double beta,
                                    std::size_t max_iterations,
                                    double tolerance) {
  const std::size_t n = g.node_count();
  std::vector<double> x(n, 0.0), y(n, 0.0);
  if (n == 0) return x;
  const Csr& adj = gather_adjacency(g, dir);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    apply(adj, x, y);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = alpha * y[i] + beta;
      diff += std::abs(y[i] - x[i]);
    }
    x.swap(y);
    if (diff < tolerance * static_cast<double>(std::max<std::size_t>(n, 1))) {
      break;
    }
  }
  const double norm = l2_norm(x);
  if (norm > 0.0) {
    for (double& v : x) v /= norm;
  }
  return x;
}

std::vector<double> closeness_centrality(const Digraph& g, Direction dir) {
  const std::size_t n = g.node_count();
  std::vector<double> c(n, 0.0);
  if (n <= 1) return c;
  const Csr& adj = gather_adjacency(g, dir);
  std::vector<std::uint32_t> dist(n);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    // BFS from s along the chosen direction; distance to s along in-edges
    // equals distance from s in the reversed graph.
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<std::uint32_t>::max());
    dist[s] = 0;
    queue.clear();
    queue.push_back(s);
    std::size_t head = 0;
    double total = 0.0;
    std::size_t reached = 0;
    while (head < queue.size()) {
      const NodeId u = queue[head++];
      for (NodeId v : adj.neighbors(u)) {
        if (dist[v] == std::numeric_limits<std::uint32_t>::max()) {
          dist[v] = dist[u] + 1;
          total += dist[v];
          ++reached;
          queue.push_back(v);
        }
      }
    }
    if (reached > 0 && total > 0.0) {
      // Wasserman-Faust: scale by the reachable fraction.
      const double r = static_cast<double>(reached);
      c[s] = (r / static_cast<double>(n - 1)) * (r / total);
    }
  }
  return c;
}

std::vector<NodeId> top_k(const std::vector<double>& scores, std::size_t k) {
  std::vector<NodeId> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

std::vector<NodeId> rank_by_in_centrality(const Digraph& g,
                                          const std::vector<NodeId>& nodes,
                                          std::size_t k,
                                          std::vector<double>* scores) {
  const std::vector<double> centrality =
      eigenvector_centrality(induced_subgraph(g, nodes), Direction::kIn);
  std::vector<NodeId> ranked = top_k(centrality, k);
  if (scores != nullptr) scores->clear();
  for (NodeId& local : ranked) {
    if (scores != nullptr) scores->push_back(centrality[local]);
    local = nodes[local];
  }
  return ranked;
}

std::optional<NamedScores> rank_by_kind(
    const std::string& kind, const Digraph& g,
    const std::function<std::string(NodeId)>& node_name,
    const std::vector<NodeId>* node_class,
    const std::vector<std::string>& class_names,
    const BetweennessOptions& betweenness) {
  const Digraph quotient =
      node_class != nullptr
          ? quotient_graph(g, *node_class, class_names.size())
          : Digraph();
  const Digraph& r = node_class != nullptr ? quotient : g;
  NamedScores out;
  if (node_class != nullptr) {
    out.names = class_names;
  } else {
    out.names.reserve(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      out.names.push_back(node_name(v));
    }
  }

  if (kind == "eigenvector") {
    out.scores = eigenvector_centrality(r, Direction::kIn);
  } else if (kind == "degree") {
    out.scores = degree_centrality(r, Direction::kIn);
  } else if (kind == "pagerank") {
    out.scores = pagerank(r, Direction::kIn);
  } else if (kind == "katz") {
    out.scores = katz_centrality(r, Direction::kIn);
  } else if (kind == "closeness") {
    out.scores = closeness_centrality(r, Direction::kIn);
  } else if (kind == "nonbacktracking") {
    out.scores = nonbacktracking_centrality(r, Direction::kIn).centrality;
  } else if (kind == "betweenness") {
    out.scores = node_betweenness(r, betweenness);
  } else if (kind == "inout-eigenvector") {
    const auto cin = eigenvector_centrality(r, Direction::kIn);
    const auto cout = eigenvector_centrality(r, Direction::kOut);
    out.scores.resize(cin.size());
    for (std::size_t i = 0; i < cin.size(); ++i) {
      out.scores[i] = cin[i] + cout[i];
    }
  } else {
    return std::nullopt;
  }
  return out;
}

}  // namespace rca::graph
