#include "graph/nonbacktracking.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace rca::graph {

NonBacktrackingResult nonbacktracking_centrality(const Digraph& g,
                                                 Direction dir) {
  NonBacktrackingResult result;
  const std::size_t n = g.node_count();
  result.centrality.assign(n, 0.0);
  if (n == 0) return result;

  // Work on the orientation in which we walk forward; kIn reverses edges.
  const Digraph reversed = (dir == Direction::kIn) ? g.reversed() : Digraph();
  const Digraph& fg = (dir == Direction::kIn) ? reversed : g;

  // Enumerate directed edges (u -> v) with dense ids.
  struct DirEdge {
    NodeId u, v;
  };
  std::vector<DirEdge> edges;
  std::vector<std::uint32_t> first_out(n + 1, 0);  // edges grouped by source
  for (NodeId u = 0; u < n; ++u) {
    first_out[u] = static_cast<std::uint32_t>(edges.size());
    for (NodeId v : fg.out_neighbors(u)) edges.push_back(DirEdge{u, v});
  }
  first_out[n] = static_cast<std::uint32_t>(edges.size());
  const std::size_t m = edges.size();
  result.hashimoto_size = m;
  if (m == 0) return result;

  // Power iteration: y[e=(u->v)] = sum over successors (v->w), w != u of x.
  std::vector<double> x(m, 1.0 / std::sqrt(static_cast<double>(m)));
  std::vector<double> y(m, 0.0);
  std::size_t iterations = 0;
  for (std::size_t it = 0; it < kPowerIterationCap; ++it) {
    ++iterations;
    for (std::size_t e = 0; e < m; ++e) {
      const NodeId u = edges[e].u;
      const NodeId v = edges[e].v;
      double sum = 0.0;
      for (std::uint32_t f = first_out[v]; f < first_out[v + 1]; ++f) {
        if (edges[f].v != u) sum += x[f];  // non-backtracking constraint
      }
      y[e] = sum + kPowerIterationRegularization;
    }
    const double norm = std::sqrt(
        std::inner_product(y.begin(), y.end(), y.begin(), 0.0));
    if (norm <= 0.0) break;
    double diff = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      y[e] /= norm;
      diff += std::abs(y[e] - x[e]);
    }
    x.swap(y);
    if (diff < kPowerIterationTolerance * static_cast<double>(m)) break;
  }
  result.iterations = iterations;

  // c_i = sum over edges leaving i (in the walking orientation) of v_(i->q).
  for (std::size_t e = 0; e < m; ++e) {
    result.centrality[edges[e].u] += x[e];
  }
  // Normalize like the eigenvector centrality for rank comparison.
  double norm = 0.0;
  for (double c : result.centrality) norm += c * c;
  norm = std::sqrt(norm);
  if (norm > 0.0) {
    for (double& c : result.centrality) c /= norm;
  }
  return result;
}

}  // namespace rca::graph
