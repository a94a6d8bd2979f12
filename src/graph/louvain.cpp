#include "graph/louvain.hpp"

#include <algorithm>
#include <numeric>

#include "graph/ugraph.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::graph {

namespace {

/// One Louvain level as a weighted undirected CSR: v's neighbours are
/// target[offsets[v] .. offsets[v+1]) with parallel `weight`s, every edge
/// listed once from each endpoint and never as a self-arc. The weight already
/// inside an aggregated node lives in `self_loop` instead. All weights are
/// sums of unit level-0 edges — integers held exactly in a double — so every
/// weight and degree sum below is exact whatever order it runs in.
struct Level {
  std::vector<std::uint32_t> offsets{0};
  std::vector<NodeId> target;
  std::vector<double> weight;
  std::vector<double> self_loop;

  std::size_t size() const { return offsets.size() - 1; }

  /// Weighted degree, self-loop counted twice (Louvain convention).
  double degree(NodeId v) const {
    double d = 2.0 * self_loop[v];
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) d += weight[i];
    return d;
  }
};

/// Level 0: the undirected view GN also uses, every edge with weight 1.
Level level_zero(const Digraph& g) {
  const UGraph ug(g);
  Level out;
  const std::size_t n = ug.node_count();
  out.offsets.reserve(n + 1);
  out.target.reserve(2 * ug.total_edges());
  for (NodeId v = 0; v < n; ++v) {
    for (const UGraph::Arc& arc : ug.incident(v)) out.target.push_back(arc.v);
    out.offsets.push_back(static_cast<std::uint32_t>(out.target.size()));
  }
  out.weight.assign(out.target.size(), 1.0);
  out.self_loop.assign(n, 0.0);
  return out;
}

/// Sums arc weights into `weight_to[community of neighbour]`, recording each
/// community's first touch so the dense array resets in O(degree). Weights
/// are positive, so 0.0 marks an untouched slot.
struct CommunityWeights {
  std::vector<double> weight_to;
  std::vector<NodeId> touched;

  explicit CommunityWeights(std::size_t count) : weight_to(count, 0.0) {}

  void add(NodeId c, double w) {
    if (weight_to[c] == 0.0) touched.push_back(c);
    weight_to[c] += w;
  }
  void clear() {
    for (NodeId c : touched) weight_to[c] = 0.0;
    touched.clear();
  }
};

/// One local-move phase over `g`, starting from `community`. Each visit
/// moves v to the neighbouring community with the largest modularity gain
/// (ties to the smallest id) when that gain beats staying by more than
/// `min_gain`; sweeps repeat until one moves nothing. Returns whether any
/// node moved.
bool local_move(const Level& g, std::vector<NodeId>* community,
                std::uint64_t seed, double min_gain) {
  const std::size_t n = g.size();
  std::vector<double> degree(n);
  double m2 = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = g.degree(v);
    m2 += degree[v];
  }
  if (m2 <= 0.0) return false;

  // Community aggregate degree.
  std::vector<double> comm_degree(n, 0.0);
  for (NodeId v = 0; v < n; ++v) comm_degree[(*community)[v]] += degree[v];

  // Deterministic shuffled order.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }

  bool any_move = false;
  bool improved = true;
  CommunityWeights acc(n);
  while (improved) {
    improved = false;
    for (NodeId v : order) {
      const NodeId old_comm = (*community)[v];
      for (std::uint32_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
        acc.add((*community)[g.target[i]], g.weight[i]);
      }
      const double k = degree[v];
      comm_degree[old_comm] -= k;

      const double stay =
          acc.weight_to[old_comm] - comm_degree[old_comm] * k / m2;
      NodeId best_comm = old_comm;
      double best_gain = 0.0;
      for (NodeId c : acc.touched) {
        if (c == old_comm) continue;
        const double gain = acc.weight_to[c] - comm_degree[c] * k / m2;
        if (best_comm == old_comm || gain > best_gain ||
            (gain == best_gain && c < best_comm)) {
          best_gain = gain;
          best_comm = c;
        }
      }
      acc.clear();
      if (best_comm != old_comm && best_gain > stay + min_gain) {
        (*community)[v] = best_comm;
        improved = true;
        any_move = true;
      } else {
        best_comm = old_comm;
      }
      comm_degree[best_comm] += k;
    }
  }
  return any_move;
}

/// Aggregates communities into super-nodes. Members are bucketed by
/// community first, so each super-node's arcs are accumulated and emitted
/// in one pass.
Level aggregate(const Level& g, const std::vector<NodeId>& community,
                std::size_t community_count) {
  const std::size_t n = g.size();
  std::vector<std::uint32_t> start(community_count + 1, 0);
  for (NodeId v = 0; v < n; ++v) ++start[community[v] + 1];
  for (std::size_t c = 0; c < community_count; ++c) start[c + 1] += start[c];
  std::vector<NodeId> members(n);
  std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
  for (NodeId v = 0; v < n; ++v) members[cursor[community[v]]++] = v;

  Level out;
  out.offsets.reserve(community_count + 1);
  out.self_loop.assign(community_count, 0.0);
  CommunityWeights acc(community_count);
  for (NodeId c = 0; c < community_count; ++c) {
    double inside = 0.0;
    for (std::uint32_t m = start[c]; m < start[c + 1]; ++m) {
      const NodeId v = members[m];
      out.self_loop[c] += g.self_loop[v];
      for (std::uint32_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
        const NodeId d = community[g.target[i]];
        if (d == c) {
          inside += g.weight[i];
        } else {
          acc.add(d, g.weight[i]);
        }
      }
    }
    out.self_loop[c] += inside / 2.0;  // each inner edge seen from both ends
    for (NodeId d : acc.touched) {
      out.target.push_back(d);
      out.weight.push_back(acc.weight_to[d]);
    }
    acc.clear();
    out.offsets.push_back(static_cast<std::uint32_t>(out.target.size()));
  }
  return out;
}

/// Renumbers ids (each < community->size()) densely in first-occurrence
/// order; returns the count.
std::size_t renumber(std::vector<NodeId>* community) {
  std::vector<NodeId> remap(community->size(), kInvalidNode);
  NodeId next = 0;
  for (NodeId& c : *community) {
    if (remap[c] == kInvalidNode) remap[c] = next++;
    c = remap[c];
  }
  return next;
}

/// Newman Q of a partition with dense ids < `count` over a level-0 graph,
/// the per-community terms summed in ascending id.
double modularity_of(const Level& g, const std::vector<NodeId>& community,
                     std::size_t count) {
  const double m2 = static_cast<double>(g.target.size());
  if (m2 <= 0.0) return 0.0;
  // `intra` counts each inner edge from both ends: intra/m2 is in/m.
  std::vector<double> intra(count, 0.0);
  std::vector<double> comm_degree(count, 0.0);
  for (NodeId v = 0; v < g.size(); ++v) {
    const NodeId c = community[v];
    comm_degree[c] += g.degree(v);
    for (std::uint32_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
      if (community[g.target[i]] == c) intra[c] += g.weight[i];
    }
  }
  double q = 0.0;
  for (std::size_t c = 0; c < count; ++c) {
    q += intra[c] / m2 - (comm_degree[c] / m2) * (comm_degree[c] / m2);
  }
  return q;
}

}  // namespace

double modularity(const Digraph& g, const std::vector<NodeId>& community) {
  RCA_CHECK_MSG(community.size() == g.node_count(), "partition size mismatch");
  std::vector<NodeId> ids = community;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<NodeId> dense(community.size());
  for (std::size_t v = 0; v < community.size(); ++v) {
    dense[v] = static_cast<NodeId>(
        std::lower_bound(ids.begin(), ids.end(), community[v]) - ids.begin());
  }
  return modularity_of(level_zero(g), dense, ids.size());
}

LouvainResult louvain(const Digraph& g, const LouvainOptions& opts) {
  obs::Span span("graph.louvain");
  span.attr("nodes", g.node_count());
  span.attr("edges", g.edge_count());
  obs::count("graph.louvain.runs");
  LouvainResult result;
  const std::size_t n = g.node_count();
  result.assignment.resize(n);
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  if (n == 0) return result;

  const Level base = level_zero(g);
  Level aggregated;
  const Level* level_graph = &base;
  // node -> community at the current level, composed down to original nodes.
  std::vector<NodeId> node_to_top(n);
  std::iota(node_to_top.begin(), node_to_top.end(), 0);

  for (std::size_t level = 0; level < opts.max_levels; ++level) {
    std::vector<NodeId> community(level_graph->size());
    std::iota(community.begin(), community.end(), 0);
    const bool moved =
        local_move(*level_graph, &community, opts.seed + level, opts.min_gain);
    if (!moved) break;
    ++result.levels;
    const std::size_t count = renumber(&community);
    for (NodeId v = 0; v < n; ++v) {
      node_to_top[v] = community[node_to_top[v]];
    }
    if (count == level_graph->size()) break;
    aggregated = aggregate(*level_graph, community, count);
    level_graph = &aggregated;
  }

  result.assignment = node_to_top;
  const std::size_t count = renumber(&result.assignment);
  result.modularity = modularity_of(base, result.assignment, count);

  // Materialize community node lists.
  std::vector<std::vector<NodeId>> buckets(count);
  for (NodeId v = 0; v < n; ++v) buckets[result.assignment[v]].push_back(v);
  for (auto& b : buckets) {
    if (b.size() >= opts.min_community_size) {
      result.communities.push_back(std::move(b));
    }
  }
  std::sort(result.communities.begin(), result.communities.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  obs::count("graph.louvain.levels", result.levels);
  span.attr("levels", result.levels);
  span.attr("communities", result.communities.size());
  span.attr("modularity", result.modularity);
  return result;
}

}  // namespace rca::graph
