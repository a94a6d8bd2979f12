#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "graph/betweenness.hpp"
#include "graph/bfs.hpp"
#include "graph/centrality.hpp"
#include "graph/degree_dist.hpp"
#include "graph/digraph.hpp"
#include "graph/dot_export.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/nonbacktracking.hpp"
#include "graph/ugraph.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace rca::graph {
namespace {

Digraph path_graph(std::size_t n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Digraph(n, std::move(edges));
}

/// Two 4-cliques joined by one bridge edge (3 -- 4): the canonical
/// Girvan-Newman fixture.
Digraph two_cliques_with_bridge() {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) edges.emplace_back(i, j);
  }
  for (NodeId i = 4; i < 8; ++i) {
    for (NodeId j = i + 1; j < 8; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(3, 4);
  return Digraph(8, std::move(edges));
}

/// Naive replay of one-edge-at-a-time insertion: drop self-loops, keep the
/// first occurrence of each (u, v), append to out[u] and in[v].
struct ReplayedEdges {
  std::vector<std::vector<NodeId>> out;
  std::vector<std::vector<NodeId>> in;
  std::set<std::pair<NodeId, NodeId>> kept;
};

ReplayedEdges replay_insertions(
    std::size_t n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  ReplayedEdges r{std::vector<std::vector<NodeId>>(n),
                  std::vector<std::vector<NodeId>>(n), {}};
  for (const auto& [u, v] : edges) {
    if (u == v || !r.kept.insert({u, v}).second) continue;
    r.out[u].push_back(v);
    r.in[v].push_back(u);
  }
  return r;
}

TEST(Digraph, ConstructionMatchesOneEdgeAtATimeInsertion) {
  SplitMix64 rng(2019);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.next() % 40;
    const std::size_t m = rng.next() % (4 * n);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t i = 0; i < m; ++i) {
      const auto u = static_cast<NodeId>(rng.next() % n);
      const std::uint64_t kind = rng.next() % 8;
      if (kind == 0) {
        edges.emplace_back(u, u);  // self-loop
      } else if (kind == 1 && !edges.empty()) {
        edges.push_back(edges[rng.next() % edges.size()]);  // duplicate
      } else if (kind == 2 && !edges.empty()) {
        const auto [a, b] = edges[rng.next() % edges.size()];
        edges.emplace_back(b, a);  // antiparallel
      } else {
        edges.emplace_back(u, static_cast<NodeId>(rng.next() % n));
      }
    }
    const ReplayedEdges want = replay_insertions(n, edges);
    const Digraph g(n, edges);
    ASSERT_EQ(g.node_count(), n);
    ASSERT_EQ(g.edge_count(), want.kept.size());
    for (NodeId u = 0; u < n; ++u) {
      const auto out = g.out_neighbors(u);
      const auto in = g.in_neighbors(u);
      EXPECT_EQ(std::vector<NodeId>(out.begin(), out.end()), want.out[u]);
      EXPECT_EQ(std::vector<NodeId>(in.begin(), in.end()), want.in[u]);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(g.has_edge(u, v), want.kept.count({u, v}) != 0);
      }
      EXPECT_FALSE(g.has_edge(u, static_cast<NodeId>(n)));
    }
    // One out-of-range endpoint anywhere in the list throws, even when the
    // offending edge is a self-loop or a duplicate of nothing else.
    const auto bad = static_cast<NodeId>(n + rng.next() % 3);
    auto with_bad = edges;
    with_bad.insert(with_bad.begin() + static_cast<long>(
                                           rng.next() % (edges.size() + 1)),
                    rng.next() % 2 ? std::pair<NodeId, NodeId>{bad, 0}
                                   : std::pair<NodeId, NodeId>{0, bad});
    EXPECT_THROW(Digraph(n, with_bad), Error);
    EXPECT_THROW(Digraph(n, {{bad, bad}}), Error);
  }
}

TEST(Digraph, AddEdgeDeduplicatesAndRejectsSelfLoops) {
  Digraph g(3, {{0, 1}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.out_degree(0), 1u);  // the duplicate 0 -> 1 collapsed
  EXPECT_EQ(g.out_degree(2), 0u);  // the self-loop 2 -> 2 dropped
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
}

TEST(Digraph, InAndOutAdjacencyAgree) {
  Digraph g(4, {{0, 2}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.out_degree(2), 1u);
  EXPECT_EQ(g.degree(2), 3u);
}

TEST(Digraph, ReversedSwapsDirections) {
  Digraph g(3, {{0, 1}, {1, 2}});
  Digraph r = g.reversed();
  EXPECT_TRUE(r.has_edge(1, 0));
  EXPECT_TRUE(r.has_edge(2, 1));
  EXPECT_EQ(r.edge_count(), 2u);
}

TEST(Digraph, EdgeEndpointRangeChecked) {
  EXPECT_THROW(Digraph(2, {{0, 5}}), Error);
}

TEST(InducedSubgraph, KeepsOnlyInternalEdges) {
  Digraph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<NodeId> map;
  Digraph sub = induced_subgraph(g, {1, 2, 4}, &map);
  EXPECT_EQ(sub.node_count(), 3u);
  EXPECT_EQ(sub.edge_count(), 1u);  // only 1->2 survives
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_EQ(map[0], kInvalidNode);
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[4], 2u);
}

TEST(QuotientGraph, CollapsesClassesAndDropsSelfLoops) {
  // 0,1 in class 0; 2,3 in class 1; intra-class edges vanish.
  Digraph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Digraph q = quotient_graph(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(q.node_count(), 2u);
  EXPECT_EQ(q.edge_count(), 2u);
  EXPECT_TRUE(q.has_edge(0, 1));
  EXPECT_TRUE(q.has_edge(1, 0));
}

TEST(Bfs, DistancesAlongAPath) {
  Digraph g = path_graph(5);
  auto dist = bfs_distances(g, {0});
  EXPECT_EQ(dist[4], 4u);
  auto rdist = bfs_distances_to(g, {4});
  EXPECT_EQ(rdist[0], 4u);
  EXPECT_EQ(rdist[4], 0u);
}

TEST(Bfs, AncestorsAreTheBackwardSlice) {
  // Diamond into 3 plus an unrelated node 4.
  Digraph g(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  auto anc = ancestors_of(g, {3});
  EXPECT_EQ(anc.size(), 4u);  // 0,1,2,3 — not 4
  auto desc = descendants_of(g, {0});
  EXPECT_EQ(desc.size(), 4u);
}

TEST(Bfs, ReachesAny) {
  Digraph g = path_graph(4);
  EXPECT_TRUE(reaches_any(g, 0, {3}));
  EXPECT_FALSE(reaches_any(g, 3, {0}));
}

TEST(Bfs, WeaklyConnectedComponents) {
  Digraph g(6, {{0, 1},
                {2, 1},  // weakly connects {0,1,2}
                {3, 4}});
  std::size_t count = 0;
  auto comp = weakly_connected_components(g, &count);
  EXPECT_EQ(count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(UGraph, MergesAntiparallelEdges) {
  Digraph g(3, {{0, 1}, {1, 0}, {1, 2}});
  UGraph ug(g);
  EXPECT_EQ(ug.edge_count(), 2u);
  EXPECT_EQ(ug.degree(1), 2u);
}

TEST(UGraph, RemoveEdgeUpdatesComponents) {
  Digraph g = path_graph(4);
  UGraph ug(g);
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 1u);
  ug.remove_edge(1);  // edge 1-2
  ug.components(&count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(ug.edge_count(), 2u);
}

TEST(EdgeBetweenness, PathGraphHandComputed) {
  // Path 0-1-2-3: betweenness of middle edge (1,2) counts pairs
  // {0,1}x{2,3} = 4 paths; end edges carry 3.
  Digraph g = path_graph(4);
  UGraph ug(g);
  auto bc = edge_betweenness(ug);
  ASSERT_EQ(bc.size(), 3u);
  EXPECT_DOUBLE_EQ(bc[0], 3.0);
  EXPECT_DOUBLE_EQ(bc[1], 4.0);
  EXPECT_DOUBLE_EQ(bc[2], 3.0);
}

TEST(EdgeBetweenness, BridgeDominatesCliques) {
  Digraph g = two_cliques_with_bridge();
  UGraph ug(g);
  auto bc = edge_betweenness(ug);
  // Locate the bridge by its endpoints {3, 4}.
  EdgeId bridge = kInvalidNode;
  for (EdgeId e = 0; e < ug.total_edges(); ++e) {
    if (ug.edge(e).u == 3 && ug.edge(e).v == 4) bridge = e;
  }
  ASSERT_NE(bridge, kInvalidNode);
  for (EdgeId e = 0; e < ug.total_edges(); ++e) {
    if (e != bridge) {
      EXPECT_LT(bc[e], bc[bridge]);
    }
  }
  // Bridge carries all 4x4 cross pairs.
  EXPECT_DOUBLE_EQ(bc[bridge], 16.0);
}

TEST(EdgeBetweenness, ParallelMatchesSerial) {
  SplitMix64 rng(31337);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < 150; ++i) {
    NodeId u = static_cast<NodeId>(rng.next() % 60);
    NodeId v = static_cast<NodeId>(rng.next() % 60);
    if (u != v) edges.emplace_back(u, v);
  }
  Digraph g(60, std::move(edges));
  UGraph ug(g);
  ThreadPool pool(4);
  BetweennessOptions pooled;
  pooled.pool = &pool;
  auto serial = edge_betweenness(ug);
  auto parallel = edge_betweenness(ug, pooled);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t e = 0; e < serial.size(); ++e) {
    EXPECT_NEAR(serial[e], parallel[e], 1e-9);
  }
}

TEST(GirvanNewman, SplitsTwoCliques) {
  Digraph g = two_cliques_with_bridge();
  GirvanNewmanOptions opts;
  opts.iterations = 1;
  opts.min_community_size = 3;
  auto result = girvan_newman(g, opts);
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].size(), 4u);
  EXPECT_EQ(result.communities[1].size(), 4u);
  EXPECT_EQ(result.edges_removed, 1u);  // exactly the bridge
}

TEST(GirvanNewman, MinCommunitySizeFilters) {
  // A triangle plus an isolated pair.
  Digraph g(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  GirvanNewmanOptions opts;
  opts.iterations = 0;  // just component split, no removals
  auto result = girvan_newman(g, opts);
  ASSERT_EQ(result.communities.size(), 1u);
  EXPECT_EQ(result.communities[0].size(), 3u);
  EXPECT_EQ(result.component_count, 2u);
}

TEST(GirvanNewman, SecondIterationSplitsFurther) {
  // Chain of three 4-cliques: two iterations should split twice.
  std::vector<std::pair<NodeId, NodeId>> edges;
  auto clique = [&edges](NodeId base) {
    for (NodeId i = base; i < base + 4; ++i) {
      for (NodeId j = i + 1; j < base + 4; ++j) edges.emplace_back(i, j);
    }
  };
  clique(0);
  clique(4);
  clique(8);
  edges.emplace_back(3, 4);
  edges.emplace_back(7, 8);
  Digraph g(12, std::move(edges));
  GirvanNewmanOptions opts;
  opts.iterations = 2;
  auto result = girvan_newman(g, opts);
  EXPECT_EQ(result.communities.size(), 3u);
}

TEST(EigenvectorCentrality, StarFavorsHub) {
  // Undirected-style star encoded with both directions.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 1; leaf < 5; ++leaf) {
    edges.emplace_back(0, leaf);
    edges.emplace_back(leaf, 0);
  }
  Digraph g(5, std::move(edges));
  auto c = eigenvector_centrality(g, Direction::kIn);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_GT(c[0], c[leaf]);
}

TEST(EigenvectorCentrality, CycleIsUniform) {
  Digraph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  auto c = eigenvector_centrality(g, Direction::kIn);
  for (NodeId v = 1; v < 4; ++v) EXPECT_NEAR(c[v], c[0], 1e-6);
}

TEST(EigenvectorCentrality, InCentralityRanksSinks) {
  // 0 -> 1 -> 2 and 3 -> 2: node 2 is the information sink.
  Digraph g(4, {{0, 1}, {1, 2}, {3, 2}});
  auto cin = eigenvector_centrality(g, Direction::kIn);
  EXPECT_GT(cin[2], cin[0]);
  EXPECT_GT(cin[2], cin[1]);
  auto cout = eigenvector_centrality(g, Direction::kOut);
  EXPECT_GT(cout[0], cout[2]);
}

TEST(DegreeCentrality, MatchesDegreeOverNMinusOne) {
  Digraph g(3, {{0, 2}, {1, 2}});
  auto c = degree_centrality(g, Direction::kIn);
  EXPECT_DOUBLE_EQ(c[2], 1.0);
  EXPECT_DOUBLE_EQ(c[0], 0.0);
}

TEST(PageRank, SumsToOneAndRanksSink) {
  Digraph g(4, {{0, 3}, {1, 3}, {2, 3}});
  auto pr = pagerank(g, Direction::kIn);
  double sum = 0.0;
  for (double v : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(pr[3], pr[0]);
}

TEST(KatzCentrality, UniformOnRegularGraph) {
  Digraph g(3, {{0, 1}, {1, 2}, {2, 0}});
  auto c = katz_centrality(g, Direction::kIn);
  EXPECT_NEAR(c[0], c[1], 1e-8);
  EXPECT_NEAR(c[1], c[2], 1e-8);
}

TEST(TopK, DeterministicTieBreaks) {
  std::vector<double> scores = {0.5, 0.9, 0.5, 0.1};
  auto top = top_k(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 0u);  // ties resolved by lower id
  EXPECT_EQ(top[2], 2u);
}

TEST(RankByInCentrality, MatchesInducedSubgraphCentralityTopK) {
  KissRng rng(2019);
  auto below = [&rng](std::size_t n) {
    return static_cast<NodeId>(rng.uniform() * static_cast<double>(n));
  };
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const std::size_t n = 6 + 3 * trial;
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (std::size_t e = 0; e < 2 * n; ++e) {
      edges.emplace_back(below(n), below(n));
    }
    const Digraph g(n, std::move(edges));
    // A random subset in shuffled order: positions, not ids, break ties.
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.uniform() < 0.6) nodes.push_back(v);
    }
    for (std::size_t i = nodes.size(); i > 1; --i) {
      std::swap(nodes[i - 1], nodes[below(i)]);
    }
    const std::vector<double> inline_scores =
        eigenvector_centrality(induced_subgraph(g, nodes), Direction::kIn);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, nodes.size() / 2,
                          nodes.size(), nodes.size() + 5}) {
      std::vector<double> scores = {-1.0};  // replaced, not appended to
      const std::vector<NodeId> ranked =
          rank_by_in_centrality(g, nodes, k, &scores);
      const std::vector<NodeId> local = top_k(inline_scores, k);
      ASSERT_EQ(ranked.size(), std::min(k, nodes.size()));
      ASSERT_EQ(ranked.size(), local.size());
      ASSERT_EQ(scores.size(), ranked.size());
      for (std::size_t r = 0; r < ranked.size(); ++r) {
        EXPECT_EQ(ranked[r], nodes[local[r]]) << "trial " << trial;
        EXPECT_EQ(scores[r], inline_scores[local[r]]) << "trial " << trial;
      }
      EXPECT_EQ(rank_by_in_centrality(g, nodes, k), ranked);
    }
  }
}

TEST(RankByInCentrality, TiesGoToTheLowerPosition) {
  // Every node of a directed cycle has the same in-centrality, so the
  // ranking is `nodes` in the order given; edges leaving the subset (4, 5)
  // do not count.
  const Digraph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {5, 0}});
  const std::vector<NodeId> nodes = {3, 1, 2, 0};
  std::vector<double> scores;
  EXPECT_EQ(rank_by_in_centrality(g, nodes, 4, &scores), nodes);
  ASSERT_EQ(scores.size(), 4u);
  for (double s : scores) EXPECT_EQ(s, scores[0]);
  EXPECT_EQ(rank_by_in_centrality(g, nodes, 2),
            (std::vector<NodeId>{3, 1}));
  EXPECT_TRUE(rank_by_in_centrality(g, {}, 3, &scores).empty());
  EXPECT_TRUE(scores.empty());
}

TEST(NonBacktracking, ZeroForIsolatedNodes) {
  Digraph g(4, {{0, 1}, {1, 2}, {2, 0}});
  // Node 3 isolated: excluded from the line graph.
  auto result = nonbacktracking_centrality(g, Direction::kIn);
  EXPECT_DOUBLE_EQ(result.centrality[3], 0.0);
  EXPECT_GT(result.centrality[0], 0.0);
  EXPECT_EQ(result.hashimoto_size, 3u);
}

TEST(NonBacktracking, AgreesWithEigenvectorOnSymmetricCore) {
  // On a clique (fully symmetric), both centralities are uniform over
  // members.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i != j) edges.emplace_back(i, j);
    }
  }
  Digraph g(5, std::move(edges));
  auto nbt = nonbacktracking_centrality(g, Direction::kIn);
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_NEAR(nbt.centrality[v], nbt.centrality[0], 1e-6);
  }
}

TEST(DegreeDistribution, CountsAndMoments) {
  Digraph g = path_graph(4);  // degrees 1,2,2,1
  auto dist = degree_distribution(g);
  EXPECT_EQ(dist.max_degree, 2u);
  EXPECT_DOUBLE_EQ(dist.mean_degree, 1.5);
  EXPECT_EQ(dist.count[1], 2u);
  EXPECT_EQ(dist.count[2], 2u);
}

TEST(DegreeDistribution, PowerLawExponentRecovered) {
  // Synthesize a graph whose degree sequence follows p(d) ~ d^-2.5 by
  // preferential attachment; MLE should land in a plausible band.
  SplitMix64 rng(7);
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::set<std::pair<NodeId, NodeId>> accepted;
  std::vector<NodeId> targets = {0};
  for (NodeId v = 1; v < 3000; ++v) {
    for (int e = 0; e < 2; ++e) {
      NodeId t = targets[rng.next() % targets.size()];
      if (t != v && accepted.insert({v, t}).second) {
        edges.emplace_back(v, t);
        targets.push_back(t);
        targets.push_back(v);
      }
    }
  }
  Digraph g(3000, std::move(edges));
  auto dist = degree_distribution(g, 2);
  EXPECT_GT(dist.mle_exponent, 1.8);
  EXPECT_LT(dist.mle_exponent, 3.8);
  EXPECT_GT(dist.fitted_exponent, 1.0);
}

TEST(DotExport, ContainsNodesAndEdges) {
  Digraph g(2, {{0, 1}});
  std::vector<std::string> labels = {"a", "b"};
  std::vector<NodeId> classes = {0, 1};
  std::string dot = to_dot(g, &labels, &classes, "test");
  EXPECT_NE(dot.find("digraph test"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

}  // namespace
}  // namespace rca::graph
