// Tests for the extended graph algorithms: Louvain/modularity, strongly
// connected components, closeness centrality.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "graph/scc.hpp"
#include "support/rng.hpp"

namespace rca::graph {
namespace {

std::vector<std::pair<NodeId, NodeId>> two_cliques_with_bridge_edges() {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) edges.emplace_back(i, j);
  }
  for (NodeId i = 4; i < 8; ++i) {
    for (NodeId j = i + 1; j < 8; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(3, 4);
  return edges;
}

Digraph two_cliques_with_bridge() {
  return Digraph(8, two_cliques_with_bridge_edges());
}

TEST(Modularity, PerfectSplitBeatsTrivialPartitions) {
  Digraph g = two_cliques_with_bridge();
  const std::vector<NodeId> split = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<NodeId> all_one(8, 0);
  std::vector<NodeId> singletons(8);
  for (NodeId v = 0; v < 8; ++v) singletons[v] = v;

  const double q_split = modularity(g, split);
  EXPECT_GT(q_split, modularity(g, all_one));
  EXPECT_GT(q_split, modularity(g, singletons));
  EXPECT_NEAR(modularity(g, all_one), 0.0, 1e-12);
  EXPECT_GT(q_split, 0.3);
}

TEST(Louvain, RecoversTwoCliques) {
  Digraph g = two_cliques_with_bridge();
  LouvainResult result = louvain(g);
  ASSERT_EQ(result.communities.size(), 2u);
  EXPECT_EQ(result.communities[0].size(), 4u);
  EXPECT_EQ(result.communities[1].size(), 4u);
  // Each clique stays together.
  for (NodeId v = 1; v < 4; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[0]);
  }
  for (NodeId v = 5; v < 8; ++v) {
    EXPECT_EQ(result.assignment[v], result.assignment[4]);
  }
  EXPECT_NE(result.assignment[0], result.assignment[4]);
  EXPECT_GT(result.modularity, 0.3);
}

TEST(Louvain, DeterministicPerSeed) {
  SplitMix64 rng(55);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int e = 0; e < 200; ++e) {
    edges.emplace_back(static_cast<NodeId>(rng.next() % 80),
                       static_cast<NodeId>(rng.next() % 80));
  }
  Digraph g(80, std::move(edges));
  LouvainResult a = louvain(g);
  LouvainResult b = louvain(g);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.modularity, b.modularity);
}

TEST(Louvain, EmptyAndSingletonGraphs) {
  Digraph empty;
  EXPECT_TRUE(louvain(empty).communities.empty());
  Digraph one(1);
  LouvainResult r = louvain(one);
  EXPECT_EQ(r.assignment.size(), 1u);
}

TEST(Louvain, MinCommunitySizeFilters) {
  auto edges = two_cliques_with_bridge_edges();
  edges.emplace_back(8, 9);  // isolated pair
  Digraph g(10, std::move(edges));
  LouvainOptions opts;
  opts.min_community_size = 3;
  LouvainResult r = louvain(g, opts);
  for (const auto& c : r.communities) EXPECT_GE(c.size(), 3u);
}

TEST(Scc, DagIsAllSingletons) {
  Digraph g(4, {{0, 1}, {1, 2}, {2, 3}});
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 4u);
}

TEST(Scc, CycleCollapsesToOneComponent) {
  Digraph g(5, {{0, 1},
                {1, 2},
                {2, 0},  // 3-cycle
                {2, 3},
                {3, 4}});
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);  // {0,1,2}, {3}, {4}
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_NE(scc.component[0], scc.component[3]);

  auto members = scc.members();
  std::size_t total = 0;
  for (const auto& m : members) total += m.size();
  EXPECT_EQ(total, 5u);
}

TEST(Scc, CondensationIsAcyclic) {
  // Two cycles joined by an edge.
  Digraph g(6, {{0, 1},
                {1, 0},
                {2, 3},
                {3, 4},
                {4, 2},
                {1, 2}});  // cycle A -> cycle B
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 3u);  // {0,1}, {2,3,4}, {5}
  Digraph cond = condensation(g, scc);
  EXPECT_EQ(cond.node_count(), 3u);
  EXPECT_EQ(cond.edge_count(), 1u);
  // A DAG's SCCs are singletons.
  SccResult check = strongly_connected_components(cond);
  EXPECT_EQ(check.count, cond.node_count());
}

TEST(Scc, DeepChainDoesNotOverflow) {
  // 200k-node chain: a recursive Tarjan would blow the stack.
  const std::size_t n = 200000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  Digraph g(n, std::move(edges));
  SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, n);
}

TEST(Closeness, CenterOfStarIsMostCentral) {
  // Star with edges into the hub: hub has max in-closeness.
  Digraph g(5, {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  auto c = closeness_centrality(g, Direction::kIn);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_GT(c[0], c[leaf]);
}

TEST(Closeness, PathGraphOrdering) {
  // 0 -> 1 -> 2: node 2 reaches everything along in-edges.
  Digraph g(3, {{0, 1}, {1, 2}});
  auto cin = closeness_centrality(g, Direction::kIn);
  EXPECT_GT(cin[2], cin[1]);
  EXPECT_GT(cin[1], cin[0]);
  EXPECT_DOUBLE_EQ(cin[0], 0.0);  // nothing flows into node 0
  auto cout = closeness_centrality(g, Direction::kOut);
  EXPECT_GT(cout[0], cout[2]);
}

TEST(Closeness, DisconnectedGraphStaysFinite) {
  Digraph g(4, {{0, 1}, {2, 3}});
  auto c = closeness_centrality(g, Direction::kIn);
  for (double v : c) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// UGraph assigns its own edge ids (by adjacency order, not digraph
// insertion order), so tests locate edges by their endpoints.
EdgeId edge_between(const UGraph& ug, NodeId u, NodeId v) {
  for (EdgeId e = 0; e < ug.total_edges(); ++e) {
    const auto& ed = ug.edge(e);
    if ((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u)) return e;
  }
  ADD_FAILURE() << "no edge " << u << "-" << v;
  return 0;
}

// Regression tests for the girvan_newman_step live-edge index: removal
// counts per step are pinned exactly, so a scan that revisits removed edges
// (or loses the lowest-id tie-break) changes these numbers.
TEST(GirvanNewmanStep, BridgeBetweenTrianglesGoesFirst) {
  Digraph g(6, {{0, 1},
                {0, 2},
                {1, 2},
                {3, 4},
                {3, 5},
                {4, 5},
                {2, 3}});  // bridge: the unique max-betweenness edge
  UGraph ug(g);
  EXPECT_EQ(girvan_newman_step(ug), 1u);
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(ug.is_removed(edge_between(ug, 2, 3)));
}

TEST(GirvanNewmanStep, SixCycleNeedsExactlyTwoRemovals) {
  // All six edges tie on betweenness, so the lowest id (0-1) goes first.
  // That leaves the path 1-2-3-4-5-0, whose middle edge (3-4, id 3) is the
  // next unique maximum; removing it splits the graph and ends the step.
  Digraph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  UGraph ug(g);
  EXPECT_EQ(girvan_newman_step(ug), 2u);
  EXPECT_TRUE(ug.is_removed(0));
  EXPECT_TRUE(ug.is_removed(3));
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
}

TEST(GirvanNewmanStep, SkipsEdgesRemovedBeforeTheStep) {
  // Pre-removing the bridge must keep it out of the live scan: the step then
  // splits one triangle (lowest-id edge, then one of the tied remainder).
  Digraph g(6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}});
  UGraph ug(g);
  ug.remove_edge(edge_between(ug, 2, 3));  // the bridge
  EXPECT_EQ(girvan_newman_step(ug), 2u);
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 3u);
}

TEST(GirvanNewmanStep, RepeatedStepsKeepPeelingDeterministically) {
  Digraph g = two_cliques_with_bridge();
  UGraph ug(g);
  const std::size_t first = girvan_newman_step(ug);
  EXPECT_EQ(first, 1u);  // the bridge
  std::size_t count = 0;
  ug.components(&count);
  EXPECT_EQ(count, 2u);
  // A second step must make progress on the surviving cliques and produce
  // the same counts every run.
  UGraph replay(g);
  girvan_newman_step(replay);
  const std::size_t second = girvan_newman_step(ug);
  EXPECT_EQ(second, girvan_newman_step(replay));
  EXPECT_GE(second, 1u);
}

}  // namespace
}  // namespace rca::graph
