// Differential test for graph::louvain: a naive reference of the same rule,
// written with ordered containers (std::map accumulators, candidates scanned
// in ascending community id, the modularity sum in ascending id), must agree
// with the flat-array implementation exactly — partition, levels, community
// lists and the modularity bits. Because the move rule picks the best gain
// with ties to the smallest id, neither side's result may depend on hash or
// insertion order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/louvain.hpp"
#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "model/model.hpp"
#include "support/rng.hpp"

namespace rca {
namespace {

using graph::Digraph;
using graph::LouvainOptions;
using graph::LouvainResult;
using graph::NodeId;

struct RefLevel {
  std::vector<std::map<NodeId, double>> adj;  // no self entries
  std::vector<double> self_loop;
};

RefLevel ref_level_zero(const Digraph& g) {
  RefLevel r;
  r.adj.resize(g.node_count());
  r.self_loop.assign(g.node_count(), 0.0);
  for (const auto& [u, v] : g.edges()) {
    if (u == v) continue;
    r.adj[u][v] = 1.0;
    r.adj[v][u] = 1.0;
  }
  return r;
}

double ref_degree(const RefLevel& g, NodeId v) {
  double d = 2.0 * g.self_loop[v];
  for (const auto& [u, w] : g.adj[v]) d += w;
  return d;
}

bool ref_local_move(const RefLevel& g, std::vector<NodeId>* community,
                    std::uint64_t seed, double min_gain) {
  const std::size_t n = g.adj.size();
  std::vector<double> degree(n);
  double m2 = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    degree[v] = ref_degree(g, v);
    m2 += degree[v];
  }
  if (m2 <= 0.0) return false;
  std::map<NodeId, double> tot;
  for (NodeId v = 0; v < n; ++v) tot[(*community)[v]] += degree[v];

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  SplitMix64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }

  bool any_move = false;
  bool improved = true;
  while (improved) {
    improved = false;
    for (NodeId v : order) {
      const NodeId old_comm = (*community)[v];
      std::map<NodeId, double> weight_to;
      for (const auto& [u, w] : g.adj[v]) weight_to[(*community)[u]] += w;
      const double k = degree[v];
      tot[old_comm] -= k;
      const auto own = weight_to.find(old_comm);
      const double stay = (own == weight_to.end() ? 0.0 : own->second) -
                          tot[old_comm] * k / m2;
      NodeId best = old_comm;
      double best_gain = -std::numeric_limits<double>::infinity();
      for (const auto& [c, w] : weight_to) {  // ascending id
        if (c == old_comm) continue;
        const double gain = w - tot[c] * k / m2;
        if (gain > best_gain) {
          best_gain = gain;
          best = c;
        }
      }
      if (!(best_gain > stay + min_gain)) best = old_comm;
      tot[best] += k;
      if (best != old_comm) {
        (*community)[v] = best;
        improved = true;
        any_move = true;
      }
    }
  }
  return any_move;
}

RefLevel ref_aggregate(const RefLevel& g, const std::vector<NodeId>& community,
                       std::size_t count) {
  RefLevel out;
  out.adj.resize(count);
  out.self_loop.assign(count, 0.0);
  for (NodeId v = 0; v < g.adj.size(); ++v) {
    const NodeId a = community[v];
    out.self_loop[a] += g.self_loop[v];
    for (const auto& [u, w] : g.adj[v]) {
      const NodeId b = community[u];
      if (a == b) {
        out.self_loop[a] += w / 2.0;  // each inner edge seen from both ends
      } else {
        out.adj[a][b] += w;
      }
    }
  }
  return out;
}

std::size_t ref_renumber(std::vector<NodeId>* community) {
  std::map<NodeId, NodeId> remap;
  for (NodeId& c : *community) {
    c = remap.emplace(c, static_cast<NodeId>(remap.size())).first->second;
  }
  return remap.size();
}

double ref_modularity(const Digraph& g, const std::vector<NodeId>& community) {
  const RefLevel r = ref_level_zero(g);
  double m = 0.0;  // each undirected edge once
  std::map<NodeId, double> intra;
  std::map<NodeId, double> tot;
  for (NodeId v = 0; v < r.adj.size(); ++v) {
    tot[community[v]] += ref_degree(r, v);
    for (const auto& [u, w] : r.adj[v]) {
      if (u < v) continue;
      m += w;
      if (community[u] == community[v]) intra[community[v]] += w;
    }
  }
  if (m <= 0.0) return 0.0;
  const double m2 = 2.0 * m;
  double q = 0.0;
  for (const auto& [c, deg] : tot) {  // ascending id
    const auto in = intra.find(c);
    q += (in == intra.end() ? 0.0 : in->second) / m -
         (deg / m2) * (deg / m2);
  }
  return q;
}

LouvainResult ref_louvain(const Digraph& g, const LouvainOptions& opts) {
  LouvainResult result;
  const std::size_t n = g.node_count();
  result.assignment.resize(n);
  std::iota(result.assignment.begin(), result.assignment.end(), 0);
  if (n == 0) return result;

  RefLevel level_graph = ref_level_zero(g);
  std::vector<NodeId> node_to_top(n);
  std::iota(node_to_top.begin(), node_to_top.end(), 0);
  for (std::size_t level = 0; level < opts.max_levels; ++level) {
    std::vector<NodeId> community(level_graph.adj.size());
    std::iota(community.begin(), community.end(), 0);
    if (!ref_local_move(level_graph, &community, opts.seed + level,
                        opts.min_gain)) {
      break;
    }
    ++result.levels;
    const std::size_t count = ref_renumber(&community);
    for (NodeId v = 0; v < n; ++v) node_to_top[v] = community[node_to_top[v]];
    if (count == level_graph.adj.size()) break;
    level_graph = ref_aggregate(level_graph, community, count);
  }
  result.assignment = node_to_top;
  ref_renumber(&result.assignment);
  result.modularity = ref_modularity(g, result.assignment);

  std::map<NodeId, std::vector<NodeId>> buckets;
  for (NodeId v = 0; v < n; ++v) buckets[result.assignment[v]].push_back(v);
  for (auto& [c, members] : buckets) {
    if (members.size() >= opts.min_community_size) {
      result.communities.push_back(std::move(members));
    }
  }
  std::sort(result.communities.begin(), result.communities.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  return result;
}

void expect_matches_reference(const Digraph& g, const LouvainOptions& opts) {
  const LouvainResult got = graph::louvain(g, opts);
  const LouvainResult want = ref_louvain(g, opts);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.levels, want.levels);
  EXPECT_EQ(got.communities, want.communities);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.modularity),
            std::bit_cast<std::uint64_t>(want.modularity))
      << got.modularity << " vs " << want.modularity;
  // The public measure agrees bit for bit with the reference too.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(graph::modularity(g, got.assignment)),
            std::bit_cast<std::uint64_t>(want.modularity));
}

/// Random digraph with isolated nodes (only the first ~3/4 of the ids get
/// edges), duplicate edges, antiparallel pairs and self-loops.
Digraph random_digraph(std::uint64_t seed) {
  SplitMix64 rng(seed);
  const std::size_t n = 1 + rng.next() % 90;
  const std::size_t wired = std::max<std::size_t>(1, n * 3 / 4);
  const std::size_t m = rng.next() % (3 * n + 1);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t e = 0; e < m; ++e) {
    const auto u = static_cast<NodeId>(rng.next() % wired);
    const auto v = static_cast<NodeId>(rng.next() % wired);
    edges.emplace_back(u, v);
    const std::uint64_t extra = rng.next() % 8;
    if (extra == 0) edges.emplace_back(u, v);  // duplicate
    if (extra == 1) edges.emplace_back(v, u);  // antiparallel
  }
  return Digraph(n, std::move(edges));
}

TEST(LouvainReference, MatchesNaiveReferenceOnRandomDigraphs) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LouvainOptions opts;
    opts.seed = seed;
    opts.min_community_size = 1 + seed % 3;
    if (seed % 4 == 0) opts.min_gain = 0.25;  // a margin that blocks moves
    expect_matches_reference(random_digraph(seed), opts);
  }
}

TEST(LouvainReference, MatchesOnGoldenMetagraph) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& entry : fs::directory_iterator(RCA_GOLDEN_DIR)) {
    if (entry.path().extension() != ".F90") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    sources.emplace_back(entry.path().string(), text.str());
  }
  std::sort(sources.begin(), sources.end());
  ASSERT_FALSE(sources.empty());
  std::vector<lang::SourceFile> files;
  for (const auto& [path, text] : sources) {
    files.push_back(lang::Parser(path, text).parse_file());
  }
  std::vector<const lang::Module*> modules;
  for (const auto& f : files) {
    for (const auto& mod : f.modules) modules.push_back(&mod);
  }
  const meta::Metagraph mg = meta::build_metagraph(modules);
  ASSERT_GT(mg.graph().edge_count(), 0u);
  expect_matches_reference(mg.graph(), LouvainOptions{});
}

TEST(LouvainReference, MatchesOnDefaultCorpusGraph) {
  const model::CesmModel model(model::CorpusSpec{});
  const meta::Metagraph mg = meta::build_metagraph(model.compiled_modules());
  ASSERT_GT(mg.graph().edge_count(), 1000u);
  expect_matches_reference(mg.graph(), LouvainOptions{});
  LouvainOptions seeded;
  seeded.seed = 7;
  seeded.min_community_size = 4;
  expect_matches_reference(mg.graph(), seeded);
}

}  // namespace
}  // namespace rca
