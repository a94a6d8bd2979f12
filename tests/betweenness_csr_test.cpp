// Pins the CSR rework of the graph kernels to the historical adjacency-list
// semantics, bit for bit:
//
//  * `RefUGraph` below is the pre-CSR UGraph (per-node vector<pair> adjacency
//    lists, built in the same digraph scan order), and `ref_edge_betweenness`
//    runs Brandes over it with the same shard/merge structure as the shipped
//    kernel (per-shard local accumulators merged in shard-index order). For
//    any worker count the CSR path must reproduce it exactly — the layout
//    change must not move a single floating-point operation.
//  * Pivot-sampled betweenness is seed-deterministic and rank-agrees with
//    exact values (Spearman) on the in-tree fixtures, including the golden
//    corpus the front end parses.
//  * girvan_newman_step with carried GnStepState removes the same edges as
//    fresh full-recompute steps (exact mode is bitwise, so the sequences
//    cannot diverge).
//  * Pooled power iteration is bit-identical to serial for any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/betweenness.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/ugraph.hpp"
#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "stats/descriptive.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rca::graph {
namespace {

// ---------------------------------------------------------------------------
// Reference: the pre-CSR adjacency-list UGraph + Brandes, kept verbatim.
// ---------------------------------------------------------------------------

struct RefUGraph {
  struct Edge {
    NodeId u;
    NodeId v;
    bool removed = false;
  };
  std::vector<Edge> edges;
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> adj;

  explicit RefUGraph(const Digraph& g) {
    adj.resize(g.node_count());
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId v : g.out_neighbors(u)) {
        if (u < v || !g.has_edge(v, u)) {
          EdgeId id = static_cast<EdgeId>(edges.size());
          edges.push_back(Edge{u, v, false});
          adj[u].emplace_back(v, id);
          adj[v].emplace_back(u, id);
        }
      }
    }
  }
};

struct RefScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  std::vector<NodeId> order;

  explicit RefScratch(std::size_t n) : dist(n), sigma(n), delta(n) {
    order.reserve(n);
  }

  void reset() {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
  }
};

void ref_brandes_source(const RefUGraph& g, NodeId s, RefScratch& scratch,
                        std::vector<double>& acc) {
  scratch.reset();
  auto& dist = scratch.dist;
  auto& sigma = scratch.sigma;
  auto& delta = scratch.delta;
  auto& order = scratch.order;
  dist[s] = 0;
  sigma[s] = 1.0;
  std::size_t head = 0;
  order.push_back(s);
  while (head < order.size()) {
    NodeId u = order[head++];
    for (const auto& [v, e] : g.adj[u]) {
      if (g.edges[e].removed) continue;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
      if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
    }
  }
  for (std::size_t i = order.size(); i-- > 1;) {
    NodeId w = order[i];
    const double coeff = (1.0 + delta[w]) / sigma[w];
    for (const auto& [v, e] : g.adj[w]) {
      if (g.edges[e].removed) continue;
      if (dist[v] == dist[w] - 1) {
        const double c = sigma[v] * coeff;
        acc[e] += c;
        delta[v] += c;
      }
    }
  }
}

/// Same shard split + shard-index-order merge as the shipped kernel, but
/// over the adjacency-list graph and executed serially (the merge order, not
/// the execution schedule, is what fixes the fp result).
std::vector<double> ref_edge_betweenness(const RefUGraph& g,
                                         std::size_t workers) {
  const std::size_t n = g.adj.size();
  std::vector<double> result(g.edges.size(), 0.0);
  if (n == 0) return result;
  const std::size_t shards = workers;
  const std::size_t per = (n + shards - 1) / shards;
  std::vector<std::vector<double>> locals(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    std::vector<double> local(g.edges.size(), 0.0);
    RefScratch scratch(n);
    const std::size_t begin = shard * per;
    const std::size_t end = std::min(begin + per, n);
    for (std::size_t s = begin; s < end; ++s) {
      ref_brandes_source(g, static_cast<NodeId>(s), scratch, local);
    }
    locals[shard] = std::move(local);
  }
  for (const auto& local : locals) {
    for (std::size_t i = 0; i < local.size(); ++i) result[i] += local[i];
  }
  for (double& v : result) v *= 0.5;
  return result;
}

/// Pre-CSR node betweenness: Brandes straight over the digraph's
/// out/in_neighbors vectors.
std::vector<double> ref_node_betweenness(const Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<double> result(n, 0.0);
  RefScratch scratch(n);
  for (NodeId s = 0; s < n; ++s) {
    scratch.reset();
    auto& dist = scratch.dist;
    auto& sigma = scratch.sigma;
    auto& delta = scratch.delta;
    auto& order = scratch.order;
    dist[s] = 0;
    sigma[s] = 1.0;
    std::size_t head = 0;
    order.push_back(s);
    while (head < order.size()) {
      NodeId u = order[head++];
      for (NodeId v : g.out_neighbors(u)) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          order.push_back(v);
        }
        if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
      }
    }
    for (std::size_t i = order.size(); i-- > 1;) {
      NodeId w = order[i];
      const double coeff = (1.0 + delta[w]) / sigma[w];
      for (NodeId v : g.in_neighbors(w)) {
        if (dist[v] >= 0 && dist[v] == dist[w] - 1) {
          delta[v] += sigma[v] * coeff;
        }
      }
      if (w != s) result[w] += delta[w];
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Deterministic preferential-attachment digraph with a sprinkle of
/// reciprocal edges, so the UGraph dedup path (u->v and v->u collapsing to
/// one undirected edge) is exercised.
Digraph make_random_digraph(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<NodeId> pool = {0};
  for (NodeId v = 1; v < n; ++v) {
    for (int e = 0; e < 2; ++e) {
      const NodeId t = pool[rng.next() % pool.size()];
      if (t == v) continue;
      edges.emplace_back(v, t);
      if (seen.insert({v, t}).second) {
        pool.push_back(t);
        pool.push_back(v);
      }
      if (rng.next() % 4 == 0) {
        edges.emplace_back(t, v);
        seen.insert({t, v});
      }
    }
  }
  return Digraph(n, std::move(edges));
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The tests/golden fixture corpus, parsed in sorted-path order like
/// `rca-tool graph` does.
meta::Metagraph golden_metagraph() {
  const std::filesystem::path dir = RCA_GOLDEN_DIR;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".F90") continue;
    sources.emplace_back(entry.path().string(), read_file(entry.path()));
  }
  std::sort(sources.begin(), sources.end());
  std::vector<lang::SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, text] : sources) {
    files.push_back(lang::Parser(path, text).parse_file());
  }
  std::vector<const lang::Module*> modules;
  for (const auto& f : files) {
    for (const auto& m : f.modules) modules.push_back(&m);
  }
  return meta::build_metagraph(modules);
}

/// Metagraph of the default synthetic corpus (~1.5k nodes) — the scale the
/// sampling contract is specified at.
meta::Metagraph corpus_metagraph() {
  model::CesmModel model(model::CorpusSpec{});
  return meta::build_metagraph(model.compiled_modules());
}

// ---------------------------------------------------------------------------
// CSR layout + exact kernels: bitwise against the adjacency-list reference
// ---------------------------------------------------------------------------

TEST(BetweennessCsr, CsrLayoutReproducesAdjacencyListOrder) {
  const Digraph g = make_random_digraph(200, 11);
  const UGraph ug(g);
  const RefUGraph ref(g);
  ASSERT_EQ(ug.total_edges(), ref.edges.size());
  for (EdgeId e = 0; e < ug.total_edges(); ++e) {
    EXPECT_EQ(ug.edge(e).u, ref.edges[e].u);
    EXPECT_EQ(ug.edge(e).v, ref.edges[e].v);
  }
  for (NodeId u = 0; u < ug.node_count(); ++u) {
    const auto arcs = ug.incident(u);
    ASSERT_EQ(arcs.size(), ref.adj[u].size()) << "node " << u;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      EXPECT_EQ(arcs[i].v, ref.adj[u][i].first);
      EXPECT_EQ(arcs[i].e, ref.adj[u][i].second);
    }
  }
}

TEST(BetweennessCsr, ExactMatchesAdjacencyReferenceBitwise) {
  const Digraph g = make_random_digraph(300, 7);
  const UGraph ug(g);
  const RefUGraph ref(g);
  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::vector<double> expected = ref_edge_betweenness(ref, workers);
    ThreadPool pool(workers);
    BetweennessOptions opts;
    opts.pool = workers > 1 ? &pool : nullptr;
    const std::vector<double> got = edge_betweenness(ug, opts);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t e = 0; e < got.size(); ++e) {
      // Exact == on doubles: the CSR path must not reassociate anything.
      ASSERT_EQ(got[e], expected[e]) << "edge " << e << ", " << workers
                                     << " workers";
    }
  }
}

TEST(BetweennessCsr, ExactMatchesReferenceAfterRemovals) {
  const Digraph g = make_random_digraph(150, 3);
  UGraph ug(g);
  RefUGraph ref(g);
  // Remove every 5th edge in both views, then compare the serial kernels.
  for (EdgeId e = 0; e < ug.total_edges(); e += 5) {
    ug.remove_edge(e);
    ref.edges[e].removed = true;
  }
  const std::vector<double> expected = ref_edge_betweenness(ref, 1);
  const std::vector<double> got = edge_betweenness(ug);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    ASSERT_EQ(got[e], expected[e]) << "edge " << e;
  }
}

TEST(BetweennessCsr, NodeBetweennessMatchesAdjacencyReferenceBitwise) {
  const Digraph g = make_random_digraph(250, 23);
  const std::vector<double> expected = ref_node_betweenness(g);
  const std::vector<double> got = node_betweenness(g);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v], expected[v]) << "node " << v;
  }
}

// ---------------------------------------------------------------------------
// Sampled betweenness: determinism + rank agreement
// ---------------------------------------------------------------------------

TEST(BetweennessSampling, DeterministicUnderFixedSeed) {
  const Digraph g = make_random_digraph(400, 5);
  const UGraph ug(g);
  ThreadPool pool(4);
  BetweennessOptions opts;
  opts.samples = 64;
  opts.seed = 42;
  const std::vector<double> serial_a = edge_betweenness(ug, opts);
  const std::vector<double> serial_b = edge_betweenness(ug, opts);
  EXPECT_EQ(serial_a, serial_b);
  // Pooled runs merge per-shard accumulators in shard-index order, so the
  // pooled result is reproducible too (for a fixed worker count).
  opts.pool = &pool;
  const std::vector<double> pooled_a = edge_betweenness(ug, opts);
  const std::vector<double> pooled_b = edge_betweenness(ug, opts);
  EXPECT_EQ(pooled_a, pooled_b);

  // A different seed draws different pivots.
  BetweennessOptions other = opts;
  other.pool = nullptr;
  other.seed = 43;
  EXPECT_NE(serial_a, edge_betweenness(ug, other));
}

TEST(BetweennessSampling, SampleCountAtOrAboveSourcesIsExact) {
  const Digraph g = make_random_digraph(120, 9);
  const UGraph ug(g);
  const std::vector<double> exact = edge_betweenness(ug);
  BetweennessOptions opts;
  opts.samples = ug.node_count();  // not a subsample -> exact path
  EXPECT_EQ(exact, edge_betweenness(ug, opts));
  opts.samples = ug.node_count() * 2;
  EXPECT_EQ(exact, edge_betweenness(ug, opts));
}

TEST(BetweennessSampling, RankAgreementOnGoldenCorpus) {
  const meta::Metagraph mg = golden_metagraph();
  const UGraph ug(mg.graph());
  ASSERT_GT(ug.node_count(), 4u);
  const std::vector<double> exact = edge_betweenness(ug);
  // The golden metagraph has ~21 nodes; a single half-sample draw is too
  // noisy for a sharp rank threshold at that size (the Brandes–Pich bounds
  // are asymptotic). The estimator is unbiased, so averaging a few seeded
  // draws is plain variance reduction — the scale-regime contract is pinned
  // by RankAgreementOnSyntheticCorpus below with one draw.
  constexpr int kDraws = 8;
  std::vector<double> averaged(exact.size(), 0.0);
  for (int draw = 0; draw < kDraws; ++draw) {
    BetweennessOptions opts;
    opts.samples = ug.node_count() / 2;
    opts.seed = 2019 + static_cast<std::uint64_t>(draw);
    const std::vector<double> sampled = edge_betweenness(ug, opts);
    for (std::size_t e = 0; e < sampled.size(); ++e) averaged[e] += sampled[e];
  }
  for (double& v : averaged) v /= kDraws;
  EXPECT_GE(stats::spearman(exact, averaged), 0.9)
      << "sampled betweenness lost rank agreement on tests/golden";
}

TEST(BetweennessSampling, RankAgreementOnSyntheticCorpus) {
  const meta::Metagraph mg = corpus_metagraph();
  const UGraph ug(mg.graph());
  ASSERT_GT(ug.node_count(), 1000u);
  ThreadPool pool(4);
  BetweennessOptions exact_opts;
  exact_opts.pool = &pool;
  const std::vector<double> exact = edge_betweenness(ug, exact_opts);
  BetweennessOptions opts = exact_opts;
  opts.samples = 128;
  opts.seed = 2019;
  const std::vector<double> sampled = edge_betweenness(ug, opts);
  EXPECT_GE(stats::spearman(exact, sampled), 0.9)
      << "sampled betweenness lost rank agreement at corpus scale";
}

// ---------------------------------------------------------------------------
// Girvan–Newman: carried-state parity
// ---------------------------------------------------------------------------

TEST(GirvanNewman, CarriedStateStepParity) {
  const Digraph g = make_random_digraph(80, 17);

  // Reference: every step recomputes from scratch (no carried state).
  UGraph fresh(g);
  std::vector<std::size_t> fresh_removed;
  for (int step = 0; step < 4; ++step) {
    fresh_removed.push_back(girvan_newman_step(fresh, GnStepOptions{}));
  }

  // Same steps with one GnStepState threaded through: the dirty-node
  // refresh must reproduce the full recompute bit for bit, so the removal
  // sequence is identical.
  UGraph carried(g);
  GnStepState state;
  std::vector<std::size_t> carried_removed;
  for (int step = 0; step < 4; ++step) {
    carried_removed.push_back(
        girvan_newman_step(carried, GnStepOptions{}, &state));
  }

  EXPECT_EQ(fresh_removed, carried_removed);
  ASSERT_EQ(fresh.total_edges(), carried.total_edges());
  for (EdgeId e = 0; e < fresh.total_edges(); ++e) {
    EXPECT_EQ(fresh.is_removed(e), carried.is_removed(e)) << "edge " << e;
  }
}

TEST(GirvanNewman, SampledStepIsSeedDeterministic) {
  const Digraph g = make_random_digraph(120, 29);
  GnStepOptions opts;
  opts.betweenness_samples = 16;
  opts.betweenness_seed = 7;

  auto run = [&] {
    UGraph ug(g);
    (void)girvan_newman_step(ug, opts);
    std::vector<bool> removed(ug.total_edges());
    for (EdgeId e = 0; e < ug.total_edges(); ++e) removed[e] = ug.is_removed(e);
    return removed;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rca::graph
