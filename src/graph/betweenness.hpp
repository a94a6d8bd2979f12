// Brandes (2001) betweenness centrality for unweighted graphs.
//
// Girvan–Newman needs *edge* betweenness on the undirected view; the source
// loop is embarrassingly parallel and is sharded across a thread pool with
// per-shard accumulators (no atomics on the hot path). Shard results are
// merged in shard-index order, so a given worker count always produces the
// same bits.
//
// Exact betweenness runs one Brandes sweep per node — O(V·E) — which is the
// kernel the paper's §5.2 clustering spends its time in. At CESM scale that
// is infeasible per Girvan–Newman step, so `BetweennessOptions::samples`
// enables pivot sampling (Brandes & Pich 2007): sweep only k seeded-random
// sources and scale contributions by |sources|/k. Rank order of the heavy
// edges is preserved (pinned by a Spearman test against exact values) at a
// fraction of the cost.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/ugraph.hpp"
#include "support/thread_pool.hpp"

namespace rca::graph {

struct BetweennessOptions {
  ThreadPool* pool = nullptr;
  /// 0 = exact (every source). Otherwise sweep `samples` pivot sources drawn
  /// without replacement from the source set and scale up; values are then
  /// unbiased estimates of the exact ones.
  std::size_t samples = 0;
  /// Pivot-selection seed; a fixed seed gives a fixed pivot set and (for a
  /// fixed worker count) bit-identical results.
  std::uint64_t seed = 2019;
  /// When non-null, only BFS trees rooted at these nodes contribute (used
  /// for incremental recomputation inside one component). Sampling draws
  /// pivots from this set.
  const std::vector<NodeId>* sources = nullptr;
};

/// Edge betweenness over live edges of `g`; removed edges get 0. Undirected
/// pair dependencies are halved as in NetworkX so values match the
/// single-count convention.
std::vector<double> edge_betweenness(const UGraph& g,
                                     const BetweennessOptions& opts = {});

/// Node betweenness on a digraph (directed shortest paths), endpoints
/// excluded. Provided for analysis tooling and ablations.
std::vector<double> node_betweenness(const Digraph& g,
                                     const BetweennessOptions& opts = {});

}  // namespace rca::graph
