// Girvan–Newman community detection (Girvan & Newman 2002, Newman & Girvan
// 2004) as the paper applies it (§5.2): one "iteration" removes the
// highest-edge-betweenness edge repeatedly until the number of connected
// components increases. Betweenness is recomputed after each removal, but
// only within the component that lost the edge — removals elsewhere cannot
// change other components' shortest paths.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/louvain.hpp"
#include "graph/ugraph.hpp"
#include "support/thread_pool.hpp"

namespace rca::graph {

struct GirvanNewmanOptions {
  /// Number of split iterations (paper default: 1, "to avoid clustering the
  /// subgraphs far beyond the natural structure present in the code").
  int iterations = 1;
  /// Communities smaller than this are dropped from the result (the paper
  /// omits communities of fewer than 3–4 nodes).
  std::size_t min_community_size = 3;
  /// Wall-clock budget for the removal loop; 0 = unlimited. When exceeded,
  /// the run stops early and the result carries budget_exceeded — callers
  /// that need an answer fall back to Louvain (communities_with_budget).
  long long budget_ms = 0;
  /// Pivot-sample size for each betweenness (re)computation; 0 = exact. At
  /// paper scale exact betweenness per removal is the whole cost of G-N, so
  /// interactive callers trade exactness for a seeded estimate (see
  /// BetweennessOptions::samples).
  std::size_t betweenness_samples = 0;
  /// Seed for pivot sampling; fixed seed = reproducible removal sequence.
  std::uint64_t betweenness_seed = 2019;
  ThreadPool* pool = nullptr;
};

struct GirvanNewmanResult {
  /// Kept communities (each sorted by node id), largest first.
  std::vector<std::vector<NodeId>> communities;
  /// Edges removed across all iterations.
  std::size_t edges_removed = 0;
  /// Component count of the undirected view after the final iteration,
  /// including below-threshold components.
  std::size_t component_count = 0;
  /// True when budget_ms expired before the removal loop finished; the
  /// communities reflect however far the run got.
  bool budget_exceeded = false;
};

/// Runs G-N on the weakly connected (undirected) view of `g`.
GirvanNewmanResult girvan_newman(const Digraph& g,
                                 const GirvanNewmanOptions& opts = {});

struct GnStepOptions {
  ThreadPool* pool = nullptr;
  /// See GirvanNewmanOptions::betweenness_samples / betweenness_seed.
  std::size_t betweenness_samples = 0;
  std::uint64_t betweenness_seed = 2019;
  /// Deadline (null = none), checked at the top of every removal, including
  /// the first; an expired step sets *budget_exceeded (if non-null) and
  /// returns early.
  const std::chrono::steady_clock::time_point* deadline = nullptr;
  bool* budget_exceeded = nullptr;
};

/// Betweenness carried between consecutive girvan_newman_step calls on the
/// SAME graph. A step that split a component only invalidated betweenness
/// inside that component; the next step refreshes those nodes (`dirty`)
/// instead of recomputing the whole graph. With exact betweenness the
/// refreshed values are bit-identical to a full recompute (absent sources
/// contribute exactly 0 to out-of-component edges), so the removal sequence
/// is unchanged — pinned by GirvanNewman.CarriedStateStepParity.
struct GnStepState {
  std::vector<double> bc;      // per-edge values, stale only on dirty nodes
  std::vector<NodeId> dirty;   // nodes whose component changed last step
  bool valid = false;
};

/// One split step on an existing undirected graph; returns removed-edge
/// count. Exposed separately for tests and ablations. `state` (optional)
/// carries betweenness across steps; pass the same object to every step on
/// one graph and the full step-entry recompute happens only once.
std::size_t girvan_newman_step(UGraph& g, const GnStepOptions& opts = {},
                               GnStepState* state = nullptr);

/// Graceful degradation for interactive callers: Girvan–Newman under a
/// wall-clock budget, falling back to Louvain (counter: community.fallback)
/// when the budget expires — an approximate partition now beats an exact one
/// after the client gave up.
struct CommunityDetectionResult {
  std::vector<std::vector<NodeId>> communities;
  /// True when GN blew its budget and `communities` came from Louvain.
  bool fell_back = false;
  /// Edges the GN attempt removed (observability, even when fell_back).
  std::size_t edges_removed = 0;
  /// Louvain modularity; only meaningful when fell_back.
  double modularity = 0.0;
};

CommunityDetectionResult communities_with_budget(
    const Digraph& g, const GirvanNewmanOptions& gn_opts,
    const LouvainOptions& louvain_opts = {});

}  // namespace rca::graph
