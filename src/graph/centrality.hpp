// Node centralities for sampling-site selection.
//
// The refinement engine ranks each community's nodes by eigenvector
// *in*-centrality (§5.3): sampling looks for information sinks, so the
// centrality is computed on reversed edges. Degree, PageRank and Katz are
// provided for the centrality ablation benches.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/betweenness.hpp"
#include "graph/digraph.hpp"

namespace rca::graph {

enum class Direction {
  kIn,   // rank by incoming influence (paper's choice for sampling)
  kOut,  // rank by outgoing influence
};

/// Power-iteration settings of eigenvector_centrality and
/// nonbacktracking_centrality: an iteration cap, a per-entry L1 convergence
/// tolerance, and a uniform additive teleport applied when plain power
/// iteration stalls on reducible/bipartite structures. The CESM graphs are
/// far from strongly connected, so a small regularization keeps the
/// dominant eigenvector well-defined without materially changing the
/// ranking.
inline constexpr std::size_t kPowerIterationCap = 1000;
inline constexpr double kPowerIterationTolerance = 1e-10;
inline constexpr double kPowerIterationRegularization = 1e-4;

/// Eigenvector centrality by power iteration on A (kOut) or A^T (kIn),
/// L2-normalized, all entries non-negative. Isolated-in-direction nodes get
/// (near-)zero centrality.
std::vector<double> eigenvector_centrality(const Digraph& g, Direction dir);

/// In- or out-degree divided by (n - 1), NetworkX convention.
std::vector<double> degree_centrality(const Digraph& g, Direction dir);

/// PageRank with damping; kIn ranks sinks of influence like eigenvector
/// in-centrality (the paper notes the PageRank relationship).
std::vector<double> pagerank(const Digraph& g, Direction dir,
                             double damping = 0.85,
                             std::size_t max_iterations = 200,
                             double tolerance = 1e-12);

/// Katz centrality with attenuation alpha (must satisfy alpha < 1/lambda_max
/// for convergence; iteration aborts with best effort otherwise).
std::vector<double> katz_centrality(const Digraph& g, Direction dir,
                                    double alpha = 0.05, double beta = 1.0,
                                    std::size_t max_iterations = 1000,
                                    double tolerance = 1e-10);

/// Closeness centrality (Wasserman-Faust variant for disconnected graphs):
/// for kIn, distances are measured along incoming edges, ranking nodes that
/// are quickly reached *by* the rest of the graph. O(V(V+E)) via BFS.
std::vector<double> closeness_centrality(const Digraph& g, Direction dir);

/// Indices of the top-k values, ranked descending with deterministic
/// (lowest-id) tie-breaks.
std::vector<NodeId> top_k(const std::vector<double>& scores, std::size_t k);

/// The refinement engine's step-6 ranking (§5.3): the first k of `nodes`
/// (ids of `g`) by eigenvector in-centrality over the subgraph they induce,
/// ties to the lower position in `nodes`. When `scores` is set it receives
/// each returned node's centrality, aligned with the result.
std::vector<NodeId> rank_by_in_centrality(const Digraph& g,
                                          const std::vector<NodeId>& nodes,
                                          std::size_t k,
                                          std::vector<double>* scores = nullptr);

/// Parallel per-node names and scores, ready for top_k.
struct NamedScores {
  std::vector<std::string> names;
  std::vector<double> scores;
};

/// The named in-centrality kinds behind `rca-tool centrality --kind` and
/// /v1/rank: eigenvector, degree, pagerank, katz, closeness,
/// nonbacktracking, betweenness (node betweenness under `betweenness`) and
/// inout-eigenvector (in- plus out-eigenvector). Scores `g`, its nodes named
/// by `node_name` — or, when `node_class` is set, g's quotient under those
/// classes (the paper's §6.5 module collapse), named by `class_names`.
/// Returns std::nullopt for an unknown kind; each caller words that error.
std::optional<NamedScores> rank_by_kind(
    const std::string& kind, const Digraph& g,
    const std::function<std::string(NodeId)>& node_name,
    const std::vector<NodeId>* node_class,
    const std::vector<std::string>& class_names,
    const BetweennessOptions& betweenness = {});

}  // namespace rca::graph
