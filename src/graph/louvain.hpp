// Louvain modularity optimization (Blondel et al. 2008) and the Newman
// modularity measure — an alternative community detector for the refinement
// engine. The paper uses Girvan-Newman; G-N's edge-betweenness recomputation
// is O(V·E) per removal, while Louvain is near-linear, so large slices favor
// it (paper §6.3 notes "numerous algorithms for graph partitioning which we
// could use"). bench/ablation_louvain compares both.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "support/rng.hpp"

namespace rca::graph {

/// Newman modularity Q of a partition of the undirected (weakly connected)
/// view of `g`. `community` maps node -> community id (dense or sparse ids).
double modularity(const Digraph& g, const std::vector<NodeId>& community);

struct LouvainOptions {
  /// Maximum local-move + aggregate rounds.
  std::size_t max_levels = 10;
  /// Node visiting order is shuffled with this seed (deterministic).
  std::uint64_t seed = 1;
  /// Per-move margin. A visited node moves to the neighbouring community
  /// with the largest modularity gain (ties to the smallest community id),
  /// and only when that gain beats staying by more than `min_gain`; a
  /// local-move phase ends after a sweep that moves no node.
  double min_gain = 1e-9;
  /// Communities smaller than this are dropped from `communities` (kept in
  /// the per-node assignment).
  std::size_t min_community_size = 1;
};

struct LouvainResult {
  /// Per-node community id (dense, 0-based).
  std::vector<NodeId> assignment;
  /// Kept communities, largest first (node lists sorted ascending).
  std::vector<std::vector<NodeId>> communities;
  double modularity = 0.0;
  std::size_t levels = 0;
};

/// Runs Louvain on the undirected view of `g`.
LouvainResult louvain(const Digraph& g, const LouvainOptions& opts = {});

}  // namespace rca::graph
