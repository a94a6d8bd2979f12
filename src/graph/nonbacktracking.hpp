// Hashimoto non-backtracking centrality (paper §5.3 and supplementary §8.1).
//
// The Hashimoto matrix B acts on directed edges: B[(u->v),(w->x)] =
// delta_{vw} (1 - delta_{ux}) — walks may continue from v but not step
// straight back to u. The node centrality is c_i = sum over edges leaving i
// of the leading eigenvector of B (supplementary derivation). Martin, Zhang
// & Newman (2014) propose it to avoid eigenvector localization on hubs of
// power-law graphs; the paper finds it gives no advantage for CESM graphs —
// Figure 11's comparison is regenerated by bench/fig11_nonbacktracking.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/centrality.hpp"
#include "graph/digraph.hpp"

namespace rca::graph {

struct NonBacktrackingResult {
  /// Node centrality; exactly 0 for nodes with no incident edges in the
  /// walking direction (they don't appear in the line graph — the sharp
  /// drop at the tail of Figure 11).
  std::vector<double> centrality;
  /// Number of directed edges in the Hashimoto matrix (2m for the
  /// undirected interpretation).
  std::size_t hashimoto_size = 0;
  std::size_t iterations = 0;
};

/// Non-backtracking centrality by power iteration on B. `dir == kIn`
/// computes in-centrality by reversing the edges first (paper: "we can
/// reverse the directed edges of A (via the transpose)").
NonBacktrackingResult nonbacktracking_centrality(const Digraph& g,
                                                 Direction dir);

}  // namespace rca::graph
