#include "graph/girvan_newman.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "graph/betweenness.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::graph {

std::size_t girvan_newman_step(UGraph& g, const GnStepOptions& opts,
                               GnStepState* state) {
  if (g.edge_count() == 0) return 0;
  std::size_t before = 0;
  g.components(&before);

  BetweennessOptions bopts;
  bopts.pool = opts.pool;
  bopts.samples = opts.betweenness_samples;
  bopts.seed = opts.betweenness_seed;

  std::vector<double> bc;
  if (state != nullptr && state->valid &&
      state->bc.size() == g.total_edges()) {
    bc = std::move(state->bc);
    if (!state->dirty.empty()) {
      // Only the component the previous step split has stale values; refresh
      // it and keep everything else (same partial-recompute rule as the
      // in-step loop below).
      bopts.sources = &state->dirty;
      obs::count("graph.gn.betweenness_recomputes");
      std::vector<double> partial = edge_betweenness(g, bopts);
      std::vector<std::uint8_t> dirty_node(g.node_count(), 0);
      for (NodeId v : state->dirty) dirty_node[v] = 1;
      for (EdgeId e = 0; e < g.total_edges(); ++e) {
        if (!g.is_removed(e) && dirty_node[g.edge(e).u]) bc[e] = partial[e];
      }
      bopts.sources = nullptr;
    }
  } else {
    obs::count("graph.gn.betweenness_recomputes");
    bc = edge_betweenness(g, bopts);
  }
  if (state != nullptr) {
    state->valid = false;
    state->dirty.clear();
  }

  // Live-edge index, ascending by id. Scanning this instead of
  // [0, total_edges()) skips already-removed edges, which otherwise dominate
  // the max-scan late in a long removal run; ascending order + strict '>'
  // preserves the lowest-id tie-break of the full scan exactly.
  std::vector<EdgeId> live;
  live.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.total_edges(); ++e) {
    if (!g.is_removed(e)) live.push_back(e);
  }

  std::size_t removed = 0;
  std::vector<NodeId> split_nodes;
  for (;;) {
    // Fault site (delay action): tests stretch individual steps to drive the
    // budget path deterministically. The deadline check runs BEFORE the
    // first removal, so an already-expired budget removes nothing.
    (void)RCA_FAULT_CHECK("graph.gn.step");
    if (opts.deadline != nullptr &&
        std::chrono::steady_clock::now() >= *opts.deadline) {
      if (opts.budget_exceeded != nullptr) *opts.budget_exceeded = true;
      break;
    }
    // Pick the live edge with maximum betweenness (ties: lowest id, for
    // determinism).
    EdgeId best = kInvalidNode;
    double best_val = -1.0;
    for (EdgeId e : live) {
      if (bc[e] > best_val) {
        best_val = bc[e];
        best = e;
      }
    }
    if (best == kInvalidNode) break;  // no edges left
    const NodeId eu = g.edge(best).u;
    const NodeId ev = g.edge(best).v;
    g.remove_edge(best);
    live.erase(std::lower_bound(live.begin(), live.end(), best));
    ++removed;

    std::size_t after = 0;
    std::vector<NodeId> comp = g.components(&after);
    if (after > before || g.edge_count() == 0) {
      // The split invalidates betweenness only inside the component that
      // broke apart — both halves carry comp ids of the removed edge's
      // endpoints. Hand that set to the next step via `state`.
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (comp[v] == comp[eu] || comp[v] == comp[ev]) {
          split_nodes.push_back(v);
        }
      }
      break;
    }

    // Recompute betweenness only inside the component that lost the edge;
    // all shortest paths elsewhere are untouched (paper step 3: "recalculate
    // betweenness for all edges affected by the removal").
    const NodeId affected = comp[eu];
    std::vector<NodeId> sources;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (comp[v] == affected) sources.push_back(v);
    }
    obs::count("graph.gn.betweenness_recomputes");
    bopts.sources = &sources;
    std::vector<double> partial = edge_betweenness(g, bopts);
    bopts.sources = nullptr;
    for (EdgeId e : live) {
      if (comp[g.edge(e).u] == affected) bc[e] = partial[e];
    }
  }
  if (state != nullptr) {
    state->bc = std::move(bc);
    state->dirty = std::move(split_nodes);
    state->valid = true;
  }
  obs::count("graph.gn.edges_removed", removed);
  return removed;
}

GirvanNewmanResult girvan_newman(const Digraph& g,
                                 const GirvanNewmanOptions& opts) {
  RCA_CHECK_MSG(opts.iterations >= 0, "negative G-N iteration count");
  obs::Span span("graph.girvan_newman");
  span.attr("nodes", g.node_count());
  span.attr("edges", g.edge_count());
  obs::count("graph.gn.runs");
  UGraph ug(g);
  GirvanNewmanResult result;
  std::chrono::steady_clock::time_point deadline;
  const bool budgeted = opts.budget_ms > 0;
  if (budgeted) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(opts.budget_ms);
  }
  GnStepOptions step_opts;
  step_opts.pool = opts.pool;
  step_opts.betweenness_samples = opts.betweenness_samples;
  step_opts.betweenness_seed = opts.betweenness_seed;
  step_opts.deadline = budgeted ? &deadline : nullptr;
  step_opts.budget_exceeded = &result.budget_exceeded;
  GnStepState state;
  for (int it = 0; it < opts.iterations; ++it) {
    obs::count("graph.gn.iterations");
    result.edges_removed += girvan_newman_step(ug, step_opts, &state);
    if (result.budget_exceeded) break;
  }

  std::size_t count = 0;
  std::vector<NodeId> comp = ug.components(&count);
  result.component_count = count;

  std::vector<std::vector<NodeId>> buckets(count);
  for (NodeId v = 0; v < comp.size(); ++v) buckets[comp[v]].push_back(v);
  for (auto& b : buckets) {
    if (b.size() >= opts.min_community_size) {
      result.communities.push_back(std::move(b));
    }
  }
  std::sort(result.communities.begin(), result.communities.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();  // deterministic tie-break
            });
  span.attr("edges_removed", result.edges_removed);
  span.attr("communities", result.communities.size());
  return result;
}

CommunityDetectionResult communities_with_budget(
    const Digraph& g, const GirvanNewmanOptions& gn_opts,
    const LouvainOptions& louvain_opts) {
  CommunityDetectionResult out;
  GirvanNewmanResult gn = girvan_newman(g, gn_opts);
  out.edges_removed = gn.edges_removed;
  if (!gn.budget_exceeded) {
    out.communities = std::move(gn.communities);
    return out;
  }
  obs::count("community.fallback");
  LouvainOptions lopts = louvain_opts;
  if (lopts.min_community_size < gn_opts.min_community_size) {
    lopts.min_community_size = gn_opts.min_community_size;
  }
  LouvainResult lv = louvain(g, lopts);
  out.communities = std::move(lv.communities);
  out.fell_back = true;
  out.modularity = lv.modularity;
  return out;
}

}  // namespace rca::graph
