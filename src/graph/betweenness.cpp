#include "graph/betweenness.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/rng.hpp"

namespace rca::graph {

namespace {

/// Scratch buffers for one Brandes source sweep, reused across sources.
struct BrandesScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;   // shortest-path counts
  std::vector<double> delta;   // accumulated dependencies
  std::vector<NodeId> order;   // BFS visitation order (stack substitute)

  explicit BrandesScratch(std::size_t n)
      : dist(n), sigma(n), delta(n) {
    order.reserve(n);
  }

  void reset() {
    std::fill(dist.begin(), dist.end(), -1);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
  }
};

void brandes_edge_source(const UGraph& g, const std::uint8_t* removed,
                         NodeId s, BrandesScratch& scratch,
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
    for (const auto& [v, e] : g.incident(u)) {
      if (removed[e]) continue;
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
      if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
    }
  }
  // Backward pass in reverse BFS order: dependency of s on each edge.
  for (std::size_t i = order.size(); i-- > 1;) {
    NodeId w = order[i];
    const double coeff = (1.0 + delta[w]) / sigma[w];
    for (const auto& [v, e] : g.incident(w)) {
      if (removed[e]) continue;
      if (dist[v] == dist[w] - 1) {  // v is a predecessor of w
        const double c = sigma[v] * coeff;
        acc[e] += c;
        delta[v] += c;
      }
    }
  }
}

/// Draw k distinct pivots from `pool_set` via a partial Fisher–Yates shuffle
/// seeded from SplitMix64, then sort ascending so the sweep order (and hence
/// the fp accumulation order) is independent of the draw order.
std::vector<NodeId> sample_pivots(const std::vector<NodeId>& pool_set,
                                  std::size_t k, std::uint64_t seed) {
  std::vector<NodeId> items(pool_set);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.next() % (items.size() - i));
    std::swap(items[i], items[j]);
  }
  items.resize(k);
  std::sort(items.begin(), items.end());
  return items;
}

/// Shard the source sweeps across the pool with per-shard accumulators, then
/// merge in shard-index order: for a fixed worker count the additions happen
/// in a fixed order, so the result is reproducible run to run.
template <typename SweepFn>
void sharded_accumulate(ThreadPool* pool, std::size_t source_count,
                        std::size_t value_count, SweepFn&& sweep,
                        std::vector<double>& result) {
  const std::size_t shards = pool->size();
  const std::size_t per = (source_count + shards - 1) / shards;
  std::vector<std::vector<double>> locals(shards);
  pool->parallel_for(shards, [&](std::size_t shard) {
    std::vector<double> local(value_count, 0.0);
    const std::size_t begin = shard * per;
    const std::size_t end = std::min(begin + per, source_count);
    sweep(begin, end, local);
    locals[shard] = std::move(local);
  });
  for (const auto& local : locals) {
    for (std::size_t i = 0; i < local.size(); ++i) result[i] += local[i];
  }
}

}  // namespace

std::vector<double> edge_betweenness(const UGraph& g,
                                     const BetweennessOptions& opts) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> all;
  const std::vector<NodeId>* sources = opts.sources;
  if (!sources) {
    all.resize(n);
    for (NodeId i = 0; i < n; ++i) all[i] = i;
    sources = &all;
  }
  std::vector<double> result(g.total_edges(), 0.0);
  if (n == 0 || sources->empty()) return result;

  const std::size_t total = sources->size();
  std::vector<NodeId> pivots;
  if (opts.samples > 0 && opts.samples < total) {
    pivots = sample_pivots(*sources, opts.samples, opts.seed);
    sources = &pivots;
    obs::count("graph.betweenness.sampled_calls");
  }
  obs::count("graph.betweenness.edge_calls");
  obs::count("graph.betweenness.sweeps", sources->size());
  obs::observe("graph.betweenness.sources",
               static_cast<double>(sources->size()));

  const std::uint8_t* removed = g.removed_mask().data();
  if (opts.pool && opts.pool->size() > 1) {
    sharded_accumulate(
        opts.pool, sources->size(), g.total_edges(),
        [&](std::size_t begin, std::size_t end, std::vector<double>& local) {
          BrandesScratch scratch(n);
          for (std::size_t i = begin; i < end; ++i) {
            brandes_edge_source(g, removed, (*sources)[i], scratch, local);
          }
        },
        result);
  } else {
    BrandesScratch scratch(n);
    for (NodeId s : *sources) {
      brandes_edge_source(g, removed, s, scratch, result);
    }
  }
  // Each unordered pair {s, t} is counted from both endpoints when all
  // sources run; halve to match the undirected single-count convention. A
  // sampled run additionally scales by total/k to stay an unbiased estimate.
  const bool sampled = sources == &pivots;
  const double scale =
      sampled ? 0.5 * (static_cast<double>(total) /
                       static_cast<double>(sources->size()))
              : 0.5;
  for (double& v : result) v *= scale;
  return result;
}

std::vector<double> node_betweenness(const Digraph& g,
                                     const BetweennessOptions& opts) {
  const std::size_t n = g.node_count();
  std::vector<double> result(n, 0.0);
  if (n == 0) return result;

  std::vector<NodeId> all;
  const std::vector<NodeId>* sources = opts.sources;
  if (!sources) {
    all.resize(n);
    for (NodeId i = 0; i < n; ++i) all[i] = i;
    sources = &all;
  }
  if (sources->empty()) return result;
  const std::size_t total = sources->size();
  std::vector<NodeId> pivots;
  if (opts.samples > 0 && opts.samples < total) {
    pivots = sample_pivots(*sources, opts.samples, opts.seed);
    sources = &pivots;
    obs::count("graph.betweenness.sampled_calls");
  }
  obs::count("graph.betweenness.node_calls");
  obs::count("graph.betweenness.sweeps", sources->size());

  auto run_source = [&g, n](NodeId s, BrandesScratch& scratch,
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
      if (w != s) acc[w] += delta[w];
    }
  };

  if (opts.pool && opts.pool->size() > 1) {
    sharded_accumulate(
        opts.pool, sources->size(), n,
        [&](std::size_t begin, std::size_t end, std::vector<double>& local) {
          BrandesScratch scratch(n);
          for (std::size_t i = begin; i < end; ++i) {
            run_source((*sources)[i], scratch, local);
          }
        },
        result);
  } else {
    BrandesScratch scratch(n);
    for (NodeId s : *sources) run_source(s, scratch, result);
  }
  if (sources == &pivots) {
    const double scale = static_cast<double>(total) /
                         static_cast<double>(sources->size());
    for (double& v : result) v *= scale;
  }
  return result;
}

}  // namespace rca::graph
