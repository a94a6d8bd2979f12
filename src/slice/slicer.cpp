#include "slice/slicer.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "analysis/summaries.hpp"
#include "graph/bfs.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace rca::slice {

using graph::NodeId;

std::vector<std::string> internal_names_for_output(const meta::Metagraph& mg,
                                                   const std::string& label) {
  std::vector<std::string> names;
  auto it = mg.io_map().find(label);
  if (it == mg.io_map().end()) return names;
  for (NodeId v : it->second) {
    const std::string& canon = mg.info(v).canonical_name;
    if (std::find(names.begin(), names.end(), canon) == names.end()) {
      names.push_back(canon);
    }
  }
  return names;
}

namespace {

SliceResult finish_slice(const meta::Metagraph& mg,
                         std::vector<NodeId> admitted,
                         std::vector<NodeId> targets,
                         const SliceOptions& opts) {
  std::sort(admitted.begin(), admitted.end());
  admitted.erase(std::unique(admitted.begin(), admitted.end()),
                 admitted.end());

  SliceResult result;
  result.targets = std::move(targets);
  result.subgraph = induced_subgraph(mg.graph(), admitted, nullptr);
  result.nodes = std::move(admitted);

  if (opts.drop_components_smaller_than > 1 && !result.nodes.empty()) {
    std::size_t count = 0;
    auto comp = graph::weakly_connected_components(result.subgraph, &count);
    std::vector<std::size_t> sizes(count, 0);
    for (NodeId v = 0; v < comp.size(); ++v) ++sizes[comp[v]];
    std::vector<NodeId> kept;
    kept.reserve(result.nodes.size());
    for (NodeId v = 0; v < comp.size(); ++v) {
      if (sizes[comp[v]] >= opts.drop_components_smaller_than) {
        kept.push_back(result.nodes[v]);
      }
    }
    result.subgraph = induced_subgraph(mg.graph(), kept, nullptr);
    result.nodes = std::move(kept);
  }
  return result;
}

}  // namespace

SliceResult backward_slice_nodes(const meta::Metagraph& mg,
                                 const std::vector<NodeId>& targets,
                                 const SliceOptions& opts) {
  RCA_CHECK_MSG(!targets.empty(), "backward slice needs at least one target");
  obs::Span span("slice.backward");
  span.attr("targets", targets.size());
  obs::count("slice.runs");
  // Union of all BFS shortest-path node sets terminating on the targets ==
  // ancestors(targets) ∪ targets (reverse BFS).
  std::vector<NodeId> reach;
  if (opts.pool != nullptr && targets.size() > 1) {
    // One reverse BFS per target on the pool; sort+unique makes the union
    // independent of completion order and equal to the multi-source set.
    const std::vector<std::vector<NodeId>> per_target =
        opts.pool->parallel_map<std::vector<NodeId>>(
            targets.size(), [&mg, &targets](std::size_t i) {
              return graph::ancestors_of(mg.graph(), {targets[i]});
            });
    for (const auto& part : per_target) {
      reach.insert(reach.end(), part.begin(), part.end());
    }
    std::sort(reach.begin(), reach.end());
    reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
  } else {
    reach = graph::ancestors_of(mg.graph(), targets);
  }
  std::vector<NodeId> admitted;
  admitted.reserve(reach.size());
  std::size_t filtered_out = 0;
  for (NodeId v : reach) {
    if (!opts.module_filter || opts.module_filter(mg.info(v).module)) {
      admitted.push_back(v);
    } else {
      ++filtered_out;
    }
  }
  span.attr("reached", reach.size());
  span.attr("module_filtered", filtered_out);
  obs::observe("slice.module_filtered", static_cast<double>(filtered_out));
  SliceResult result = finish_slice(mg, std::move(admitted),
                                    std::vector<NodeId>(targets), opts);
  span.attr("nodes", result.nodes.size());
  span.attr("edges", result.subgraph.edge_count());
  obs::observe("slice.nodes", static_cast<double>(result.nodes.size()));
  obs::observe("slice.edges",
               static_cast<double>(result.subgraph.edge_count()));
  return result;
}

std::function<bool(const std::string&)> impure_module_filter(
    const analysis::ProgramSummaries& summaries) {
  // Captured by value in shared sets so the filter outlives the summaries
  // (SliceOptions may be stored).
  auto with_procs = std::make_shared<std::unordered_set<std::string>>();
  auto impure = std::make_shared<std::unordered_set<std::string>>();
  for (const auto& run : summaries.modules) {
    for (const analysis::ProcSummary& p : *run) {
      with_procs->insert(p.module);
      if (!p.pure) impure->insert(p.module);
    }
  }
  return [with_procs, impure](const std::string& m) {
    return with_procs->count(m) == 0 || impure->count(m) != 0;
  };
}

SliceResult backward_slice(const meta::Metagraph& mg,
                           const std::vector<std::string>& canonical_targets,
                           const SliceOptions& opts) {
  std::vector<NodeId> targets;
  std::unordered_set<NodeId> seen;
  for (const std::string& name : canonical_targets) {
    for (NodeId v : mg.by_canonical(name)) {
      if (seen.insert(v).second) targets.push_back(v);
    }
  }
  RCA_CHECK_MSG(!targets.empty(),
                "no metagraph nodes match the slicing criteria");
  return backward_slice_nodes(mg, targets, opts);
}

}  // namespace rca::slice
