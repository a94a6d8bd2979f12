#include "engine/refinement.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "fault/fault.hpp"
#include "graph/bfs.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace rca::engine {

using graph::NodeId;

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

std::vector<NodeId> Sampler::detect_differences(
    const std::vector<NodeId>& sites) {
  std::vector<NodeId> out;
  for (const Difference& d : detect_with_magnitudes(sites)) {
    out.push_back(d.node);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SimulatedSampler.
// ---------------------------------------------------------------------------

SimulatedSampler::SimulatedSampler(const meta::Metagraph& mg,
                                   const std::vector<NodeId>& bug_nodes) {
  influenced_.assign(mg.node_count(), false);
  bug_distance_.assign(mg.node_count(), graph::kUnreached);
  if (bug_nodes.empty()) return;
  bug_distance_ = graph::bfs_distances(mg.graph(), bug_nodes);
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    if (bug_distance_[v] != graph::kUnreached) influenced_[v] = true;
  }
}

std::vector<Difference> SimulatedSampler::detect_with_magnitudes(
    const std::vector<NodeId>& sites) {
  std::vector<Difference> out;
  for (NodeId v : sites) {
    if (v < influenced_.size() && influenced_[v]) {
      out.push_back(Difference{
          v, 1.0 / (1.0 + static_cast<double>(bug_distance_[v]))});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RunTrace.
// ---------------------------------------------------------------------------

std::vector<NodeId> nodes_with_module_twin(const meta::Metagraph& mg) {
  std::unordered_set<std::string> module_level;  // "module::name"
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    const meta::NodeInfo& n = mg.info(v);
    if (n.subprogram.empty()) {
      module_level.insert(n.module + "::" + n.canonical_name);
    }
  }
  std::vector<NodeId> twins;
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    const meta::NodeInfo& n = mg.info(v);
    if (!n.subprogram.empty() &&
        module_level.count(n.module + "::" + n.canonical_name)) {
      twins.push_back(v);
    }
  }
  return twins;
}

RunTrace RunTrace::record(const meta::Metagraph& mg,
                          const model::CesmModel& model,
                          model::RunConfig config) {
  RCA_FAULT_POINT("engine.sample");
  const std::vector<NodeId> twins = nodes_with_module_twin(mg);
  RCA_CHECK_MSG(twins.empty(),
                "node " + mg.info(twins.front()).unique_name +
                    " has a module-level twin; a fully watched run would not "
                    "reproduce per-site sampling");
  config.watches.clear();
  config.watches.reserve(mg.node_count());
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    config.watches.push_back(mg.watch_key(v));
  }
  const model::RunResult run = model.run(config);
  RunTrace trace;
  trace.stats_.reserve(config.watches.size());
  for (const interp::WatchKey& key : config.watches) {
    trace.stats_.push_back(run.watch_stats.at(key));
  }
  return trace;
}

const interp::WatchStats& RunTrace::stats(NodeId v) const {
  RCA_CHECK_MSG(v < stats_.size(), "node id out of range");
  return stats_[v];
}

// ---------------------------------------------------------------------------
// RuntimeSampler.
// ---------------------------------------------------------------------------

const RunTrace& LazyTrace::get() {
  // A plain mutex rather than std::call_once: a recording that throws
  // leaves `trace` null and the next caller retries, and waiters never
  // depend on call_once's exceptional-exit hand-off.
  std::lock_guard<std::mutex> lock(mu);
  if (!trace) {
    obs::Span span("sampler.record");
    span.attr("role", role);
    trace =
        std::make_shared<const RunTrace>(RunTrace::record(mg, model, config));
    span.attr("bytes", trace->bytes());
  }
  return *trace;
}

RuntimeSampler::RuntimeSampler(const meta::Metagraph& mg,
                               const model::CesmModel& control_model,
                               const model::CesmModel& experiment_model,
                               model::RunConfig control_config,
                               model::RunConfig experiment_config,
                               double rms_threshold)
    : RuntimeSampler(mg,
                     std::make_shared<LazyTrace>(mg, control_model,
                                                 std::move(control_config),
                                                 "control"),
                     experiment_model, std::move(experiment_config),
                     rms_threshold) {}

RuntimeSampler::RuntimeSampler(const meta::Metagraph& mg,
                               std::shared_ptr<LazyTrace> control,
                               const model::CesmModel& experiment_model,
                               model::RunConfig experiment_config,
                               double rms_threshold)
    : control_(std::move(control)),
      experiment_{mg, experiment_model, std::move(experiment_config),
                  "experiment", nullptr, {}},
      rms_threshold_(rms_threshold) {}

std::vector<Difference> RuntimeSampler::detect_with_magnitudes(
    const std::vector<NodeId>& sites) {
  const RunTrace& a = control_->get();
  const RunTrace& b = experiment_.get();
  std::vector<Difference> differing;
  for (NodeId v : sites) {
    const interp::WatchStats& sa = a.stats(v);
    const interp::WatchStats& sb = b.stats(v);
    if (sa.count == 0 && sb.count == 0) continue;
    const double ra = sa.rms();
    const double rb = sb.rms();
    const double scale = std::max({std::abs(ra), std::abs(rb), 1e-300});
    const double rel = std::abs(ra - rb) / scale;
    if (rel > rms_threshold_ || sa.count != sb.count) {
      differing.push_back(Difference{v, rel});
    }
  }
  return differing;
}

// ---------------------------------------------------------------------------
// RefinementEngine.
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<NodeId>> detect_communities(
    const graph::Digraph& g, const RefinementOptions& opts) {
  if (opts.community_method == CommunityMethod::kLouvain) {
    graph::LouvainOptions lv;
    lv.min_community_size = opts.min_community_size;
    return louvain(g, lv).communities;
  }
  graph::GirvanNewmanOptions gn;
  gn.iterations = opts.gn_iterations;
  gn.min_community_size = opts.min_community_size;
  gn.budget_ms = opts.gn_budget_ms;
  gn.pool = opts.pool;
  return graph::communities_with_budget(g, gn).communities;
}

}  // namespace

RefinementEngine::RefinementEngine(const meta::Metagraph& mg, Sampler& sampler,
                                   const RefinementOptions& opts)
    : mg_(mg), sampler_(sampler), opts_(opts) {}

RefinementResult RefinementEngine::run(
    const std::vector<NodeId>& slice_nodes,
    const std::vector<NodeId>& bug_nodes,
    const std::vector<NodeId>& excluded_sites) {
  RCA_CHECK_MSG(!slice_nodes.empty(), "refinement needs a non-empty slice");
  RefinementResult result;

  std::vector<bool> is_bug(mg_.node_count(), false);
  for (NodeId v : bug_nodes) is_bug[v] = true;
  std::vector<bool> is_excluded(mg_.node_count(), false);
  for (NodeId v : excluded_sites) is_excluded[v] = true;

  std::vector<NodeId> current = slice_nodes;
  std::sort(current.begin(), current.end());

  for (std::size_t iter = 1; iter <= opts_.max_iterations; ++iter) {
    if (current.size() <= opts_.small_enough) break;
    obs::Span iter_span("refinement.iteration");
    obs::count("refinement.iterations");
    iter_span.attr("iteration", iter);

    // Induce the working subgraph; local ids index into `current`.
    graph::Digraph sub = induced_subgraph(mg_.graph(), current, nullptr);

    IterationReport report;
    report.subgraph_nodes = sub.node_count();
    report.subgraph_edges = sub.edge_count();
    iter_span.attr("subgraph_nodes", report.subgraph_nodes);
    iter_span.attr("subgraph_edges", report.subgraph_edges);

    // Step 5: community detection on the weakly connected (undirected)
    // view — Girvan-Newman by default, Louvain optionally.
    const std::vector<std::vector<NodeId>> communities =
        detect_communities(sub, opts_);
    if (communities.empty()) {
      // Paper's issue 2: increasingly disconnected subgraphs eventually
      // yield no communities; the remaining nodes go to manual analysis.
      result.iterations.push_back(std::move(report));
      if (opts_.on_iteration &&
          !opts_.on_iteration(result.iterations.back(), current)) {
        result.cancelled = true;
      }
      break;
    }

    // Step 6: eigenvector in-centrality per community, top-m sites.
    // Step 7: sample each community independently (parallel tasks).
    iter_span.attr("communities", communities.size());
    for (const auto& comm : communities) {
      obs::observe("refinement.community_size",
                   static_cast<double>(comm.size()));
    }
    report.communities.resize(communities.size());
    auto sample_community = [&](std::size_t c) {
      const std::vector<NodeId>& members_local = communities[c];
      // Rank everything, then take the top m sampleable (non-excluded) sites.
      std::vector<double> centrality;
      const std::vector<NodeId> ranked = graph::rank_by_in_centrality(
          sub, members_local, members_local.size(), &centrality);
      CommunityReport& cr = report.communities[c];
      for (NodeId local : members_local) cr.members.push_back(current[local]);
      for (std::size_t r = 0; r < ranked.size(); ++r) {
        if (cr.sampled.size() >= opts_.samples_per_community) break;
        const NodeId full = current[ranked[r]];
        if (is_excluded[full]) continue;
        cr.sampled.push_back(full);
        cr.sampled_centrality.push_back(centrality[r]);
      }
      obs::Span sample_span("refinement.sample");
      sample_span.attr("sites", cr.sampled.size());
      for (const Difference& d : sampler_.detect_with_magnitudes(cr.sampled)) {
        cr.differing.push_back(d.node);
        cr.difference_magnitudes.push_back(d.magnitude);
      }
      sample_span.attr("differing", cr.differing.size());
    };
    parallel_for(opts_.pool, report.communities.size(), sample_community);

    // Bookkeeping for evaluation.
    std::vector<NodeId> all_sampled_local;
    std::vector<NodeId> all_differing_local;
    std::vector<double> all_magnitudes;
    std::unordered_map<NodeId, NodeId> to_local;
    for (NodeId local = 0; local < current.size(); ++local) {
      to_local[current[local]] = local;
    }
    for (const CommunityReport& cr : report.communities) {
      for (NodeId full : cr.sampled) {
        all_sampled_local.push_back(to_local.at(full));
        if (is_bug[full] && result.bug_instrumented_at == 0) {
          result.bug_instrumented_at = iter;
        }
      }
      for (std::size_t d = 0; d < cr.differing.size(); ++d) {
        all_differing_local.push_back(to_local.at(cr.differing[d]));
        all_magnitudes.push_back(cr.difference_magnitudes[d]);
      }
    }
    report.detected = !all_differing_local.empty();
    if (report.detected && result.first_detection_at == 0) {
      result.first_detection_at = iter;
    }
    iter_span.attr("sampled_sites", all_sampled_local.size());
    iter_span.attr("differing_sites", all_differing_local.size());
    obs::count("refinement.sampled_sites", all_sampled_local.size());
    obs::count("refinement.differing_sites", all_differing_local.size());

    // Step 8.
    std::vector<NodeId> next;
    if (all_differing_local.empty()) {
      // 8a: drop every node on BFS shortest paths terminating on the
      // sampled (silent) sites — i.e. their ancestors within G.
      report.applied_8a = true;
      std::vector<NodeId> remove_local =
          graph::ancestors_of(sub, all_sampled_local);
      std::vector<bool> removed(current.size(), false);
      for (NodeId local : remove_local) removed[local] = true;
      for (NodeId local = 0; local < current.size(); ++local) {
        if (!removed[local]) next.push_back(current[local]);
      }
    } else {
      // 8b: keep only nodes on BFS shortest paths terminating on the
      // differing sites.
      std::vector<NodeId> keep_local =
          graph::ancestors_of(sub, all_differing_local);
      std::sort(keep_local.begin(), keep_local.end());
      for (NodeId local : keep_local) next.push_back(current[local]);
    }

    bool unchanged = next == current;
    if (unchanged && opts_.rank_differences_on_stall &&
        !all_differing_local.empty()) {
      // Paper §6.3 future work: rank the differences and refine on the
      // single most-affected site.
      std::size_t best = 0;
      for (std::size_t d = 1; d < all_magnitudes.size(); ++d) {
        if (all_magnitudes[d] > all_magnitudes[best]) best = d;
      }
      std::vector<NodeId> keep_local =
          graph::ancestors_of(sub, {all_differing_local[best]});
      std::sort(keep_local.begin(), keep_local.end());
      next.clear();
      for (NodeId local : keep_local) next.push_back(current[local]);
      unchanged = next == current;
      report.stall_broken = !unchanged;
      if (report.stall_broken) obs::count("refinement.stall_breaks");
    }
    result.iterations.push_back(std::move(report));
    if (opts_.on_iteration &&
        !opts_.on_iteration(result.iterations.back(), next)) {
      result.cancelled = true;
      if (!next.empty() && next != current) current = std::move(next);
      break;
    }
    if (next.empty()) {
      current.clear();
      break;
    }
    if (unchanged) {
      // Paper's issue 1: the induced subgraph equals the previous one; no
      // further static refinement is possible without value magnitudes.
      result.stalled = true;
      break;
    }
    current = std::move(next);
  }

  result.final_nodes = std::move(current);
  return result;
}

}  // namespace rca::engine
