// Shared helpers for the table/figure regeneration harnesses.
//
// Every binary in bench/ regenerates one table or figure of the paper and
// prints (a) our measured values and (b) the paper's reported values for
// shape comparison. Absolute numbers differ by design: the substrate is a
// scaled synthetic model, not CESM on Cheyenne (see DESIGN.md §2).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/pipeline.hpp"
#include "graph/betweenness.hpp"
#include "graph/ugraph.hpp"
#include "model/scenario.hpp"
#include "stats/descriptive.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace rca::bench {

/// Standard pipeline configuration for the experiment harnesses.
inline engine::PipelineConfig default_config() {
  engine::PipelineConfig config;
  config.ensemble_members = 40;
  config.experimental_runs = 12;
  return config;
}

/// The library row a harness runs; a missing row is a harness bug.
inline const model::ScenarioSpec& scenario(const std::string& name) {
  const model::ScenarioSpec* s = model::find_scenario(name);
  if (s == nullptr) {
    std::fprintf(stderr, "no scenario named '%s'\n", name.c_str());
    std::exit(2);
  }
  return *s;
}

/// The paper's six experiments in its order of presentation (§6.1-§6.4,
/// then §8.2.1-§8.2.2).
inline std::vector<const model::ScenarioSpec*> paper_scenarios() {
  std::vector<const model::ScenarioSpec*> rows;
  for (const char* name : {"wsub", "prng", "goffgratch", "fma-contraction",
                           "random-node", "dyn3"}) {
    rows.push_back(&scenario(name));
  }
  return rows;
}

/// The paper's AVX2 ground truth (§6.4): the KGen-flagged micro_mg
/// variables, as nodes of the pipeline's metagraph. The fma-contraction row
/// itself scores against its fpsense sites.
inline std::vector<graph::NodeId> kgen_nodes(const engine::Pipeline& pipe) {
  const meta::Metagraph& mg = pipe.metagraph();
  std::vector<graph::NodeId> nodes;
  for (const interp::WatchKey& key :
       model::kgen_flagged_variables(pipe.control_model(), mg)) {
    const graph::NodeId v = mg.find(key.module, key.subprogram, key.name);
    if (v != graph::kInvalidNode) nodes.push_back(v);
  }
  return nodes;
}

/// Wall time of one call, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Fixed serial workload the perf trajectories (BENCH_graph.json,
/// BENCH_parse.json, BENCH_service.json) normalize by, so their `normalized`
/// values share one runner-independent unit: median wall time of five exact
/// edge-betweenness runs on a deterministic preferential-attachment graph
/// (600 nodes, 1,183 edges).
inline double calibration_ms() {
  SplitMix64 rng(7);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::set<std::pair<graph::NodeId, graph::NodeId>> accepted;
  std::vector<graph::NodeId> pool = {0};
  for (graph::NodeId v = 1; v < 600; ++v) {
    for (int e = 0; e < 2; ++e) {
      const graph::NodeId t = pool[rng.next() % pool.size()];
      if (t != v && accepted.insert({v, t}).second) {
        edges.emplace_back(v, t);
        pool.push_back(t);
        pool.push_back(v);
      }
    }
  }
  const graph::Digraph g(600, std::move(edges));
  if (g.edge_count() != 1183) {
    std::fprintf(stderr, "calibration graph drifted: %zu edges, want 1183\n",
                 g.edge_count());
    std::exit(2);
  }
  const graph::UGraph ug(g);
  std::vector<double> times;
  for (int r = 0; r < 5; ++r) {
    times.push_back(time_ms([&ug] { (void)graph::edge_betweenness(ug); }));
  }
  return stats::median(times);
}

/// One-line header with the paper reference.
inline void banner(const std::string& artifact, const std::string& summary) {
  std::printf("=== %s ===\n", artifact.c_str());
  std::printf("%s\n\n", summary.c_str());
}

/// Prints an iteration trace in the style of the paper's figure captions.
inline void print_refinement_trace(const meta::Metagraph& mg,
                                   const engine::RefinementResult& result,
                                   std::size_t show_sampled = 10) {
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& iter = result.iterations[i];
    std::printf("iteration %zu: subgraph %zu nodes / %zu edges, %zu communities",
                i + 1, iter.subgraph_nodes, iter.subgraph_edges,
                iter.communities.size());
    std::printf(" (sizes:");
    for (const auto& c : iter.communities) std::printf(" %zu", c.members.size());
    std::printf("), %s\n", iter.detected
                               ? "difference DETECTED -> step 8b"
                               : "no difference -> step 8a");
    for (std::size_t c = 0; c < iter.communities.size(); ++c) {
      const auto& comm = iter.communities[c];
      std::printf("  community %zu (%zu nodes): sampled", c,
                  comm.members.size());
      for (std::size_t k = 0; k < comm.sampled.size() && k < show_sampled; ++k) {
        std::printf(" %s(%.4f)", mg.info(comm.sampled[k]).unique_name.c_str(),
                    comm.sampled_centrality[k]);
      }
      std::printf(" | differing: %zu\n", comm.differing.size());
    }
  }
  std::printf("final subgraph: %zu nodes%s\n", result.final_nodes.size(),
              result.stalled ? " (stalled: static fixed point, needs value "
                               "magnitudes — paper issue 1)"
                             : "");
  if (result.first_detection_at) {
    std::printf("first detection at iteration %zu\n", result.first_detection_at);
  }
  if (result.bug_instrumented_at) {
    std::printf("bug site instrumented at iteration %zu\n",
                result.bug_instrumented_at);
  }
}

inline void print_selection(const engine::ExperimentOutcome& outcome) {
  std::printf("lasso-selected outputs:");
  for (const auto& s : outcome.lasso_selected) std::printf(" %s", s.c_str());
  std::printf("\nmedian-distance top 5:");
  for (std::size_t k = 0; k < 5 && k < outcome.median_ranked.size(); ++k) {
    std::printf(" %s(%.3g%s)", outcome.median_ranked[k].name.c_str(),
                outcome.median_ranked[k].median_distance,
                outcome.median_ranked[k].iqr_disjoint ? "*" : "");
  }
  std::printf("\nslicing criteria:");
  for (const auto& s : outcome.criteria_outputs) std::printf(" %s", s.c_str());
  std::printf("\ninternal names:");
  for (const auto& s : outcome.internal_names) std::printf(" %s", s.c_str());
  std::printf("\n");
}

}  // namespace rca::bench
