// Scenario scoring harness: runs the full pipeline (ensemble -> UF-ECT ->
// variable selection -> backward slice -> iterative refinement) once per
// planted root-cause scenario (model/scenario.hpp) and reports whether the
// planted cause lands in the top-m ranked sites. Two ranks per scenario:
//
//   baseline — the planted node's best eigenvector in-centrality rank over
//              the raw backward slice (what a developer staring at the
//              slice would see);
//   refined  — the same rank over the refinement's final subgraph (what
//              Algorithm 5.4 leaves on the table).
//
// hit = refined rank < top_m. The scoreboard is seed-stable: identical
// seeds produce byte-identical scoreboard_json output (BENCH_campaign.json
// in the perf lane).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/pipeline.hpp"

namespace rca::campaign {

struct ScenarioScore {
  std::string name;
  std::string kind;  // cause_kind_name
  std::size_t planted_nodes = 0;
  /// UF-ECT verdict failed on the 3-run experimental set (discrepancy seen).
  bool ect_detected = false;
  std::size_t slice_nodes = 0;
  std::size_t final_nodes = 0;
  std::size_t iterations = 0;
  bool stalled = false;
  bool bug_in_final = false;
  /// Iteration (1-based) at which a planted node was sampled; 0 = never.
  std::size_t bug_instrumented_at = 0;
  /// SIZE_MAX when no planted node is ranked at all.
  std::size_t baseline_rank = SIZE_MAX;
  std::size_t refined_rank = SIZE_MAX;
  bool hit = false;

  bool operator==(const ScenarioScore&) const = default;
};

struct ScoreOptions {
  /// A planted site ranked strictly inside the top-m counts as a hit.
  std::size_t top_m = 15;
  /// Sample communities with real ensemble-vs-experiment model runs
  /// (RuntimeSampler) instead of reachability simulation.
  bool runtime_sampling = false;
  /// Restrict to these scenario names; empty scores the whole library.
  std::vector<std::string> only;
  /// Pipeline configuration (corpus scale, ensemble size, threads, ...).
  engine::PipelineConfig pipeline;
};

struct Scoreboard {
  std::vector<ScenarioScore> scores;
  std::size_t top_m = 15;
  std::size_t hits = 0;
  std::size_t fp_scenarios = 0;  // FP-perturbation scenarios scored
  double hit_rate = 0.0;
};

/// The scoreboard row of one scenario's outcome; `graph` is the pipeline's
/// full metagraph digraph.
ScenarioScore score_outcome(const model::ScenarioSpec& s,
                            const engine::ExperimentOutcome& out,
                            const graph::Digraph& graph, std::size_t top_m);

/// Runs every selected scenario through one shared Pipeline (bug corpora are
/// built once per BugId and cached) and scores it.
Scoreboard score_scenarios(const ScoreOptions& opts = {});

/// rca.campaign.score.v1 document (deterministic; unranked ranks emit -1).
std::string scoreboard_json(const Scoreboard& board);

/// Human-readable table on stdout.
void print_scoreboard(const Scoreboard& board);

}  // namespace rca::campaign
