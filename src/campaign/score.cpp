#include "campaign/score.hpp"

#include <algorithm>
#include <cstdio>

#include "graph/centrality.hpp"
#include "model/scenario.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"

namespace rca::campaign {

using graph::NodeId;

namespace {

/// Best planted rank under eigenvector in-centrality over the subgraph
/// induced on `nodes` (full-graph ids). SIZE_MAX when unranked.
std::size_t centrality_rank(const graph::Digraph& full,
                            const std::vector<NodeId>& nodes,
                            const std::vector<NodeId>& planted) {
  return model::best_rank(
      graph::rank_by_in_centrality(full, nodes, nodes.size()), planted);
}

bool is_fp_kind(const std::string& kind) {
  return kind == "fp-contraction" || kind == "fp-reassociation";
}

}  // namespace

ScenarioScore score_outcome(const model::ScenarioSpec& s,
                            const engine::ExperimentOutcome& out,
                            const graph::Digraph& graph, std::size_t top_m) {
  ScenarioScore score;
  score.name = s.name;
  score.kind = model::cause_kind_name(s.kind);
  score.planted_nodes = out.bug_nodes.size();
  score.ect_detected = !out.verdict.pass;
  score.slice_nodes = out.slice.nodes.size();
  score.final_nodes = out.refinement.final_nodes.size();
  score.iterations = out.refinement.iterations.size();
  score.stalled = out.refinement.stalled;
  score.bug_in_final =
      model::contains_any(out.refinement.final_nodes, out.bug_nodes);
  score.bug_instrumented_at = out.refinement.bug_instrumented_at;
  score.baseline_rank = centrality_rank(graph, out.slice.nodes, out.bug_nodes);
  score.refined_rank =
      centrality_rank(graph, out.refinement.final_nodes, out.bug_nodes);
  score.hit = score.refined_rank < top_m;
  return score;
}

Scoreboard score_scenarios(const ScoreOptions& opts) {
  engine::Pipeline pipeline(opts.pipeline);
  Scoreboard board;
  board.top_m = opts.top_m;
  for (const model::ScenarioSpec& s : model::scenario_library()) {
    if (!opts.only.empty() &&
        std::find(opts.only.begin(), opts.only.end(), s.name) ==
            opts.only.end()) {
      continue;
    }
    obs::Span span("campaign.score");
    span.attr("scenario", s.name);
    ScenarioScore score = score_outcome(
        s, pipeline.run_scenario(s, opts.runtime_sampling),
        pipeline.metagraph().graph(), opts.top_m);
    span.attr("hit", score.hit);
    board.scores.push_back(std::move(score));
  }
  for (const ScenarioScore& score : board.scores) {
    if (score.hit) ++board.hits;
    if (is_fp_kind(score.kind)) ++board.fp_scenarios;
  }
  board.hit_rate = board.scores.empty()
                       ? 0.0
                       : static_cast<double>(board.hits) /
                             static_cast<double>(board.scores.size());
  obs::gauge("campaign.score.hit_rate", board.hit_rate);
  return board;
}

std::string scoreboard_json(const Scoreboard& board) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.campaign.score.v1");
  w.key("top_m");
  w.integer(static_cast<long long>(board.top_m));
  w.key("scenarios");
  w.begin_array();
  for (const ScenarioScore& s : board.scores) {
    w.begin_object();
    w.key("name");
    w.string_value(s.name);
    w.key("kind");
    w.string_value(s.kind);
    w.key("planted");
    w.integer(static_cast<long long>(s.planted_nodes));
    w.key("ect_detected");
    w.boolean(s.ect_detected);
    w.key("slice_nodes");
    w.integer(static_cast<long long>(s.slice_nodes));
    w.key("final_nodes");
    w.integer(static_cast<long long>(s.final_nodes));
    w.key("iterations");
    w.integer(static_cast<long long>(s.iterations));
    w.key("stalled");
    w.boolean(s.stalled);
    w.key("bug_in_final");
    w.boolean(s.bug_in_final);
    w.key("bug_instrumented_at");
    w.integer(static_cast<long long>(s.bug_instrumented_at));
    w.key("baseline_rank");
    w.integer(s.baseline_rank == SIZE_MAX
                  ? -1
                  : static_cast<long long>(s.baseline_rank));
    w.key("refined_rank");
    w.integer(s.refined_rank == SIZE_MAX
                  ? -1
                  : static_cast<long long>(s.refined_rank));
    w.key("hit");
    w.boolean(s.hit);
    w.end_object();
  }
  w.end_array();
  w.key("scored");
  w.integer(static_cast<long long>(board.scores.size()));
  w.key("hits");
  w.integer(static_cast<long long>(board.hits));
  w.key("fp_scenarios");
  w.integer(static_cast<long long>(board.fp_scenarios));
  w.key("hit_rate");
  w.number(board.hit_rate);
  w.end_object();
  return w.str() + "\n";
}

void print_scoreboard(const Scoreboard& board) {
  std::printf("%-16s %-18s %8s %6s %6s %5s %9s %8s %4s\n", "scenario", "kind",
              "slice", "final", "iters", "ect", "baseline", "refined", "hit");
  for (const ScenarioScore& s : board.scores) {
    char baseline[24];
    char refined[24];
    if (s.baseline_rank == SIZE_MAX) {
      std::snprintf(baseline, sizeof(baseline), "-");
    } else {
      std::snprintf(baseline, sizeof(baseline), "%zu", s.baseline_rank);
    }
    if (s.refined_rank == SIZE_MAX) {
      std::snprintf(refined, sizeof(refined), "-");
    } else {
      std::snprintf(refined, sizeof(refined), "%zu", s.refined_rank);
    }
    std::printf("%-16s %-18s %8zu %6zu %6zu %5s %9s %8s %4s\n", s.name.c_str(),
                s.kind.c_str(), s.slice_nodes, s.final_nodes, s.iterations,
                s.ect_detected ? "FAIL" : "pass", baseline, refined,
                s.hit ? "YES" : "no");
  }
  std::printf("top-m=%zu  hit-rate %zu/%zu (%.0f%%), %zu FP scenarios\n",
              board.top_m, board.hits, board.scores.size(),
              100.0 * board.hit_rate, board.fp_scenarios);
}

}  // namespace rca::campaign
