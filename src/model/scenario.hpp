// Deterministic library of planted root-cause scenarios.
//
// A scenario = a known cause planted into the synthetic corpus (a source
// bug, a PRNG swap, or an FP perturbation applied at run time) plus the
// ground-truth sites the refinement procedure is scored against. Source-bug
// scenarios carry their sites statically; the FP scenarios mine theirs with
// src/analysis/fpsense site detection (FMA-contraction shapes and >=3-term
// reassociation chains), so the planted perturbation and the scored sites
// come from the same static definition. The scoring harness
// (src/campaign/score) runs the full pipeline per scenario and reports
// whether a planted site lands in the top-m ranked nodes.
//
// The library is the one registry of planted causes: the paper's six
// experiments (§6, §8.2) are the rows with a `paper_id`. Every consumer runs
// a row through engine::Pipeline's stages: `rca-tool analyze`, the figure
// benches and `score` through Pipeline::run_scenario, and `/v1/refine` and
// `rca-tool refine` scenario campaigns through the same criteria, slice and
// sampler stages on a shared Pipeline.
//
// The evaluation helpers at the bottom are the checks the figure benches
// (fig12_randombug, exp_wsubbug, fig8_avx2) previously hand-rolled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "interp/interpreter.hpp"
#include "lang/ast.hpp"
#include "meta/metagraph.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"

namespace rca::model {

enum class CauseKind {
  kSourceBug,        // coefficient bug planted in one generated assignment
  kMultiSiteBug,     // source bug touching several sites at once
  kPrngSwap,         // kiss -> mt19937 (ground truth = PRNG-influenced set)
  kFpContraction,    // FMA contraction everywhere (fpsense-mined sites)
  kFpReassociation,  // >=3-term +/- chains resummed (fpsense-mined sites)
};

const char* cause_kind_name(CauseKind kind);

struct ScenarioSpec {
  std::string name;     // stable id: "wsub", "reassoc3", ...
  /// The paper's experiment name ("WSUBBUG", "RAND-MT", ...); empty for
  /// scenarios the paper does not evaluate.
  std::string paper_id;
  std::string summary;  // one line for reports
  CauseKind kind = CauseKind::kSourceBug;
  /// Source bug injected into the experiment corpus (kNone for runtime-only
  /// perturbations).
  BugId bug = BugId::kNone;
  // Runtime configuration deltas of the experimental runs.
  bool swap_prng = false;
  bool fma_all = false;
  bool reassoc_all = false;
  /// Static ground-truth sites (source-bug scenarios); FP/PRNG scenarios
  /// derive theirs — see scenario_planted_sites / prng_influenced_nodes.
  std::vector<interp::WatchKey> sites;
  /// FP scenarios: restrict fpsense mining to this module; empty scans every
  /// compiled CAM module.
  std::string fp_module;
};

/// The built-in scenarios, deterministic order. Covers the paper's planted
/// bugs (wsub, random-node, dyn3, goffgratch), the PRNG swap, and two FP
/// perturbations (contraction = the paper's AVX2, and reassociation).
const std::vector<ScenarioSpec>& scenario_library();

/// Null when no scenario has that name.
const ScenarioSpec* find_scenario(const std::string& name);

std::vector<std::string> scenario_names();

/// Applies the scenario's runtime deltas to a base run configuration.
RunConfig scenario_run_config(const ScenarioSpec& s, const RunConfig& base);

/// Ground-truth planted sites. Source-bug scenarios return their static
/// list; FP scenarios mine contraction/reassociation sites from the parsed
/// modules with analysis::find_fp_sites (deduplicated assignment targets,
/// deterministic order). PRNG scenarios have graph-derived ground truth —
/// use prng_influenced_nodes instead (this returns empty for them).
std::vector<interp::WatchKey> scenario_planted_sites(
    const ScenarioSpec& s, const std::vector<const lang::Module*>& modules);

/// Resolves watch keys to metagraph nodes: subprogram scope first, falling
/// back to module scope (generated locals often promote to module level).
/// Sorted, deduplicated; unresolvable keys are dropped.
std::vector<graph::NodeId> resolve_sites(
    const meta::Metagraph& mg, const std::vector<interp::WatchKey>& keys);

/// Planted nodes for a scenario on a metagraph built from `modules`
/// (prng_influenced_nodes for kPrngSwap, resolved planted sites otherwise).
std::vector<graph::NodeId> scenario_planted_nodes(
    const ScenarioSpec& s, const meta::Metagraph& mg,
    const std::vector<const lang::Module*>& modules);

/// RAND-MT ground truth: the variables immediately fed by a PRNG call site
/// (paper §6.2 "variables immediately influenced or defined by the numbers
/// returned from the PRNG").
std::vector<graph::NodeId> prng_influenced_nodes(const meta::Metagraph& mg);

/// The paper's AVX2 ground truth (the KGen emulation of §6.4): run the model
/// with FMA off and on, watching every micro_mg variable, and flag those
/// whose normalized RMS difference exceeds `threshold` (paper: 42 variables
/// at 1e-12). The fma-contraction row scores against its fpsense sites
/// instead; fig8_avx2 reproduces this listing.
std::vector<interp::WatchKey> kgen_flagged_variables(
    const CesmModel& control_model, const meta::Metagraph& mg,
    double threshold = 1e-12);

// -- evaluation helpers (shared by the figure benches and the scorer) ------

/// Any planted node present in `nodes`.
bool contains_any(const std::vector<graph::NodeId>& nodes,
                  const std::vector<graph::NodeId>& planted);

/// Any directed path from a node in `from` to a node in `to`.
bool reaches_any_of(const graph::Digraph& g,
                    const std::vector<graph::NodeId>& from,
                    const std::vector<graph::NodeId>& to);

/// Best (smallest) 0-based position of a planted node in a ranked list;
/// SIZE_MAX when no planted node is ranked.
std::size_t best_rank(const std::vector<graph::NodeId>& ranked,
                      const std::vector<graph::NodeId>& planted);

/// How many of the first `top_k` ranked nodes are planted (top_k = SIZE_MAX
/// counts the whole list).
std::size_t count_planted(const std::vector<graph::NodeId>& ranked,
                          const std::vector<graph::NodeId>& planted,
                          std::size_t top_k = static_cast<std::size_t>(-1));

}  // namespace rca::model
