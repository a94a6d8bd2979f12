#include "model/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "analysis/fpsense.hpp"
#include "analysis/passes.hpp"
#include "analysis/summaries.hpp"
#include "graph/bfs.hpp"
#include "support/error.hpp"

namespace rca::model {

const char* cause_kind_name(CauseKind kind) {
  switch (kind) {
    case CauseKind::kSourceBug: return "source-bug";
    case CauseKind::kMultiSiteBug: return "multi-site-bug";
    case CauseKind::kPrngSwap: return "prng-swap";
    case CauseKind::kFpContraction: return "fp-contraction";
    case CauseKind::kFpReassociation: return "fp-reassociation";
  }
  return "unknown";
}

const std::vector<ScenarioSpec>& scenario_library() {
  static const std::vector<ScenarioSpec> kScenarios = {
      {"wsub",
       "WSUBBUG",
       "W-subgrid vertical-velocity coefficient bug (paper 6.1)",
       CauseKind::kSourceBug,
       BugId::kWsub,
       false, false, false,
       {{"microp_aero", "", "wsub"}},
       ""},
      {"random-node",
       "RANDOMBUG",
       "randomly chosen single-assignment bug (paper 8.2.1)",
       CauseKind::kSourceBug,
       BugId::kRandom,
       false, false, false,
       {{"phys_state_mod", "", "omega"}},
       ""},
      {"dyn3",
       "DYN3BUG",
       "hydrostatic three-term multi-site bug (paper 8.2.2)",
       CauseKind::kMultiSiteBug,
       BugId::kDyn3,
       false, false, false,
       {{"dyn_hydro", "", "pint"}, {"dyn_hydro", "", "pmid"}},
       ""},
      {"goffgratch",
       "GOFFGRATCH",
       "saturation vapor pressure formulation swap (paper 6.3)",
       CauseKind::kMultiSiteBug,
       BugId::kGoffGratch,
       false, false, false,
       {{"wv_saturation", "goffgratch_svp", "expo"},
        {"wv_saturation", "goffgratch_svp", "es"}},
       ""},
      {"prng",
       "RAND-MT",
       "PRNG swap kiss -> mt19937 (paper 6.2)",
       CauseKind::kPrngSwap,
       BugId::kNone,
       true, false, false,
       {},
       ""},
      {"fma-contraction",
       "AVX2",
       "FMA contraction everywhere; fpsense contraction sites in MG1",
       CauseKind::kFpContraction,
       BugId::kNone,
       false, true, false,
       {},
       "micro_mg"},
      {"reassoc3",
       "",
       ">=3-term sums reassociated right-to-left; fpsense chain sites",
       CauseKind::kFpReassociation,
       BugId::kNone,
       false, false, true,
       {},
       "micro_mg"},
  };
  return kScenarios;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : scenario_library()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& s : scenario_library()) names.push_back(s.name);
  return names;
}

RunConfig scenario_run_config(const ScenarioSpec& s, const RunConfig& base) {
  RunConfig config = base;
  if (s.swap_prng) config.prng_kind = "mt19937";
  if (s.fma_all) config.fma_all = true;
  if (s.reassoc_all) config.reassoc_all = true;
  return config;
}

std::vector<interp::WatchKey> scenario_planted_sites(
    const ScenarioSpec& s, const std::vector<const lang::Module*>& modules) {
  if (s.kind != CauseKind::kFpContraction &&
      s.kind != CauseKind::kFpReassociation) {
    return s.sites;
  }
  const analysis::FpSite::Kind wanted = s.kind == CauseKind::kFpContraction
                                            ? analysis::FpSite::Kind::kContraction
                                            : analysis::FpSite::Kind::kReassociation;
  const analysis::ProgramSymbols symbols(modules);
  const analysis::ProgramSummaries summaries =
      analysis::compute_summaries(modules, symbols);

  // (module, subprogram, target) triples; std::set gives the deterministic
  // order and the dedup (one variable often anchors several chain sites).
  std::set<std::tuple<std::string, std::string, std::string>> triples;
  for (const lang::Module* m : modules) {
    if (!s.fp_module.empty() ? m->name != s.fp_module
                             : !is_cam_module(m->name)) {
      continue;
    }
    const analysis::ProgramSymbols::ModuleSyms* syms = symbols.module(m->name);
    analysis::FpCallOracle oracle = [&](const std::string& name,
                                        std::size_t nargs) {
      if (syms == nullptr) return false;
      auto pit = syms->procs.find(name);
      if (pit == syms->procs.end()) return false;
      for (const analysis::ProcRef& c : pit->second) {
        if (!c.sp->is_function() || c.sp->params.size() != nargs) continue;
        if (summaries.proc(c.node).returns_real) return true;
      }
      return false;
    };
    for (const lang::Subprogram& sp : m->subprograms) {
      for (const analysis::FpSite& site :
           analysis::find_fp_sites(sp, syms, oracle)) {
        if (site.kind != wanted || site.target.empty()) continue;
        triples.emplace(m->name, sp.name, site.target);
      }
    }
  }
  std::vector<interp::WatchKey> keys;
  for (const auto& [module, sub, name] : triples) {
    keys.push_back({module, sub, name});
  }
  return keys;
}

std::vector<graph::NodeId> resolve_sites(
    const meta::Metagraph& mg, const std::vector<interp::WatchKey>& keys) {
  std::vector<graph::NodeId> nodes;
  for (const interp::WatchKey& key : keys) {
    graph::NodeId v = mg.find(key.module, key.subprogram, key.name);
    if (v == graph::kInvalidNode && !key.subprogram.empty()) {
      v = mg.find(key.module, "", key.name);
    }
    if (v != graph::kInvalidNode) nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

std::vector<graph::NodeId> scenario_planted_nodes(
    const ScenarioSpec& s, const meta::Metagraph& mg,
    const std::vector<const lang::Module*>& modules) {
  if (s.kind == CauseKind::kPrngSwap) return prng_influenced_nodes(mg);
  return resolve_sites(mg, scenario_planted_sites(s, modules));
}

std::vector<graph::NodeId> prng_influenced_nodes(const meta::Metagraph& mg) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < mg.node_count(); ++v) {
    if (!mg.info(v).is_prng_site) continue;
    for (graph::NodeId succ : mg.graph().out_neighbors(v)) {
      out.push_back(succ);
      // One hop further: variables defined *from* the PRNG-filled array
      // (emis = f(rnd_lw), ssa = f(rnd_sw)) are bug locations too.
      for (graph::NodeId succ2 : mg.graph().out_neighbors(succ)) {
        if (!mg.info(succ2).is_intrinsic) out.push_back(succ2);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<interp::WatchKey> kgen_flagged_variables(
    const CesmModel& control_model, const meta::Metagraph& mg,
    double threshold) {
  // Watch every non-intrinsic variable of the MG1 module (the extracted
  // "kernel"), run FMA-off and FMA-on, compare normalized RMS.
  RunConfig config;
  for (graph::NodeId v : mg.by_module("micro_mg")) {
    if (mg.info(v).is_intrinsic || mg.info(v).is_prng_site) continue;
    config.watches.push_back(mg.watch_key(v));
  }
  RunResult off = control_model.run(config);
  RunConfig on = config;
  on.fma_all = true;
  RunResult fma = control_model.run(on);

  std::vector<interp::WatchKey> flagged;
  for (const auto& [key, stats_off] : off.watch_stats) {
    auto it = fma.watch_stats.find(key);
    if (it == fma.watch_stats.end()) continue;
    const double rms_off = stats_off.rms();
    const double rms_on = it->second.rms();
    const double scale = std::max({std::abs(rms_off), std::abs(rms_on), 1e-300});
    if (std::abs(rms_on - rms_off) / scale > threshold) flagged.push_back(key);
  }
  std::sort(flagged.begin(), flagged.end(),
            [](const interp::WatchKey& a, const interp::WatchKey& b) {
              if (a.subprogram != b.subprogram) return a.subprogram < b.subprogram;
              return a.name < b.name;
            });
  return flagged;
}

bool contains_any(const std::vector<graph::NodeId>& nodes,
                  const std::vector<graph::NodeId>& planted) {
  for (graph::NodeId p : planted) {
    if (std::find(nodes.begin(), nodes.end(), p) != nodes.end()) return true;
  }
  return false;
}

bool reaches_any_of(const graph::Digraph& g,
                    const std::vector<graph::NodeId>& from,
                    const std::vector<graph::NodeId>& to) {
  for (graph::NodeId v : from) {
    if (graph::reaches_any(g, v, to)) return true;
  }
  return false;
}

std::size_t count_planted(const std::vector<graph::NodeId>& ranked,
                          const std::vector<graph::NodeId>& planted,
                          std::size_t top_k) {
  std::size_t count = 0;
  for (std::size_t k = 0; k < ranked.size() && k < top_k; ++k) {
    if (std::find(planted.begin(), planted.end(), ranked[k]) !=
        planted.end()) {
      ++count;
    }
  }
  return count;
}

std::size_t best_rank(const std::vector<graph::NodeId>& ranked,
                      const std::vector<graph::NodeId>& planted) {
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    if (std::find(planted.begin(), planted.end(), ranked[k]) !=
        planted.end()) {
      return k;
    }
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace rca::model
