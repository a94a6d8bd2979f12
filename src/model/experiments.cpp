#include "model/experiments.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace rca::model {

const std::vector<ExperimentSpec>& all_experiments() {
  static const std::vector<ExperimentSpec> kExperiments = {
      {ExperimentId::kWsubBug,
       "WSUBBUG",
       BugId::kWsub,
       false,
       false,
       // wsub is a module-level variable: empty subprogram scope.
       {{"microp_aero", "", "wsub"}}},
      {ExperimentId::kRandMt, "RAND-MT", BugId::kNone, true, false, {}},
      {ExperimentId::kGoffGratch,
       "GOFFGRATCH",
       BugId::kGoffGratch,
       false,
       false,
       {{"wv_saturation", "goffgratch_svp", "expo"},
        {"wv_saturation", "goffgratch_svp", "es"}}},
      {ExperimentId::kAvx2, "AVX2", BugId::kNone, false, true, {}},
      {ExperimentId::kRandomBug,
       "RANDOMBUG",
       BugId::kRandom,
       false,
       false,
       {{"phys_state_mod", "", "omega"}}},
      {ExperimentId::kDyn3Bug,
       "DYN3BUG",
       BugId::kDyn3,
       false,
       false,
       // pint/pmid are module-level variables of dyn_hydro.
       {{"dyn_hydro", "", "pint"}, {"dyn_hydro", "", "pmid"}}},
  };
  return kExperiments;
}

const ExperimentSpec& experiment(ExperimentId id) {
  for (const auto& spec : all_experiments()) {
    if (spec.id == id) return spec;
  }
  throw Error("unknown experiment id");
}

RunConfig experiment_run_config(const ExperimentSpec& spec,
                                const RunConfig& base) {
  RunConfig config = base;
  if (spec.swap_prng) config.prng_kind = "mt19937";
  if (spec.fma_all) config.fma_all = true;
  return config;
}

CorpusSpec experiment_corpus_spec(const ExperimentSpec& spec,
                                  const CorpusSpec& base) {
  CorpusSpec out = base;
  out.bug = spec.bug;
  return out;
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

}  // namespace rca::model
