#include "model/model.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "lang/parser.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rca::model {

CesmModel::CesmModel(const CorpusSpec& spec, rca::ThreadPool* pool)
    : spec_(spec), corpus_(generate_corpus(spec)), pool_(pool) {
  // Parse only the compiled (build-configuration) files — the KGen-style
  // 2400 -> 820 reduction happens before parsing in the paper too.
  std::unordered_map<std::string, bool> compiled;
  for (const auto& name : corpus_.compiled_modules) compiled[name] = true;

  // Each file lexes/parses independently; slots keep file order so the
  // assembly below is deterministic regardless of scheduling.
  std::vector<std::optional<lang::SourceFile>> slots(corpus_.files.size());
  std::vector<char> failed(corpus_.files.size(), 0);
  auto parse_one = [this, &slots, &failed](std::size_t i) {
    const GeneratedFile& file = corpus_.files[i];
    try {
      lang::Parser parser(file.path, file.text);
      slots[i] = parser.parse_file();
    } catch (const ParseError&) {
      failed[i] = 1;
    }
  };
  parallel_for(pool, corpus_.files.size(), parse_one);

  parsed_files_.reserve(corpus_.files.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (failed[i]) {
      ++parse_failures_;
      continue;
    }
    if (!slots[i]) continue;
    bool any_compiled = false;
    for (const auto& m : slots[i]->modules) {
      if (compiled.count(m.name)) any_compiled = true;
    }
    if (!any_compiled) continue;
    parsed_files_.push_back(std::move(*slots[i]));
  }
  for (const auto& f : parsed_files_) {
    for (const auto& m : f.modules) {
      if (compiled.count(m.name)) module_ptrs_.push_back(&m);
    }
  }
  program_ = std::make_unique<interp::Program>(module_ptrs_);
}

namespace {

/// Relative initial-condition perturbation magnitude (CESM uses O(1e-14)).
constexpr double kPerturbation = 1e-14;
/// PRNG seed — fixed across members, like CESM's deterministic kissvec
/// seeding; ensemble spread comes from the IC perturbation only.
constexpr std::uint64_t kPrngSeed = 777;

/// Applies the member-specific initial-condition perturbation: every
/// prognostic field element is scaled by (1 + eps) with |eps| <=
/// kPerturbation, mirroring CESM's O(1e-14) temperature perturbations.
void perturb_initial_conditions(interp::Interpreter& interp,
                                std::uint64_t member_seed) {
  SplitMix64 rng(member_seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull);
  auto perturb_array = [&rng](interp::Value& v) {
    for (double& x : v.array) {
      x *= 1.0 + kPerturbation * (2.0 * rng.uniform() - 1.0);
    }
  };
  auto state = interp.module_var("phys_state_mod", "state");
  for (const char* field : {"t", "u", "v", "q", "ps"}) {
    perturb_array(*state->derived->components.at(field));
  }
  perturb_array(*interp.module_var("lnd_soil", "soilw"));
  perturb_array(*interp.module_var("ocn_pop", "sst"));
}

std::unique_ptr<interp::Interpreter> make_interpreter(
    const interp::Program& program, const RunConfig& config) {
  auto interp = std::make_unique<interp::Interpreter>(program);
  interp->set_prng(make_prng(config.prng_kind, kPrngSeed));
  if (config.fma_all) interp->set_fma_all(true);
  for (const auto& m : config.fma_disabled_modules) {
    interp->set_fma(m, false);
  }
  if (config.reassoc_all) interp->set_reassoc_all(true);
  for (const auto& w : config.watches) interp->add_watch(w);
  return interp;
}

}  // namespace

RunResult CesmModel::run(const RunConfig& config) const {
  obs::count("model.runs");
  obs::count("model.timesteps", static_cast<std::uint64_t>(config.timesteps));
  obs::count("model.watches", config.watches.size());
  auto interp = make_interpreter(*program_, config);
  interp->call("cam_driver", "cam_init");
  perturb_initial_conditions(*interp, config.member_seed);
  for (int step = 0; step < config.timesteps; ++step) {
    interp->call("cam_driver", "cam_step");
  }

  // Last outfld value per label = the final-step history field.
  std::map<std::string, double> last;
  for (const auto& [label, mean] : interp->outputs()) last[label] = mean;

  RunResult result;
  result.output_names.reserve(last.size());
  result.output_means.reserve(last.size());
  for (const auto& [label, mean] : last) {
    result.output_names.push_back(label);
    result.output_means.push_back(mean);
  }
  result.watch_stats = interp->take_watch_stats();
  return result;
}

interp::CoverageRecorder CesmModel::coverage_run(int timesteps) const {
  RunConfig config;
  config.timesteps = timesteps;
  auto interp = make_interpreter(*program_, config);
  interp->call("cam_driver", "cam_init");
  for (int step = 0; step < timesteps; ++step) {
    interp->call("cam_driver", "cam_step");
  }
  return interp->coverage();
}

namespace {

/// Runs members first_seed.. of `base` on the model's pool (serially
/// without one), each result stored at its member index.
std::vector<RunResult> run_members(const CesmModel& model,
                                   const RunConfig& base, std::size_t members,
                                   std::uint64_t first_seed) {
  std::vector<RunResult> results(members);
  auto run_one = [&](std::size_t m) {
    RunConfig config = base;
    config.member_seed = first_seed + m;
    results[m] = model.run(config);
  };
  parallel_for(model.pool(), members, run_one);
  return results;
}

std::size_t workers(const CesmModel& model) {
  return model.pool() != nullptr ? model.pool()->size() : 1;
}

}  // namespace

stats::Matrix ensemble_matrix(const CesmModel& model, const RunConfig& base,
                              std::size_t members,
                              std::vector<std::string>* names,
                              std::uint64_t first_seed) {
  RCA_CHECK_MSG(members >= 2, "ensemble needs at least two members");
  obs::Span span("model.ensemble");
  span.attr("members", members);
  span.attr("workers", workers(model));
  const std::vector<RunResult> runs =
      run_members(model, base, members, first_seed);
  if (names) *names = runs[0].output_names;
  stats::Matrix data(members, runs[0].output_means.size());
  for (std::size_t m = 0; m < members; ++m) {
    RCA_CHECK_MSG(runs[m].output_means.size() == data.cols(),
                  "inconsistent output width across members");
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data.at(m, j) = runs[m].output_means[j];
    }
  }
  return data;
}

std::vector<std::vector<double>> experiment_set(
    const CesmModel& model, const RunConfig& base, std::size_t runs,
    std::uint64_t first_seed, const std::vector<std::string>& names) {
  obs::Span span("model.experiment");
  span.attr("runs", runs);
  span.attr("workers", workers(model));
  std::vector<RunResult> results = run_members(model, base, runs, first_seed);
  std::vector<std::vector<double>> out;
  out.reserve(runs);
  for (RunResult& result : results) {
    RCA_CHECK_MSG(result.output_names == names,
                  "experimental run output labels differ from ensemble");
    out.push_back(std::move(result.output_means));
  }
  return out;
}

}  // namespace rca::model
