// CesmModel: parse the generated corpus once, run it many times.
//
// A "run" is the UF-CAM-ECT workload: initialize, apply an O(1e-14)
// initial-condition perturbation keyed by the ensemble-member seed, advance
// nine time steps, and read each history field's final global mean. Ensemble
// members differ only by perturbation seed; experiments additionally change
// the PRNG kind (RAND-MT), per-module FMA contraction (AVX2), or run a
// corpus generated with an injected source bug.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.hpp"
#include "interp/program.hpp"
#include "lang/ast.hpp"
#include "model/corpus.hpp"
#include "stats/matrix.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::model {

struct RunConfig {
  /// Ensemble-member identity: seeds the initial-condition perturbation.
  std::uint64_t member_seed = 1;
  /// Model time steps (UF-CAM-ECT evaluates at step nine).
  int timesteps = 9;
  /// PRNG backing shr_rand_uniform: "kiss" (default) or "mt19937" (RAND-MT).
  std::string prng_kind = "kiss";
  /// Enable FMA contraction in every module (AVX2 experiment)...
  bool fma_all = false;
  /// ...except these (Table 1's selective disablement rows).
  std::vector<std::string> fma_disabled_modules;
  /// Reassociate every >=3-term +/- chain right-to-left (the -Ofast-style
  /// perturbation behind the reassociation scenario).
  bool reassoc_all = false;
  /// Runtime sampling sites (Algorithm 5.4 step 7).
  std::vector<interp::WatchKey> watches;
};

struct RunResult {
  /// Output labels (lower-cased), sorted; stable across runs of one corpus.
  std::vector<std::string> output_names;
  /// Final-step global mean per label, aligned with output_names.
  std::vector<double> output_means;
  /// Sampled statistics per watch key.
  std::unordered_map<interp::WatchKey, interp::WatchStats,
                     interp::WatchKeyHash>
      watch_stats;
};

class CesmModel {
 public:
  /// When `pool` is non-null the corpus files are lexed/parsed concurrently
  /// (each file is independent); the compiled-module filter then runs
  /// serially in file order, so the module list is identical either way.
  /// The pool also fans out ensemble_matrix / experiment_set members.
  /// The compiled modules are resolved once into a Program that every run,
  /// on any thread, shares.
  explicit CesmModel(const CorpusSpec& spec, rca::ThreadPool* pool = nullptr);

  const CorpusSpec& spec() const { return spec_; }
  const GeneratedCorpus& corpus() const { return corpus_; }

  /// ASTs of the compiled (build-configuration) modules.
  const std::vector<const lang::Module*>& compiled_modules() const {
    return module_ptrs_;
  }

  /// Source files that failed to parse (the paper reports ~10 unhandled
  /// assignments; our own corpus should parse fully).
  std::size_t parse_failures() const { return parse_failures_; }

  /// The resolved corpus every run executes (immutable, shared).
  const interp::Program& program() const { return *program_; }

  /// Pool the model was constructed with (may be null).
  rca::ThreadPool* pool() const { return pool_; }

  /// Execute one run. Serial and thread-safe: concurrent calls share only
  /// the immutable Program.
  RunResult run(const RunConfig& config) const;

  /// Short instrumented run recording module/subprogram coverage (the
  /// codecov substitute; the paper uses the second time step).
  interp::CoverageRecorder coverage_run(int timesteps = 2) const;

 private:
  CorpusSpec spec_;
  GeneratedCorpus corpus_;
  std::vector<lang::SourceFile> parsed_files_;
  std::vector<const lang::Module*> module_ptrs_;
  std::size_t parse_failures_ = 0;
  rca::ThreadPool* pool_ = nullptr;
  std::unique_ptr<interp::Program> program_;
};

/// Ensemble of `members` control runs; returns rows = members, cols =
/// variables, and fills `names` with the output labels (sorted). Members
/// run on the model's pool (inline when called from one of its workers)
/// and land by member index, so the matrix does not depend on scheduling.
stats::Matrix ensemble_matrix(const CesmModel& model, const RunConfig& base,
                              std::size_t members,
                              std::vector<std::string>* names,
                              std::uint64_t first_seed = 1);

/// One experimental set of `runs` runs with seeds first_seed.. — the
/// 3-run sets pyCECT evaluates. Fanned out like ensemble_matrix.
std::vector<std::vector<double>> experiment_set(
    const CesmModel& model, const RunConfig& base, std::size_t runs,
    std::uint64_t first_seed, const std::vector<std::string>& names);

}  // namespace rca::model
