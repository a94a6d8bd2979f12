// Tree-walking interpreter for the Fortran subset.
//
// This is the stand-in for "running CESM": the same source corpus that the
// metagraph builder turns into a dependency digraph is *executed* here, so
// runtime sampling, coverage, output statistics and hardware-style (FMA)
// sensitivity all come from genuinely running the analyzed code.
//
// Key capabilities used by the reproduction:
//   * per-module FMA contraction mode — `a*b + c` evaluated with std::fma
//     (single rounding) when enabled, mirroring AVX2/FMA codegen differences
//     that the paper's Table 1 manipulates per module;
//   * watchpoints on (module, subprogram, variable) — every assignment to a
//     watched variable feeds running statistics, the runtime-sampling
//     mechanism of Algorithm 5.4 step 7;
//   * coverage recording at module/subprogram granularity (the paper's
//     codecov substitute);
//   * `call outfld('LABEL', field)` output capture — the CAM history-file
//     stand-in, recording per-field global means the ECT consumes.
//
// Compilation and execution are split: a Program (program.hpp) is the
// immutable, name-resolved corpus; an Interpreter is one run's state over it.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interp/value.hpp"
#include "lang/ast.hpp"
#include "support/rng.hpp"

namespace rca::interp {

/// Identity of a watchable variable; matches metagraph node identity.
struct WatchKey {
  std::string module;
  std::string subprogram;  // empty for module-level variables
  std::string name;

  bool operator==(const WatchKey& o) const {
    return module == o.module && subprogram == o.subprogram && name == o.name;
  }
};

struct WatchKeyHash {
  std::size_t operator()(const WatchKey& k) const {
    std::hash<std::string> h;
    return h(k.module) * 1000003u ^ h(k.subprogram) * 10007u ^ h(k.name);
  }
};

/// Running statistics over every element assigned to a watched variable.
struct WatchStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double last = 0.0;

  void record(double v) {
    ++count;
    sum += v;
    sum_sq += v * v;
    last = v;
  }

  /// Root mean square of observed values (KGen compares normalized RMS).
  double rms() const;
  double mean() const;
};

/// Module/subprogram execution coverage (the codecov substitute).
class CoverageRecorder {
 public:
  void record(const std::string& module, const std::string& subprogram);
  bool module_executed(const std::string& module) const;
  bool subprogram_executed(const std::string& module,
                           const std::string& subprogram) const;
  const std::unordered_set<std::string>& modules() const { return modules_; }
  const std::unordered_set<std::string>& subprograms() const {
    return subprograms_;  // keys are "module::subprogram"
  }
  void clear();

 private:
  std::unordered_set<std::string> modules_;
  std::unordered_set<std::string> subprograms_;
};

class Program;

namespace detail {
struct Code;
void evaluate_parameters(Code& code);
}  // namespace detail

/// One run's execution state over a Program: module variables, PRNG,
/// FMA/reassociation modes, watches, outputs and coverage. Not thread-safe;
/// give each thread its own Interpreter over the shared Program.
class Interpreter {
 public:
  /// Single-run convenience: compiles a private Program over `modules`
  /// (module ASTs must outlive the interpreter). Throws EvalError on
  /// unresolvable modules, imports or parameters.
  explicit Interpreter(std::vector<const lang::Module*> modules);
  /// A fresh run of a shared program (which must outlive the interpreter):
  /// allocates and initializes the module variables.
  explicit Interpreter(const Program& program);
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // -- configuration ---------------------------------------------------------

  /// Enable FMA contraction for one module (throws for unknown modules).
  void set_fma(const std::string& module, bool enabled);
  void set_fma_all(bool enabled);

  /// Enable FP reassociation: +/- chains of three or more terms are summed
  /// right-to-left instead of the source's left-to-right association (the
  /// -Ofast-style perturbation behind the reassociation scenario).
  void set_reassoc(const std::string& module, bool enabled);
  void set_reassoc_all(bool enabled);

  /// Install the PRNG backing the built-in `shr_rand_uniform` subroutine.
  void set_prng(std::unique_ptr<Prng> prng);

  // -- instrumentation -------------------------------------------------------

  void add_watch(const WatchKey& key);
  const std::unordered_map<WatchKey, WatchStats, WatchKeyHash>& watch_stats()
      const;
  /// Moves the statistics out without copying them; the interpreter is left
  /// with no watches.
  std::unordered_map<WatchKey, WatchStats, WatchKeyHash> take_watch_stats();

  /// When enabled, every executed assignment's (module, subprogram,
  /// canonical-name) identity is recorded — the dynamic counterpart of the
  /// metagraph's node set, used to validate that the static graph covers
  /// everything that actually runs.
  void set_record_assignments(bool enabled);
  const std::unordered_set<WatchKey, WatchKeyHash>& assigned_keys() const;

  const CoverageRecorder& coverage() const;

  /// Output fields recorded via `call outfld('LABEL', value)`, in call
  /// order: (label lower-cased, global mean of the written value).
  const std::vector<std::pair<std::string, double>>& outputs() const;

  // -- execution -------------------------------------------------------------

  /// Call `subprogram` in `module` with the given by-value arguments.
  /// Returns the function result, or an empty slot for subroutines.
  ValueSlot call(const std::string& module, const std::string& subprogram,
                 std::vector<Value> args = {});

  /// Direct access to a module variable (drivers and tests).
  Value* module_var(const std::string& module, const std::string& name);

  /// Number of assignment statements executed since construction.
  std::uint64_t assignments_executed() const;

 private:
  friend void detail::evaluate_parameters(detail::Code& code);
  struct Impl;
  std::unique_ptr<Program> owned_program_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rca::interp
