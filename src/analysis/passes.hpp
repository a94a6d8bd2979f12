// Lint pass manager: named analysis passes over parsed modules.
//
// A pass sees one module at a time plus (a) the per-subprogram dataflow
// results computed once up front (cfg.hpp / dataflow.hpp) and (b) the
// program-wide symbol tables (ProgramSymbols, the same resolver the
// metagraph builder uses). Passes append structured Diagnostic records;
// the manager sorts them deterministically and feeds the `lint.*` counters
// and per-pass spans in the observability registry.
//
// Default rules (interprocedural — call sites resolve through the mod/ref
// summaries of summaries.hpp, so the dataflow rules see through the call
// chain; `intraprocedural_passes()` keeps the PR 3 behavior):
//   use-before-def   read of a variable no assignment reaches (error when
//                    only the uninitialized state reaches, warning when
//                    some path assigns first or the finding is
//                    summary-derived)
//   dead-store       whole-variable assignment to a local never read after
//   unused-variable  local declared (or assigned) but never read
//   intent-violation assignment to an intent(in) dummy — directly or by
//                    passing it to a callee that assigns its dummy;
//                    intent(out) dummy never assigned
//   shadowing        local/dummy hiding a visible module variable/procedure
//   call-mismatch    no candidate of a resolved callee matches the call's
//                    arity, or none is type-viable for its arguments
//   unused-dummy     dummy argument never read or written (interproc only)
//   write-to-read-only-global
//                    assignment to a `parameter` module variable, or passing
//                    one to a callee that writes it (interproc only)
//   fp-sensitivity   contraction/reassociation-prone FP expression sites
//                    (notes; interproc only — see fpsense.hpp)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/diagnostics.hpp"
#include "lang/ast.hpp"

namespace rca::analysis {

/// One candidate procedure a name may resolve to.
struct ProcRef {
  const lang::Module* module = nullptr;
  const lang::Subprogram* sp = nullptr;
};

/// Program-wide name resolution, one entry per module: own subprograms,
/// interface blocks expanded to their module procedures, and use-imports
/// with only-lists and renames, followed one re-export level deep. The one
/// resolver behind the lint passes, the summaries and the metagraph builder
/// (meta::SymbolTables).
class ProgramSymbols {
 public:
  /// Which subprograms enter the tables; the builder passes its coverage
  /// filter. Empty keeps every subprogram.
  using SubprogramFilter =
      std::function<bool(const std::string& module, const std::string& sub)>;

  ProgramSymbols() = default;
  explicit ProgramSymbols(const std::vector<const lang::Module*>& modules,
                          const SubprogramFilter& keep = {});

  struct ModuleSyms {
    const lang::Module* ast = nullptr;
    // Local name -> candidates (own subprograms + expanded interfaces +
    // imports, honoring only-lists and renames).
    std::unordered_map<std::string, std::vector<ProcRef>> procs;
    // Local name -> (owning module, remote name) for module variables.
    ModuleVarMap vars;
  };

  /// Null if the module is unknown.
  const ModuleSyms* module(const std::string& name) const;

 private:
  std::unordered_map<std::string, ModuleSyms> modules_;
};

/// Dataflow results for every subprogram of one module, computed once and
/// shared by all passes.
struct ModuleAnalysis {
  const lang::Module* module = nullptr;
  std::vector<DataflowResult> subs;  // parallel to module->subprograms
};

struct ProgramSummaries;

/// Per-module context a pass runs under. In intraprocedural mode both
/// members are empty.
struct PassContext {
  const ProgramSummaries* summaries = nullptr;
  // Call-effect resolver scoped to the module under analysis (the same one
  // its dataflow ran with).
  CallEffectFn call_effects;
};

using PassFn = std::function<void(const ModuleAnalysis&, const ProgramSymbols&,
                                  const PassContext&,
                                  std::vector<Diagnostic>*)>;

struct AnalysisResult {
  std::vector<Diagnostic> diagnostics;  // sorted by diagnostic_less
  std::size_t modules = 0;
  std::size_t subprograms = 0;
  // Interprocedural runs: the program summaries (kept alive for callers
  // that dump them) and the final per-module analysis mask after summary
  // invalidation widened the input dirty set.
  std::shared_ptr<const ProgramSummaries> summaries;
  std::vector<bool> analyzed;

  std::size_t count(Severity s) const;
};

class PassManager {
 public:
  void add_pass(std::string id, PassFn fn);
  const std::vector<std::string>& pass_ids() const { return ids_; }

  /// Runs every pass over every module; diagnostics come back sorted.
  AnalysisResult run(const std::vector<const lang::Module*>& modules) const;

  /// Incremental variant: dataflow facts are computed and passes executed
  /// only for modules whose `dirty` flag is set (parallel to `modules`);
  /// program symbols still span the whole corpus, and the module/subprogram
  /// totals still count everything. Clean modules contribute no diagnostics
  /// here — the caller merges their previously computed diagnostics back in,
  /// which is exact as long as no module's interface-level content changed
  /// (each pass reads only its own module's bodies plus remote interface
  /// info; see meta::interface_signature). In interprocedural mode a body
  /// patch can also change lint results in the patched modules' reverse
  /// caller cone: when `baseline` (the base generation's summaries) is
  /// given, modules whose summary signature changed widen the dirty set by
  /// their caller cone (`summary_cone`), and the widened mask comes back in
  /// `AnalysisResult::analyzed` so the caller drops stale carried
  /// diagnostics for exactly those modules. Only the
  /// baseline's plain-data `procs` and `module_sigs` are read, never its
  /// call graph, so it may outlive the ASTs it was computed from. Used by
  /// the session patch path.
  AnalysisResult run(const std::vector<const lang::Module*>& modules,
                     const std::vector<bool>& dirty) const;
  AnalysisResult run(const std::vector<const lang::Module*>& modules,
                     const std::vector<bool>& dirty,
                     const ProgramSummaries* baseline) const;

  /// Manager preloaded with the default interprocedural rules (ids as
  /// documented above).
  static PassManager default_passes();
  /// The six PR 3 rules with blanket-conservative call modelling; no
  /// summaries are computed.
  static PassManager intraprocedural_passes();

 private:
  struct Pass {
    std::string id;
    PassFn fn;
  };
  std::vector<Pass> passes_;
  std::vector<std::string> ids_;
  bool interprocedural_ = false;
};

}  // namespace rca::analysis
