// Lint pass manager: named analysis passes over parsed modules.
//
// A pass sees one module at a time plus (a) the per-subprogram dataflow
// results computed once up front (cfg.hpp / dataflow.hpp) and (b) the
// program-wide symbol tables (ProgramSymbols, the same resolver the
// metagraph builder uses). Passes append structured Diagnostic records;
// the manager keeps each module's findings as one immutable DiagnosticRun
// (sorted, rendered, counted — diagnostics.hpp) and feeds the `lint.*`
// counters and spans in the observability registry. A relint of an
// interface-preserving edit re-analyzes only what the edit can change and
// shares every other module's run, call-graph topology and summaries with
// its base (see PassManager::run).
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

/// One candidate procedure a name may resolve to. `module` and `sp` point
/// into the ASTs the tables were built over, which may be an earlier
/// generation's with the same interfaces (meta::TxnState::tables): read
/// only their interface content. `node` is the procedure's identity.
struct ProcRef {
  const lang::Module* module = nullptr;
  const lang::Subprogram* sp = nullptr;
  /// Program-wide ordinal of the subprogram — module order, then
  /// subprogram order — which is its CallGraph node. Stable across any edit
  /// that keeps the module sequence and every interface signature.
  std::size_t node = 0;
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
  std::size_t index = 0;  // position in the module list
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
  /// One run per module, parallel to the module list; a relint shares the
  /// runs of every module it did not recompute with its base.
  std::vector<std::shared_ptr<const DiagnosticRun>> runs;
  /// Findings that belong to no module (parse errors); sorts first.
  std::shared_ptr<const DiagnosticRun> unowned;
  /// Module positions in report order (by module name), shared by every
  /// relint of the same module sequence.
  std::shared_ptr<const std::vector<std::size_t>> order;
  std::size_t modules = 0;
  std::size_t subprograms = 0;
  // Interprocedural runs: the program summaries (kept alive for callers
  // that dump them and for the next relint) and the final per-module
  // analysis mask after summary invalidation widened the input dirty set.
  std::shared_ptr<const ProgramSummaries> summaries;
  std::vector<bool> analyzed;

  std::size_t count(Severity s) const;
  /// Every finding, sorted by diagnostic_less.
  std::vector<Diagnostic> diagnostics() const;
  /// The rca.diagnostics.v1 document, diagnostics_to_json(diagnostics()),
  /// appended to `out` from the runs' rendered records (span `lint.render`).
  void append_report(std::string* out) const;
  std::string report() const;
  /// Replaces `unowned` with one parse-error record per (path, message).
  void set_parse_errors(
      const std::vector<std::pair<std::string, std::string>>& parse_errors);
};

class PassManager {
 public:
  void add_pass(std::string id, PassFn fn);
  const std::vector<std::string>& pass_ids() const { return ids_; }

  /// Runs every pass over every module.
  AnalysisResult run(const std::vector<const lang::Module*>& modules) const;

  /// Relint of an edited program against `base`, the result of this
  /// manager's run over the previous generation. Precondition: the edit
  /// kept the module sequence, every module's subprogram sequence and every
  /// interface signature (meta::interface_signature), and `symbols` are
  /// tables for that interface — possibly built over the earlier
  /// generation's ASTs. Only modules whose `dirty` flag is set (parallel to
  /// `modules`) are re-analyzed, plus, interprocedurally, the reverse
  /// caller cone of every module whose summaries changed (`summary_cone`);
  /// `AnalysisResult::analyzed` is that widened mask. Everything else —
  /// the call graph topology, the summaries and the diagnostic runs of the
  /// other modules — is shared with `base`, which is read only through its
  /// pointer-free parts, so `base`'s ASTs may already be gone. The result
  /// equals run(modules).
  AnalysisResult run(const std::vector<const lang::Module*>& modules,
                     const ProgramSymbols& symbols, const AnalysisResult& base,
                     const std::vector<bool>& dirty) const;

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
  /// Both runs: null `symbols` are built over `modules`; a null `base`
  /// re-analyzes every module.
  AnalysisResult analyze(const std::vector<const lang::Module*>& modules,
                         const ProgramSymbols* symbols,
                         const AnalysisResult* base,
                         const std::vector<bool>& dirty) const;

  std::vector<Pass> passes_;
  std::vector<std::string> ids_;
  bool interprocedural_ = false;
};

}  // namespace rca::analysis
