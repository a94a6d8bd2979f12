// Bottom-up mod/ref summaries per procedure.
//
// For every subprogram the summary records what each dummy argument
// experiences (read-before-written, definitely written, untouched), which
// module variables the procedure reads or writes transitively, and whether
// it is pure. Summaries are computed over the call graph's SCC condensation
// in reverse topological order, so every callee summary exists before its
// callers are analyzed; recursive components run a capped descending
// fixpoint (round one treats in-component callees conservatively, each later
// round refines against the previous one — sound wherever it stops) and are
// then marked `recursive`, which makes every consumer fall back to the
// conservative blanket model, exactly as the intraprocedural analysis would.
//
// Summaries are stored per module, each module's run immutable and held by
// shared_ptr, and identified by call-graph node (ProcRef::node) — never by
// AST pointer. Incremental relint: `compute_summaries` with a base
// generation's summaries plus a dirty module mask recomputes only the
// procedures inside the dirty modules' reverse caller cone (`summary_cone`)
// and shares the base's module runs everywhere else. It may read the base's
// call graph and summaries, which hold no AST pointers, so the base's ASTs
// may already be gone.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/dataflow.hpp"
#include "lang/ast.hpp"

namespace rca::analysis {

/// What one dummy argument experiences inside its procedure, transitively.
struct DummySummary {
  std::string name;
  lang::Intent intent = lang::Intent::kNone;
  bool may_read_incoming = true;   // over-approx: some path may read it
  bool observes_incoming = false;  // under-approx: certainly read unwritten
  bool may_write = true;           // some path may assign it
  bool definitely_writes = false;  // assigned on every path to exit

  friend bool operator==(const DummySummary& a, const DummySummary& b) {
    return a.name == b.name && a.intent == b.intent &&
           a.may_read_incoming == b.may_read_incoming &&
           a.observes_incoming == b.observes_incoming &&
           a.may_write == b.may_write &&
           a.definitely_writes == b.definitely_writes;
  }
};

struct ProcSummary {
  std::string module;
  std::string name;
  bool is_function = false;
  bool returns_real = false;  // function whose result is declared real
  std::vector<DummySummary> dummies;  // parallel to Subprogram::params
  std::vector<std::string> globals_read;     // "module::var", sorted unique
  std::vector<std::string> globals_written;  // "module::var", sorted unique
  bool pure = false;       // no global writes, no impure builtins, callees pure
  bool recursive = false;  // member of a recursive SCC; consumers fall back
  bool calls_unknown = false;  // some call did not resolve
  bool fp_sensitive = false;   // body or a callee has an FP-sensitive site

  friend bool operator==(const ProcSummary& a, const ProcSummary& b) {
    return a.module == b.module && a.name == b.name &&
           a.is_function == b.is_function && a.returns_real == b.returns_real &&
           a.dummies == b.dummies && a.globals_read == b.globals_read &&
           a.globals_written == b.globals_written && a.pure == b.pure &&
           a.recursive == b.recursive && a.calls_unknown == b.calls_unknown &&
           a.fp_sensitive == b.fp_sensitive;
  }
};

struct ProgramSummaries {
  std::shared_ptr<const CallGraph> cg;
  /// One run per module (parallel to the module list): its procedures'
  /// summaries in subprogram order, shared across generations.
  std::vector<std::shared_ptr<const std::vector<ProcSummary>>> modules;
  std::size_t procs_recomputed = 0;
  std::size_t procs_reused = 0;

  std::size_t size() const { return cg->size(); }
  const ProcSummary& proc(std::size_t node) const {
    const std::size_t m = cg->module_of[node];
    return (*modules[m])[node - cg->module_begin[m]];
  }
};

/// Computes summaries bottom-up over the SCC condensation of a fresh call
/// graph.
ProgramSummaries compute_summaries(
    const std::vector<const lang::Module*>& modules,
    const ProgramSymbols& symbols);

/// The same over `cg` (built or patched over `modules`). With a base
/// generation's summaries and a dirty module mask (parallel to `modules`),
/// only the modules in `summary_cone(*cg, *dirty)` are recomputed; every
/// other module shares its run with `base`.
ProgramSummaries compute_summaries(
    const std::vector<const lang::Module*>& modules,
    const ProgramSymbols& symbols, std::shared_ptr<const CallGraph> cg,
    const ProgramSummaries* base = nullptr,
    const std::vector<bool>* dirty = nullptr);

/// The reverse caller cone of `dirty` at module granularity (reflexive;
/// masks parallel to the module list): every module containing a
/// procedure that transitively calls into a dirty module. Exactly the set
/// whose summaries — and lint results — a body-only patch can change.
std::vector<bool> summary_cone(const CallGraph& cg,
                               const std::vector<bool>& dirty);

/// Call-effect resolver for dataflow over one module: merges the summaries
/// of every candidate a name resolves to (generic interfaces included).
/// Returns nullopt for unresolved names, arity mismatches and recursive
/// callees, which keeps the conservative model for those sites.
CallEffectFn make_call_effects(const ProgramSymbols& symbols,
                               const ProgramSummaries& summaries,
                               const std::string& module_name);

/// Deterministic JSON dump, schema `rca.summaries.v1`.
std::string summaries_to_json(const ProgramSummaries& s);

}  // namespace rca::analysis
