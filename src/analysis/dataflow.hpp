// Per-subprogram dataflow analyses over the CFG (cfg.hpp).
//
// The variable table covers dummies, locals and the function result —
// module-level variables are deliberately excluded: their lifetimes span
// calls, so no intraprocedural fact about them is sound. Three analyses run
// over the use/def facts extracted per CFG statement:
//
//   * reaching definitions (forward may) with a per-variable "uninitialized"
//     pseudo-definition seeded at entry, classifying each read as definitely
//     or maybe before any assignment;
//   * liveness (backward may), whose live-out sets identify dead stores:
//     whole-variable assignments to locals that no path reads again;
//   * flat def/use counts feeding the unused-variable and intent rules.
//
// Calls are modelled conservatively by default: a by-reference argument is
// both a use and a non-killing may-definition of its base variable, so a
// `call` that initializes an argument suppresses use-before-def reports
// downstream. When the context supplies a call-effect resolver (backed by
// the interprocedural mod/ref summaries, summaries.hpp), call sites consult
// the callee's summary instead: an argument the callee never reads is no
// use, one it never writes is no definition, and one it definitely writes
// kills like an assignment. An unresolved or recursive callee falls back to
// the conservative model, so precision only ever increases.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "lang/ast.hpp"

namespace rca::analysis {

enum class VarKind { kDummy, kLocal, kResult };

struct VarInfo {
  std::string name;
  VarKind kind = VarKind::kLocal;
  lang::Intent intent = lang::Intent::kNone;
  bool has_init = false;      // parameter constant or initializer present
  bool is_parameter = false;  // named constant
  bool is_array = false;
  int line = 0;
  const lang::VarDecl* decl = nullptr;  // null for undeclared dummies/results
};

/// Name -> slot table of the variables a subprogram owns.
class VarTable {
 public:
  explicit VarTable(const lang::Subprogram& sp);

  int lookup(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
  }
  const VarInfo& var(int id) const { return vars_[static_cast<std::size_t>(id)]; }
  std::size_t size() const { return vars_.size(); }
  const std::vector<VarInfo>& vars() const { return vars_; }

 private:
  std::vector<VarInfo> vars_;
  std::unordered_map<std::string, int> index_;
};

/// What a resolved callee does with one positional argument, merged over
/// every candidate a generic interface could dispatch to.
struct CallArgEffect {
  // Over-approximation: some candidate may observe the incoming value.
  // `false` is a guarantee — passing the variable is not a read, so a prior
  // store the caller never reads again is dead.
  bool may_read_incoming = true;
  // Under-approximation: every candidate certainly reads the incoming value
  // on some path before writing it. Drives use-before-def reports at the
  // call site; never set speculatively.
  bool observes_incoming = false;
  bool may_write = true;          // some candidate may assign the dummy
  bool definitely_writes = false; // every candidate assigns it on all paths
};

struct CallEffect {
  std::vector<CallArgEffect> args;  // parallel to the call's arguments
};

/// Resolves a call site to the callee's summarized argument effects.
/// `function_context` distinguishes `name(...)` in an expression from a
/// `call name(...)` statement. Returning nullopt (or a null function) keeps
/// the conservative blanket may-def model for that site.
using CallEffectFn = std::function<std::optional<CallEffect>(
    const std::string& name, std::size_t nargs, bool function_context)>;

/// Extra name resolution the dataflow walker uses to classify the ambiguous
/// single-segment `name(...)` form when `name` is not a subprogram variable.
/// All members are optional; absent ones make the walker conservative (treat
/// as a call whose reference arguments may be read and written).
/// Module variables visible in one module: local name -> (owning module,
/// remote name), as ProgramSymbols (passes.hpp) resolves them.
using ModuleVarMap =
    std::unordered_map<std::string,
                       std::pair<const lang::Module*, std::string>>;

struct DataflowContext {
  const ModuleVarMap* module_vars = nullptr;  // data names
  CallEffectFn call_effects;  // interprocedural mod/ref summaries
};

struct UseSite {
  int var = -1;
  const lang::Expr* expr = nullptr;  // the reference that reads the variable
  // The read is a whole variable passed by reference to a callee. It counts
  // for liveness and use totals, but use-before-def never reports it:
  // `call init(y)` is the canonical initialization idiom, and whether the
  // callee reads the dummy first is not knowable intraprocedurally.
  bool via_call = false;
  // A resolved callee certainly reads the incoming value, so use-before-def
  // may report this site after all (as a maybe, never definite).
  bool summary_read = false;
  // A resolved callee never reads the incoming value: excluded from
  // liveness (a store that only feeds this argument is dead) but still part
  // of the use totals, so unused-variable semantics are unchanged.
  bool summary_ignored = false;
};

/// Use/def facts for one CfgStmt. Uses are evaluated before the def
/// (right-hand side before left, loop bounds before the loop variable).
struct StmtFacts {
  std::vector<UseSite> uses;
  int def = -1;               // assignment target / do variable, -1 if none
  bool kills = false;         // def overwrites the whole variable
  std::vector<int> may_defs;  // by-reference call arguments (never kill)
  // Whole-variable arguments a resolved callee assigns on every path: they
  // kill like assignments, clearing the uninitialized pseudo-def.
  std::vector<int> kill_defs;
  // The subset of `may_defs` that came from a resolved summary (rather than
  // the conservative blanket model) — intent-violation reports these.
  std::vector<int> summary_may_defs;
  // Variables whose conservative may-def was dropped because the resolved
  // callee never writes them. Later reads may now see the uninitialized
  // pseudo-def; classification caps those at maybe (a suppressed clear is
  // summary-derived knowledge, not a syntactic certainty).
  std::vector<int> suppressed_defs;
};

/// A read classified by reaching definitions.
struct UseBeforeDef {
  int var = -1;
  const lang::Expr* expr = nullptr;
  bool definite = false;  // only the uninitialized pseudo-def reaches
};

struct DataflowResult {
  Cfg cfg;
  VarTable vars;
  std::vector<std::vector<StmtFacts>> facts;  // parallel to cfg.blocks[b].stmts
  std::vector<UseBeforeDef> use_before_def;
  std::vector<const lang::Stmt*> dead_stores;  // kAssign stmts, source order
  std::vector<int> def_counts;  // per var, includes may- and kill-defs
  std::vector<int> use_counts;  // per var, includes declaration expressions
  std::size_t calls_resolved = 0;  // call sites answered by a summary

  explicit DataflowResult(const lang::Subprogram& sp)
      : cfg(build_cfg(sp)), vars(sp) {}
};

DataflowResult analyze_dataflow(const lang::Subprogram& sp,
                                const DataflowContext& ctx = {});

/// The assignment statements `prune_dead_stores` may drop: whole-variable
/// stores to plain locals (no initializer, not the result, not a dummy) that
/// are never live afterwards.
std::unordered_set<const lang::Stmt*> dead_store_stmts(
    const lang::Subprogram& sp, const DataflowContext& ctx = {});
std::unordered_set<const lang::Stmt*> dead_store_stmts(
    const lang::Module& m, const DataflowContext& ctx = {});

}  // namespace rca::analysis
