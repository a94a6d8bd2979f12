#include "meta/builder.hpp"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dataflow.hpp"
#include "analysis/passes.hpp"
#include "analysis/summaries.hpp"
#include "interp/intrinsics.hpp"
#include "meta/fragment.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace rca::meta {

using analysis::ProcRef;
using graph::NodeId;
using lang::Expr;
using lang::ExprKind;
using lang::Intent;
using lang::Module;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::VarDecl;

SymbolTables build_symbol_tables(const std::vector<const Module*>& modules,
                                 const BuilderOptions& opts) {
  SymbolTables tables;
  tables.symbols = analysis::ProgramSymbols(modules, opts.subprogram_filter);
  if (opts.summary_informed_pruning) {
    auto psyms = std::make_shared<analysis::ProgramSymbols>(modules);
    tables.summaries = std::make_shared<analysis::ProgramSummaries>(
        analysis::compute_summaries(modules, *psyms));
    tables.analysis_symbols = std::move(psyms);
  }
  return tables;
}

std::vector<const Module*> filter_modules(
    const std::vector<const Module*>& modules, const BuilderOptions& opts) {
  if (!opts.module_filter) return modules;
  std::vector<const Module*> kept;
  for (const Module* m : modules) {
    if (opts.module_filter(m->name)) kept.push_back(m);
  }
  return kept;
}

namespace {

/// Walks one module's statements, recording the dependence fragment.
/// Mirrors the original serial Builder exactly; `intern()` dedupes locally
/// on the same (module, subprogram, canonical) key the Metagraph uses, so
/// equality of local ids coincides with equality of the global ids they map
/// to (the `src != target` self-edge guards keep their serial semantics).
class ModuleWalker {
 public:
  ModuleWalker(const Module& m, const SymbolTables& tables,
               const BuilderOptions& opts, Fragment& frag)
      : opts_(opts), tables_(tables), frag_(frag) {
    build_module(m);
  }

 private:
  using LocalId = std::uint32_t;

  struct Scope {
    const Module* mod = nullptr;
    const Subprogram* sub = nullptr;  // null at module level
    // Names declared in the current subprogram (locals + dummies + result).
    std::unordered_set<std::string> locals;
  };

  LocalId intern(const std::string& module, const std::string& subprogram,
                 const std::string& canonical, int line,
                 bool is_intrinsic = false, bool is_prng_site = false) {
    const std::string key = module + "\x1f" + subprogram + "\x1f" + canonical;
    auto it = local_ids_.find(key);
    if (it != local_ids_.end()) return it->second;
    const LocalId id = static_cast<LocalId>(frag_.keys.size());
    frag_.keys.push_back(Fragment::NodeKey{module, subprogram, canonical, line,
                                           is_intrinsic, is_prng_site});
    frag_.ops.push_back({Fragment::OpKind::kNode, id, 0});
    local_ids_.emplace(key, id);
    return id;
  }

  void add_edge(LocalId u, LocalId v) {
    frag_.ops.push_back({Fragment::OpKind::kEdge, u, v});
  }

  void add_io_mapping(const std::string& label, LocalId node) {
    auto it = io_label_ids_.find(label);
    std::uint32_t idx;
    if (it != io_label_ids_.end()) {
      idx = it->second;
    } else {
      idx = static_cast<std::uint32_t>(frag_.io_labels.size());
      frag_.io_labels.push_back(label);
      io_label_ids_.emplace(label, idx);
    }
    frag_.ops.push_back({Fragment::OpKind::kIo, idx, node});
  }

  void build_module(const Module& m) {
    for (const auto& sp : m.subprograms) {
      if (opts_.subprogram_filter && !opts_.subprogram_filter(m.name, sp.name)) {
        continue;  // unexecuted subprogram "commented out" by coverage
      }
      Scope scope;
      scope.mod = &m;
      scope.sub = &sp;
      for (const auto& p : sp.params) scope.locals.insert(p);
      for (const auto& d : sp.decls) scope.locals.insert(d.name);
      if (sp.is_function()) scope.locals.insert(sp.result_name);
      if (opts_.prune_dead_stores) {
        analysis::DataflowContext ctx;
        if (tables_.summaries != nullptr) {
          // Summary-informed: call sites resolve to callee mod/ref effects,
          // so stores whose only use is feeding a never-read dummy die too.
          const auto* asyms = tables_.analysis_symbols->module(m.name);
          if (asyms != nullptr) ctx.module_vars = &asyms->vars;
          ctx.call_effects = analysis::make_call_effects(
              *tables_.analysis_symbols, *tables_.summaries, m.name);
        }
        dead_stores_ = analysis::dead_store_stmts(sp, ctx);
      }
      for (const auto& st : sp.body) walk_stmt(*st, scope);
      dead_stores_.clear();
    }
  }

  void walk_stmt(const Stmt& s, Scope& scope) {
    switch (s.kind) {
      case StmtKind::kAssign:
        // Liveness pruning: a provably dead store contributes nothing the
        // program can read, so its source->target edges would only widen
        // backward slices. Stores whose RHS binds a user function are kept —
        // dropping them would also drop the callee's argument/result edges.
        if (!dead_stores_.empty() && dead_stores_.count(&s) != 0 &&
            !binds_procedure(*s.rhs, scope)) {
          ++frag_.dead_stores_pruned;
          break;
        }
        ++frag_.assignments_processed;
        try {
          process_assignment(s, scope);
        } catch (const Error&) {
          ++frag_.assignments_failed;
        }
        break;
      case StmtKind::kCall:
        ++frag_.calls_processed;
        try {
          process_call(s, scope);
        } catch (const Error&) {
          ++frag_.assignments_failed;
        }
        break;
      case StmtKind::kIf:
        for (const auto& st : s.body) walk_stmt(*st, scope);
        for (const auto& ei : s.elseifs) {
          for (const auto& st : ei.body) walk_stmt(*st, scope);
        }
        for (const auto& st : s.else_body) walk_stmt(*st, scope);
        break;
      case StmtKind::kDo:
      case StmtKind::kDoWhile:
        for (const auto& st : s.body) walk_stmt(*st, scope);
        break;
      default:
        break;
    }
  }

  void process_assignment(const Stmt& s, Scope& scope) {
    const LocalId target = node_for_ref(*s.lhs, scope);
    std::vector<LocalId> sources;
    expr_sources(*s.rhs, scope, &sources);
    for (LocalId src : sources) {
      if (src != target) add_edge(src, target);
    }
  }

  void process_call(const Stmt& s, Scope& scope) {
    // Builtins with special graph semantics.
    if (s.callee == "outfld") {
      if (s.args.size() == 2 && s.args[0]->kind == ExprKind::kString &&
          s.args[1]->is_ref()) {
        const LocalId var = node_for_ref(*s.args[1], scope);
        add_io_mapping(to_lower(s.args[0]->text), var);
      }
      return;
    }
    if (s.callee == "shr_rand_uniform") {
      // PRNG call site: a localized pseudo-source feeding the argument —
      // the RAND-MT experiment's "bug location" markers.
      if (s.args.size() == 1 && s.args[0]->is_ref()) {
        const LocalId site = intern(
            scope.mod->name, scope.sub ? scope.sub->name : "",
            strfmt("shr_rand_uniform_%d", s.line), s.line,
            /*is_intrinsic=*/false, /*is_prng_site=*/true);
        const LocalId var = node_for_ref(*s.args[0], scope);
        add_edge(site, var);
      }
      return;
    }

    const std::vector<ProcRef>* cands = lookup_procs(scope, s.callee);
    if (!cands) {
      throw Error("unresolved subroutine '" + s.callee + "'");
    }
    for (const ProcRef& cand : *cands) {
      if (cand.sp->params.size() != s.args.size()) continue;
      bind_arguments(*cand.module, *cand.sp, s.args, scope);
    }
  }

  /// Maps actual arguments to dummy-argument nodes, honoring declared intent
  /// (paper: successively map outputs of lower levels to inputs above);
  /// unspecified intent maps both directions.
  void bind_arguments(const Module& home, const Subprogram& sp,
                      const std::vector<lang::ExprPtr>& args, Scope& scope) {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& param = sp.params[i];
      const LocalId dummy = intern(home.name, sp.name, param, sp.line);
      Intent intent = Intent::kNone;
      for (const auto& d : sp.decls) {
        if (d.name == param) {
          intent = d.intent;
          break;
        }
      }
      const bool flows_in = intent != Intent::kOut;
      const bool flows_out = intent != Intent::kIn;
      if (flows_in) {
        std::vector<LocalId> sources;
        expr_sources(*args[i], scope, &sources);
        for (LocalId src : sources) {
          if (src != dummy) add_edge(src, dummy);
        }
      }
      if (flows_out && args[i]->is_ref()) {
        // Writable actual: the dummy's final value flows back.
        try {
          const LocalId actual = node_for_ref(*args[i], scope);
          if (actual != dummy) add_edge(dummy, actual);
        } catch (const Error&) {
          // Expression actuals (function results etc.) have no write-back.
        }
      }
    }
  }

  /// Collects the nodes whose values flow into `e` (paper: the expression's
  /// RHS variables, arrays, and function/subroutine-argument outputs).
  void expr_sources(const Expr& e, Scope& scope, std::vector<LocalId>* out) {
    switch (e.kind) {
      case ExprKind::kNumber:
      case ExprKind::kString:
      case ExprKind::kLogical:
        return;
      case ExprKind::kUnary:
        expr_sources(*e.rhs, scope, out);
        return;
      case ExprKind::kBinary:
        expr_sources(*e.lhs, scope, out);
        expr_sources(*e.rhs, scope, out);
        return;
      case ExprKind::kRef:
        break;
    }

    const lang::RefSegment& head = e.segments.front();
    if (e.segments.size() > 1 || !head.has_args) {
      // Plain variable, array element (atomic: indices ignored), or
      // derived-type chain.
      if (is_slice_ref(e)) return;  // bare ':' markers contribute nothing
      out->push_back(node_for_ref(e, scope));
      return;
    }

    // Single segment with arguments: variable-with-subscripts, function
    // call, or intrinsic — disambiguated against the declaration tables and
    // the global function hash table, in that order (locals shadow
    // functions).
    if (is_declared_var(scope, head.name)) {
      out->push_back(node_for_ref(e, scope));
      return;
    }
    const std::vector<ProcRef>* cands = lookup_procs(scope, head.name);
    if (cands) {
      for (const ProcRef& cand : *cands) {
        if (!cand.sp->is_function()) continue;
        if (cand.sp->params.size() != head.args.size()) continue;
        bind_arguments(*cand.module, *cand.sp, head.args, scope);
        out->push_back(intern(cand.module->name, cand.sp->name,
                              cand.sp->result_name, cand.sp->line));
      }
      return;
    }
    if (interp::is_intrinsic_function(head.name)) {
      // Localized intrinsic pseudo-node: inputs -> site -> consumer.
      const LocalId site = intern(
          scope.mod->name, scope.sub ? scope.sub->name : "",
          strfmt("%s_%d", head.name.c_str(), e.line), e.line,
          /*is_intrinsic=*/true);
      for (const auto& arg : head.args) {
        std::vector<LocalId> inputs;
        expr_sources(*arg, scope, &inputs);
        for (LocalId in : inputs) {
          if (in != site) add_edge(in, site);
        }
      }
      out->push_back(site);
      return;
    }
    // Unknown name(...): assume an undeclared array (static fallback).
    out->push_back(node_for_ref(e, scope));
  }

  bool is_slice_ref(const Expr& e) const {
    return e.segments.size() == 1 && e.segments[0].name == "__slice__";
  }

  /// True when evaluating `e` would bind a user function's dummies/result
  /// into the graph (expr_sources' call case) — such expressions are not
  /// safe to prune with the statement that contains them.
  bool binds_procedure(const Expr& e, const Scope& scope) const {
    switch (e.kind) {
      case ExprKind::kNumber:
      case ExprKind::kString:
      case ExprKind::kLogical:
        return false;
      case ExprKind::kUnary:
        return binds_procedure(*e.rhs, scope);
      case ExprKind::kBinary:
        return binds_procedure(*e.lhs, scope) ||
               binds_procedure(*e.rhs, scope);
      case ExprKind::kRef:
        break;
    }
    const lang::RefSegment& head = e.segments.front();
    if (e.segments.size() == 1 && head.has_args &&
        !is_declared_var(scope, head.name)) {
      const std::vector<ProcRef>* cands = lookup_procs(scope, head.name);
      if (cands) {
        for (const ProcRef& cand : *cands) {
          if (cand.sp->is_function() &&
              cand.sp->params.size() == head.args.size()) {
            return true;
          }
        }
      }
    }
    for (const auto& seg : e.segments) {
      for (const auto& arg : seg.args) {
        if (binds_procedure(*arg, scope)) return true;
      }
    }
    return false;
  }

  const analysis::ProgramSymbols::ModuleSyms& module_syms(
      const Scope& scope) const {
    const auto* syms = tables_.symbols.module(scope.mod->name);
    RCA_CHECK_MSG(syms != nullptr, "module missing from the symbol tables");
    return *syms;
  }

  bool is_declared_var(const Scope& scope, const std::string& name) const {
    if (scope.locals.count(name)) return true;
    return module_syms(scope).vars.count(name) != 0;
  }

  const std::vector<ProcRef>* lookup_procs(const Scope& scope,
                                           const std::string& name) const {
    const auto& syms = module_syms(scope);
    auto it = syms.procs.find(name);
    return it == syms.procs.end() ? nullptr : &it->second;
  }

  /// Node for a reference chain: resolves the base name's owning scope and
  /// interns (module, scope, canonical-name).
  LocalId node_for_ref(const Expr& e, Scope& scope) {
    RCA_CHECK_MSG(e.is_ref(), "node_for_ref on non-reference");
    const std::string& base = e.base_name();
    const std::string& canonical = e.canonical_name();
    if (canonical == "__slice__") throw Error("slice marker is not a variable");

    if (scope.sub && scope.locals.count(base)) {
      return intern(scope.mod->name, scope.sub->name, canonical, e.line);
    }
    const auto& syms = module_syms(scope);
    auto vit = syms.vars.find(base);
    if (vit != syms.vars.end()) {
      // Module-level variable: lives with its owning module, no subprogram
      // scope. Derived chains canonicalize to the final component (the
      // component is one storage location regardless of assigning site).
      const Module* owner = vit->second.first;
      const std::string& remote = vit->second.second;
      const std::string& canon =
          (e.segments.size() > 1) ? canonical : remote;
      return intern(owner->name, "", canon, e.line);
    }
    // Unresolved: keep it local to the current scope (static fallback —
    // counted as a node so the slice stays sound).
    return intern(scope.mod->name, scope.sub ? scope.sub->name : "",
                  canonical, e.line);
  }

  const BuilderOptions& opts_;
  const SymbolTables& tables_;
  Fragment& frag_;
  std::unordered_map<std::string, LocalId> local_ids_;
  std::unordered_map<std::string, std::uint32_t> io_label_ids_;
  // Dead stores of the subprogram currently being walked (empty when
  // prune_dead_stores is off).
  std::unordered_set<const Stmt*> dead_stores_;
};

}  // namespace

Fragment walk_module(const Module& m, const SymbolTables& tables,
                     const BuilderOptions& opts) {
  Fragment frag;
  ModuleWalker(m, tables, opts, frag);
  return frag;
}

std::vector<NodeId> replay_fragment(const Fragment& frag, Metagraph& mg) {
  std::vector<NodeId> global(frag.keys.size());
  for (const Fragment::Op& op : frag.ops) {
    switch (op.kind) {
      case Fragment::OpKind::kNode: {
        const Fragment::NodeKey& k = frag.keys[op.a];
        global[op.a] = mg.intern(k.module, k.subprogram, k.canonical, k.line,
                                 k.is_intrinsic, k.is_prng_site);
        break;
      }
      case Fragment::OpKind::kEdge:
        mg.add_edge(global[op.a], global[op.b]);
        break;
      case Fragment::OpKind::kIo:
        mg.add_io_mapping(frag.io_labels[op.a], global[op.b]);
        break;
    }
  }
  mg.assignments_processed += frag.assignments_processed;
  mg.assignments_failed += frag.assignments_failed;
  mg.calls_processed += frag.calls_processed;
  mg.dead_stores_pruned += frag.dead_stores_pruned;
  return global;
}

Metagraph build_metagraph(const std::vector<const Module*>& modules,
                          const BuilderOptions& opts) {
  const std::vector<const Module*> kept = filter_modules(modules, opts);
  const SymbolTables tables = build_symbol_tables(kept, opts);

  auto walk_one = [&kept, &tables, &opts](std::size_t i) {
    return walk_module(*kept[i], tables, opts);
  };

  const std::vector<Fragment> fragments =
      parallel_map<Fragment>(opts.pool, kept.size(), walk_one);

  // Deterministic reduction: module order, not completion order.
  Metagraph mg;
  for (const Fragment& frag : fragments) replay_fragment(frag, mg);
  mg.seal();
  return mg;
}

}  // namespace rca::meta
