#include "analysis/callgraph.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "interp/intrinsics.hpp"
#include "support/error.hpp"

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Module;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;

namespace {

// Builtins with dedicated metagraph semantics are not user procedures and
// never contribute call edges (mirrors the builder and CallChecker).
bool is_builtin(const std::string& name) {
  return name == "outfld" || name == "shr_rand_uniform";
}

/// Collects callee edges for one subprogram body.
class EdgeCollector {
 public:
  EdgeCollector(const ProgramSymbols::ModuleSyms* syms, const Subprogram& sp,
                std::vector<std::size_t>* out, bool* unknown)
      : syms_(syms), out_(out), unknown_(unknown) {
    for (const auto& p : sp.params) locals_.insert(p);
    for (const auto& d : sp.decls) locals_.insert(d.name);
    if (sp.is_function()) locals_.insert(sp.result_name);
    for (const auto& st : sp.body) walk_stmt(*st);
  }

 private:
  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign:
        walk_expr(s.lhs.get());
        walk_expr(s.rhs.get());
        break;
      case StmtKind::kCall:
        resolve(s.callee, /*functions_only=*/false);
        for (const auto& a : s.args) walk_expr(a.get());
        break;
      case StmtKind::kIf:
        walk_expr(s.cond.get());
        for (const auto& st : s.body) walk_stmt(*st);
        for (const auto& ei : s.elseifs) {
          walk_expr(ei.cond.get());
          for (const auto& st : ei.body) walk_stmt(*st);
        }
        for (const auto& st : s.else_body) walk_stmt(*st);
        break;
      case StmtKind::kDo:
        walk_expr(s.from.get());
        walk_expr(s.to.get());
        walk_expr(s.step.get());
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      case StmtKind::kDoWhile:
        walk_expr(s.cond.get());
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      default:
        break;
    }
  }

  void walk_expr(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kUnary || e->kind == ExprKind::kBinary) {
      walk_expr(e->lhs.get());
      walk_expr(e->rhs.get());
      return;
    }
    if (e->kind != ExprKind::kRef) return;
    // The ambiguous `name(...)` form is a function call when the base is
    // neither a subprogram variable, a visible module variable, nor an
    // intrinsic — the same discrimination the dataflow walker applies.
    const std::string& base = e->base_name();
    if (e->is_call_or_index() && locals_.count(base) == 0 &&
        (syms_ == nullptr || syms_->vars.find(base) == syms_->vars.end()) &&
        !interp::is_intrinsic_function(base)) {
      resolve(base, /*functions_only=*/true);
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) walk_expr(a.get());
    }
  }

  void resolve(const std::string& name, bool functions_only) {
    if (is_builtin(name)) return;
    if (syms_ != nullptr) {
      auto pit = syms_->procs.find(name);
      if (pit != syms_->procs.end()) {
        bool any = false;
        for (const ProcRef& c : pit->second) {
          if (functions_only && !c.sp->is_function()) continue;
          out_->push_back(c.node);
          any = true;
        }
        if (any) return;
      }
    }
    *unknown_ = true;
  }

  const ProgramSymbols::ModuleSyms* syms_;
  std::vector<std::size_t>* out_;
  bool* unknown_;
  std::unordered_set<std::string> locals_;
};

void sort_unique(std::vector<std::size_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Iterative Tarjan over `callees`; fills scc_of/scc_count. Component ids
/// come out in completion order, i.e. reverse topological order of the
/// condensation.
void tarjan(CallGraph& cg) {
  const std::size_t n = cg.size();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> idx(n, kUnvisited), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  cg.scc_of.assign(n, kUnvisited);
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t child = 0;
  };
  std::vector<Frame> frames;
  for (std::size_t root = 0; root < n; ++root) {
    if (idx[root] != kUnvisited) continue;
    frames.push_back({root});
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t u = f.node;
      if (f.child == 0) {
        idx[u] = low[u] = next_index++;
        stack.push_back(u);
        on_stack[u] = true;
      }
      if (f.child < cg.callees[u].size()) {
        const std::size_t v = cg.callees[u][f.child++];
        if (idx[v] == kUnvisited) {
          frames.push_back({v});
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], idx[v]);
        }
        continue;
      }
      if (low[u] == idx[u]) {
        const std::size_t comp = cg.scc_count++;
        std::size_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          cg.scc_of[w] = comp;
        } while (w != u);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().node;
        low[parent] = std::min(low[parent], low[u]);
      }
    }
  }
}

/// Node n's sorted, deduplicated callees and unknown-call flag.
void collect_edges(const std::vector<const Module*>& modules,
                   const ProgramSymbols& symbols, const CallGraph& cg,
                   std::size_t n, std::vector<std::size_t>* callees,
                   bool* unknown) {
  const Module* m = modules[cg.module_of[n]];
  callees->clear();
  *unknown = false;
  EdgeCollector(symbols.module(m->name), cg.subprogram(modules, n), callees,
                unknown);
  sort_unique(*callees);
}

/// Everything derived from `callees`: callers, module-level reverse edges
/// and the SCC condensation.
void derive_topology(CallGraph& cg) {
  const std::size_t n = cg.size();
  cg.callers.assign(n, {});
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : cg.callees[u]) cg.callers[v].push_back(u);
  }
  for (std::size_t v = 0; v < n; ++v) sort_unique(cg.callers[v]);
  cg.module_callers.assign(cg.module_count(), {});
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : cg.callees[u]) {
      if (cg.module_of[u] != cg.module_of[v]) {
        cg.module_callers[cg.module_of[v]].push_back(cg.module_of[u]);
      }
    }
  }
  for (auto& callers : cg.module_callers) sort_unique(callers);

  cg.scc_count = 0;
  tarjan(cg);
  cg.scc_members.assign(cg.scc_count, {});
  for (std::size_t i = 0; i < n; ++i) {
    cg.scc_members[cg.scc_of[i]].push_back(i);
  }
  cg.scc_recursive.assign(cg.scc_count, false);
  for (std::size_t c = 0; c < cg.scc_count; ++c) {
    if (cg.scc_members[c].size() > 1) {
      cg.scc_recursive[c] = true;
      continue;
    }
    const std::size_t only = cg.scc_members[c].front();
    cg.scc_recursive[c] = std::binary_search(
        cg.callees[only].begin(), cg.callees[only].end(), only);
  }
}

}  // namespace

CallGraph build_call_graph(const std::vector<const Module*>& modules,
                           const ProgramSymbols& symbols) {
  CallGraph cg;
  cg.module_begin.reserve(modules.size() + 1);
  for (std::size_t m = 0; m < modules.size(); ++m) {
    cg.module_begin.push_back(cg.module_of.size());
    cg.module_of.insert(cg.module_of.end(), modules[m]->subprograms.size(), m);
  }
  cg.module_begin.push_back(cg.module_of.size());
  const std::size_t n = cg.size();
  cg.callees.resize(n);
  cg.has_unknown_call.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    bool unknown = false;
    collect_edges(modules, symbols, cg, i, &cg.callees[i], &unknown);
    cg.has_unknown_call[i] = unknown;
  }
  derive_topology(cg);
  return cg;
}

std::shared_ptr<const CallGraph> patch_call_graph(
    std::shared_ptr<const CallGraph> base,
    const std::vector<const Module*>& modules, const ProgramSymbols& symbols,
    const std::vector<bool>& dirty) {
  RCA_CHECK_MSG(base->module_count() == modules.size() &&
                    dirty.size() == modules.size(),
                "call graph patch over a different module sequence");
  struct Fresh {
    std::size_t node;
    std::vector<std::size_t> callees;
    bool unknown;
  };
  std::vector<Fresh> changed;
  bool retopo = false;
  std::vector<std::size_t> callees;
  for (std::size_t m = 0; m < modules.size(); ++m) {
    if (!dirty[m]) continue;
    RCA_CHECK_MSG(base->module_begin[m + 1] - base->module_begin[m] ==
                      modules[m]->subprograms.size(),
                  "call graph patch over a different subprogram sequence");
    for (std::size_t n = base->module_begin[m]; n < base->module_begin[m + 1];
         ++n) {
      bool unknown = false;
      collect_edges(modules, symbols, *base, n, &callees, &unknown);
      const bool new_edges = callees != base->callees[n];
      if (!new_edges && unknown == base->has_unknown_call[n]) continue;
      retopo = retopo || new_edges;
      changed.push_back({n, callees, unknown});
    }
  }
  if (changed.empty()) return base;
  auto cg = std::make_shared<CallGraph>(*base);
  for (Fresh& f : changed) {
    cg->callees[f.node] = std::move(f.callees);
    cg->has_unknown_call[f.node] = f.unknown;
  }
  if (retopo) derive_topology(*cg);
  return cg;
}

}  // namespace rca::analysis
