#include "analysis/summaries.hpp"

#include <algorithm>
#include <deque>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "analysis/fpsense.hpp"
#include "fault/fault.hpp"
#include "interp/intrinsics.hpp"
#include "lang/printer.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Intent;
using lang::Module;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::TypeKind;

namespace {

bool is_builtin(const std::string& name) {
  return name == "outfld" || name == "shr_rand_uniform";
}

// Length-prefixed FNV-1a 64, a local twin of meta::SnapshotKey — analysis
// sits below meta in the layering, so it cannot reuse it.
class SummarySig {
 public:
  void add(const std::string& s) {
    add_u64(s.size());
    h_ = fnv1a64(s, h_);
  }
  void add_u64(std::uint64_t v) {
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(v >> (i * 8));
    h_ = fnv1a64(std::string_view(le, sizeof le), h_);
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

std::uint64_t pack_flags(const ProcSummary& p) {
  std::uint64_t f = 0;
  f |= p.is_function ? 1u : 0u;
  f |= p.returns_real ? 2u : 0u;
  f |= p.pure ? 4u : 0u;
  f |= p.recursive ? 8u : 0u;
  f |= p.calls_unknown ? 16u : 0u;
  f |= p.fp_sensitive ? 32u : 0u;
  return f;
}

std::uint64_t pack_flags(const DummySummary& d) {
  std::uint64_t f = static_cast<std::uint64_t>(d.intent) << 8;
  f |= d.may_read_incoming ? 1u : 0u;
  f |= d.observes_incoming ? 2u : 0u;
  f |= d.may_write ? 4u : 0u;
  f |= d.definitely_writes ? 8u : 0u;
  return f;
}

/// A procedure's (module, name) identity, as views into a ProcSummary.
using ProcKey = std::pair<std::string_view, std::string_view>;

struct ProcKeyHash {
  std::size_t operator()(const ProcKey& k) const {
    return static_cast<std::size_t>(
        fnv1a64(k.second, fnv1a64("\x1f", fnv1a64(k.first))));
  }
};

/// Candidates a call site can dispatch to: context- and arity-filtered.
std::vector<const Subprogram*> dispatch_candidates(
    const ProgramSymbols::ModuleSyms* syms, const std::string& name,
    std::size_t nargs, bool function_context) {
  std::vector<const Subprogram*> out;
  if (syms == nullptr || is_builtin(name)) return out;
  auto pit = syms->procs.find(name);
  if (pit == syms->procs.end()) return out;
  for (const ProcRef& c : pit->second) {
    if (c.sp->is_function() != function_context) continue;
    if (c.sp->params.size() != nargs) continue;
    out.push_back(c.sp);
  }
  return out;
}

/// Merges candidate summaries into one sound per-argument effect.
/// Nullopt when any candidate is missing, not yet computed, or recursive.
std::optional<CallEffect> merge_effects(
    const ProgramSymbols::ModuleSyms* syms, const CallGraph& cg,
    const std::vector<ProcSummary>& procs, const std::vector<char>* computed,
    const std::string& name, std::size_t nargs, bool function_context) {
  const std::vector<const Subprogram*> cands =
      dispatch_candidates(syms, name, nargs, function_context);
  if (cands.empty()) return std::nullopt;
  CallEffect eff;
  eff.args.resize(nargs);
  for (CallArgEffect& a : eff.args) {
    a.may_read_incoming = false;
    a.observes_incoming = true;
    a.may_write = false;
    a.definitely_writes = true;
  }
  for (const Subprogram* sp : cands) {
    const int idx = cg.index_of(sp);
    if (idx < 0) return std::nullopt;
    if (computed != nullptr && !(*computed)[static_cast<std::size_t>(idx)]) {
      return std::nullopt;
    }
    const ProcSummary& ps = procs[static_cast<std::size_t>(idx)];
    if (ps.recursive || ps.dummies.size() != nargs) return std::nullopt;
    for (std::size_t i = 0; i < nargs; ++i) {
      const DummySummary& d = ps.dummies[i];
      CallArgEffect& a = eff.args[i];
      a.may_read_incoming |= d.may_read_incoming;
      a.observes_incoming &= d.observes_incoming;
      a.may_write |= d.may_write || d.definitely_writes;
      a.definitely_writes &= d.definitely_writes;
    }
  }
  return eff;
}

using Bits = std::vector<char>;

bool or_into(Bits& dst, const Bits& src) {
  bool changed = false;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (src[i] && !dst[i]) {
      dst[i] = 1;
      changed = true;
    }
  }
  return changed;
}

/// Forward "may reach with property" analysis over variables, where the
/// property starts true at entry and a statement-level kill clears it.
/// `kills(f, cur)` applies the statement's kills to `cur`.
template <typename KillFn>
std::vector<Bits> forward_may(const DataflowResult& flow, KillFn kills) {
  const std::size_t nblocks = flow.cfg.size();
  const std::size_t nvars = flow.vars.size();
  std::vector<Bits> in(nblocks, Bits(nvars, 0));
  in[static_cast<std::size_t>(flow.cfg.entry)].assign(nvars, 1);
  std::vector<Bits> out(nblocks, Bits(nvars, 0));
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nblocks; ++b) {
      Bits cur = in[b];
      for (const StmtFacts& f : flow.facts[b]) kills(f, cur);
      if (cur != out[b]) {
        out[b] = std::move(cur);
        changed = true;
      }
      for (int s : flow.cfg.blocks[b].succs) {
        if (or_into(in[static_cast<std::size_t>(s)], out[b])) changed = true;
      }
    }
  }
  return in;
}

void kill_definite(const StmtFacts& f, Bits& cur) {
  if (f.def >= 0 && f.kills) cur[static_cast<std::size_t>(f.def)] = 0;
  for (int v : f.kill_defs) cur[static_cast<std::size_t>(v)] = 0;
}

void kill_any_write(const StmtFacts& f, Bits& cur) {
  if (f.def >= 0) cur[static_cast<std::size_t>(f.def)] = 0;
  for (int v : f.may_defs) cur[static_cast<std::size_t>(v)] = 0;
  for (int v : f.kill_defs) cur[static_cast<std::size_t>(v)] = 0;
}

/// Forward must-write: bit set when the variable is assigned on every path
/// reaching the point. Returns out-sets; out[exit] is the procedure verdict.
std::vector<Bits> forward_must_write(const DataflowResult& flow) {
  const std::size_t nblocks = flow.cfg.size();
  const std::size_t nvars = flow.vars.size();
  std::vector<Bits> in(nblocks, Bits(nvars, 1));
  std::vector<Bits> out(nblocks, Bits(nvars, 1));
  in[static_cast<std::size_t>(flow.cfg.entry)].assign(nvars, 0);
  std::vector<std::vector<int>> preds(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (int s : flow.cfg.blocks[b].succs) {
      preds[static_cast<std::size_t>(s)].push_back(static_cast<int>(b));
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (static_cast<int>(b) != flow.cfg.entry) {
        Bits meet(nvars, 1);
        if (preds[b].empty()) {
          // Unreachable: keep top so it cannot weaken reachable facts.
        } else {
          for (int p : preds[b]) {
            const Bits& po = out[static_cast<std::size_t>(p)];
            for (std::size_t v = 0; v < nvars; ++v) {
              if (!po[v]) meet[v] = 0;
            }
          }
        }
        in[b] = std::move(meet);
      }
      Bits cur = in[b];
      for (const StmtFacts& f : flow.facts[b]) {
        if (f.def >= 0 && f.kills) cur[static_cast<std::size_t>(f.def)] = 1;
        for (int v : f.kill_defs) cur[static_cast<std::size_t>(v)] = 1;
      }
      if (cur != out[b]) {
        out[b] = std::move(cur);
        changed = true;
      }
    }
  }
  return out;
}

std::string qualify(const Module* owner, const std::string& remote) {
  return owner->name + "::" + remote;
}

/// Walks one subprogram's statements collecting transitive global effects,
/// call resolution health, purity inputs and callee-propagated flags.
class GlobalsWalker {
 public:
  GlobalsWalker(const Subprogram& sp, const ProgramSymbols::ModuleSyms* syms,
                const CallGraph& cg, const std::vector<ProcSummary>& procs,
                const std::vector<char>* computed)
      : syms_(syms), cg_(cg), procs_(procs), computed_(computed), vars_(sp) {
    for (const auto& st : sp.body) walk_stmt(*st);
  }

  std::set<std::string> reads;
  std::set<std::string> writes;
  bool calls_unknown = false;
  bool impure = false;      // impure builtin called
  bool callee_impure = false;
  bool callee_fp = false;

 private:
  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        read_expr(s.rhs.get());
        const Expr& lhs = *s.lhs;
        for (const auto& seg : lhs.segments) {
          for (const auto& a : seg.args) read_expr(a.get());
        }
        if (vars_.lookup(lhs.base_name()) < 0 && syms_ != nullptr) {
          auto it = syms_->vars.find(lhs.base_name());
          if (it != syms_->vars.end()) {
            writes.insert(qualify(it->second.first, it->second.second));
            // A partial store flows the old value through: a read too.
            if (lhs.segments.size() > 1 || lhs.segments[0].has_args) {
              reads.insert(qualify(it->second.first, it->second.second));
            }
          }
        }
        break;
      }
      case StmtKind::kCall:
        apply_call(s.callee, s.args, /*function_context=*/false);
        break;
      case StmtKind::kIf:
        read_expr(s.cond.get());
        for (const auto& st : s.body) walk_stmt(*st);
        for (const auto& ei : s.elseifs) {
          read_expr(ei.cond.get());
          for (const auto& st : ei.body) walk_stmt(*st);
        }
        for (const auto& st : s.else_body) walk_stmt(*st);
        break;
      case StmtKind::kDo:
        read_expr(s.from.get());
        read_expr(s.to.get());
        read_expr(s.step.get());
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      case StmtKind::kDoWhile:
        read_expr(s.cond.get());
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      default:
        break;
    }
  }

  void read_expr(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kUnary || e->kind == ExprKind::kBinary) {
      read_expr(e->lhs.get());
      read_expr(e->rhs.get());
      return;
    }
    if (e->kind != ExprKind::kRef) return;
    const std::string& base = e->base_name();
    if (vars_.lookup(base) >= 0) {
      for (const auto& seg : e->segments) {
        for (const auto& a : seg.args) read_expr(a.get());
      }
      return;
    }
    if (syms_ != nullptr) {
      auto vit = syms_->vars.find(base);
      if (vit != syms_->vars.end()) {
        reads.insert(qualify(vit->second.first, vit->second.second));
        for (const auto& seg : e->segments) {
          for (const auto& a : seg.args) read_expr(a.get());
        }
        return;
      }
    }
    if (e->is_call_or_index() && !interp::is_intrinsic_function(base)) {
      apply_call(base, e->segments[0].args, /*function_context=*/true);
      return;
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) read_expr(a.get());
    }
  }

  void apply_call(const std::string& name,
                  const std::vector<lang::ExprPtr>& args,
                  bool function_context) {
    for (const auto& a : args) read_expr(a.get());
    if (is_builtin(name)) {
      impure = true;  // outfld emits, shr_rand_uniform draws state
      return;
    }
    const std::vector<const Subprogram*> cands =
        dispatch_candidates(syms_, name, args.size(), function_context);
    if (cands.empty()) {
      calls_unknown = true;
      conservative_module_args(args);
      return;
    }
    bool any_resolved = false;
    for (const Subprogram* sp : cands) {
      const int idx = cg_.index_of(sp);
      if (idx < 0) {
        calls_unknown = true;
        continue;
      }
      if (computed_ != nullptr &&
          !(*computed_)[static_cast<std::size_t>(idx)]) {
        // Same-SCC callee before its first round: contributes nothing yet;
        // later fixpoint rounds pick its effects up.
        continue;
      }
      const ProcSummary& ps = procs_[static_cast<std::size_t>(idx)];
      if (ps.recursive) {
        calls_unknown = true;
        continue;
      }
      any_resolved = true;
      for (const std::string& g : ps.globals_read) reads.insert(g);
      for (const std::string& g : ps.globals_written) writes.insert(g);
      if (!ps.pure) callee_impure = true;
      if (ps.calls_unknown) calls_unknown = true;
      if (ps.fp_sensitive) callee_fp = true;
      // Module variables passed by reference inherit the dummy's effect.
      if (ps.dummies.size() == args.size()) {
        for (std::size_t i = 0; i < args.size(); ++i) {
          const Expr* a = args[i].get();
          if (a == nullptr || !a->is_ref()) continue;
          if (vars_.lookup(a->base_name()) >= 0 || syms_ == nullptr) continue;
          auto vit = syms_->vars.find(a->base_name());
          if (vit == syms_->vars.end()) continue;
          const std::string q = qualify(vit->second.first, vit->second.second);
          const DummySummary& d = ps.dummies[i];
          if (d.may_read_incoming) reads.insert(q);
          if (d.may_write || d.definitely_writes) writes.insert(q);
        }
      }
    }
    if (!any_resolved) conservative_module_args(args);
  }

  // Unresolved callee: any module variable passed by reference may be both
  // read and written.
  void conservative_module_args(const std::vector<lang::ExprPtr>& args) {
    if (syms_ == nullptr) return;
    for (const auto& a : args) {
      if (a == nullptr || !a->is_ref()) continue;
      if (vars_.lookup(a->base_name()) >= 0) continue;
      auto vit = syms_->vars.find(a->base_name());
      if (vit == syms_->vars.end()) continue;
      const std::string q = qualify(vit->second.first, vit->second.second);
      reads.insert(q);
      writes.insert(q);
    }
  }

  const ProgramSymbols::ModuleSyms* syms_;
  const CallGraph& cg_;
  const std::vector<ProcSummary>& procs_;
  const std::vector<char>* computed_;
  VarTable vars_;
};

bool result_is_real(const Subprogram& sp) {
  if (!sp.is_function()) return false;
  for (const lang::VarDecl& d : sp.decls) {
    if (d.name == sp.result_name) return d.type.kind == TypeKind::kReal;
  }
  return false;
}

/// Summarizes one procedure against the already-computed callee summaries.
ProcSummary summarize_one(const CallGraph& cg, std::size_t idx,
                          const ProgramSymbols& symbols,
                          const std::vector<ProcSummary>& procs,
                          const std::vector<char>& computed) {
  const Module* m = cg.nodes[idx].module;
  const Subprogram& sp = *cg.nodes[idx].sp;
  const ProgramSymbols::ModuleSyms* syms = symbols.module(m->name);

  ProcSummary out;
  out.module = m->name;
  out.name = sp.name;
  out.is_function = sp.is_function();
  out.returns_real = result_is_real(sp);

  DataflowContext ctx;
  if (syms != nullptr) ctx.module_vars = &syms->vars;
  ctx.call_effects = [&](const std::string& name, std::size_t nargs,
                         bool function_context) {
    return merge_effects(syms, cg, procs, &computed, name, nargs,
                         function_context);
  };
  const DataflowResult flow = analyze_dataflow(sp, ctx);
  const std::size_t nvars = flow.vars.size();

  const std::vector<Bits> must_out = forward_must_write(flow);
  const Bits& written_at_exit =
      must_out[static_cast<std::size_t>(flow.cfg.exit)];
  // "Unwritten" states at block entry: no definite write yet on some path
  // (bounds may_read_incoming) / no possible write at all on some path
  // (bounds observes_incoming).
  const std::vector<Bits> no_def_write_in = forward_may(flow, kill_definite);
  const std::vector<Bits> no_any_write_in = forward_may(flow, kill_any_write);

  Bits reads_unwritten(nvars, 0);
  Bits observes(nvars, 0);
  for (std::size_t b = 0; b < flow.cfg.size(); ++b) {
    Bits no_def = no_def_write_in[b];
    Bits no_any = no_any_write_in[b];
    for (const StmtFacts& f : flow.facts[b]) {
      for (const UseSite& u : f.uses) {
        const std::size_t v = static_cast<std::size_t>(u.var);
        if (!u.summary_ignored && no_def[v]) reads_unwritten[v] = 1;
        if ((!u.via_call || u.summary_read) && no_any[v]) observes[v] = 1;
      }
      kill_definite(f, no_def);
      kill_any_write(f, no_any);
    }
  }

  out.dummies.reserve(sp.params.size());
  for (const std::string& p : sp.params) {
    DummySummary d;
    d.name = p;
    const int id = flow.vars.lookup(p);
    if (id >= 0) {
      const std::size_t v = static_cast<std::size_t>(id);
      d.intent = flow.vars.var(id).intent;
      d.may_write = flow.def_counts[v] > 0;
      d.definitely_writes = written_at_exit[v] != 0;
      d.may_read_incoming = reads_unwritten[v] != 0;
      d.observes_incoming = observes[v] != 0;
    }
    out.dummies.push_back(std::move(d));
  }

  GlobalsWalker gw(sp, syms, cg, procs, &computed);
  out.globals_read.assign(gw.reads.begin(), gw.reads.end());
  out.globals_written.assign(gw.writes.begin(), gw.writes.end());
  out.calls_unknown = gw.calls_unknown;
  out.pure = out.globals_written.empty() && !gw.impure && !gw.callee_impure &&
             !gw.calls_unknown;

  FpCallOracle oracle = [&](const std::string& name, std::size_t nargs) {
    const std::vector<const Subprogram*> cands =
        dispatch_candidates(syms, name, nargs, /*function_context=*/true);
    for (const Subprogram* c : cands) {
      const int ci = cg.index_of(c);
      if (ci >= 0 && procs[static_cast<std::size_t>(ci)].returns_real) {
        return true;
      }
      if (ci < 0 && result_is_real(*c)) return true;
    }
    return false;
  };
  out.fp_sensitive =
      !find_fp_sites(sp, syms, oracle).empty() || gw.callee_fp;
  return out;
}

}  // namespace

std::set<std::string> summary_cone(const CallGraph& cg,
                                   const std::set<std::string>& dirty) {
  // Module-level reverse adjacency: an edge caller -> callee means the
  // caller's module depends on the callee's module.
  std::map<std::string, std::set<std::string>> called_from;
  for (std::size_t u = 0; u < cg.nodes.size(); ++u) {
    for (std::size_t v : cg.callees[u]) {
      if (cg.nodes[u].module != cg.nodes[v].module) {
        called_from[cg.nodes[v].module->name].insert(
            cg.nodes[u].module->name);
      }
    }
  }
  std::set<std::string> cone = dirty;
  std::deque<std::string> work(dirty.begin(), dirty.end());
  while (!work.empty()) {
    const std::string m = work.front();
    work.pop_front();
    auto it = called_from.find(m);
    if (it == called_from.end()) continue;
    for (const std::string& caller : it->second) {
      if (cone.insert(caller).second) work.push_back(caller);
    }
  }
  return cone;
}

ProgramSummaries compute_summaries(
    const std::vector<const Module*>& modules, const ProgramSymbols& symbols,
    const ProgramSummaries* base, const std::set<std::string>* dirty_modules) {
  RCA_FAULT_POINT("analysis.summary");
  ProgramSummaries out;
  out.cg = build_call_graph(modules, symbols);
  const CallGraph& cg = out.cg;
  const std::size_t n = cg.nodes.size();
  out.procs.resize(n);

  // Outside the dirty modules' reverse caller cone nothing a body patch can
  // change is visible, so the base summary is still exact. The base is
  // matched by its plain-data (module, name) fields only: its call graph
  // points into ASTs a patch may already have freed.
  std::vector<char> reused(n, 0);
  if (base != nullptr && dirty_modules != nullptr) {
    const std::set<std::string> cone = summary_cone(cg, *dirty_modules);
    std::unordered_map<ProcKey, const ProcSummary*, ProcKeyHash> base_procs;
    base_procs.reserve(base->procs.size());
    for (const ProcSummary& p : base->procs) {
      base_procs.try_emplace(ProcKey{p.module, p.name}, &p);  // first wins
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& mod = cg.nodes[i].module->name;
      if (cone.count(mod) > 0) continue;
      auto it = base_procs.find(ProcKey{mod, cg.nodes[i].sp->name});
      if (it != base_procs.end() &&
          it->second->dummies.size() == cg.nodes[i].sp->params.size()) {
        out.procs[i] = *it->second;
        reused[i] = 1;
        ++out.procs_reused;
      }
    }
  }

  std::vector<char> computed = reused;
  constexpr int kMaxRounds = 8;
  for (std::size_t scc = 0; scc < cg.scc_count; ++scc) {
    const std::vector<std::size_t>& members = cg.scc_members[scc];
    bool all_reused = true;
    for (std::size_t idx : members) {
      if (!reused[idx]) all_reused = false;
    }
    if (all_reused) continue;
    const bool rec = cg.scc_recursive[scc];
    for (int round = 0; round < kMaxRounds; ++round) {
      bool changed = false;
      for (std::size_t idx : members) {
        if (reused[idx]) continue;
        ProcSummary s = summarize_one(cg, idx, symbols, out.procs, computed);
        if (!computed[idx] || !(s == out.procs[idx])) {
          out.procs[idx] = std::move(s);
          changed = true;
        }
        computed[idx] = 1;
      }
      if (!rec || !changed) break;
    }
    for (std::size_t idx : members) {
      if (reused[idx]) continue;
      // Recursive components fall back to the conservative model at every
      // consumer; the fixpoint above still refines globals and purity.
      if (rec) out.procs[idx].recursive = true;
      ++out.procs_recomputed;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::string& mod = cg.nodes[i].module->name;
    auto [it, fresh] = out.module_sigs.try_emplace(mod, 0);
    SummarySig sig;
    if (fresh) sig.add("rca-summary-sig-v1");
    sig.add_u64(it->second);
    const ProcSummary& p = out.procs[i];
    sig.add(p.name);
    sig.add_u64(pack_flags(p));
    sig.add_u64(p.dummies.size());
    for (const DummySummary& d : p.dummies) {
      sig.add(d.name);
      sig.add_u64(pack_flags(d));
    }
    for (const std::string& g : p.globals_read) sig.add(g);
    sig.add_u64(p.globals_read.size());
    for (const std::string& g : p.globals_written) sig.add(g);
    sig.add_u64(p.globals_written.size());
    it->second = sig.digest();
  }
  // Modules with no subprograms still need a stable signature.
  for (const Module* m : modules) {
    SummarySig sig;
    sig.add("rca-summary-sig-v1");
    out.module_sigs.try_emplace(m->name, sig.digest());
  }
  return out;
}

CallEffectFn make_call_effects(const ProgramSymbols& symbols,
                               const ProgramSummaries& summaries,
                               const std::string& module_name) {
  const ProgramSymbols::ModuleSyms* syms = symbols.module(module_name);
  if (syms == nullptr) return nullptr;
  return [syms, &summaries](const std::string& name, std::size_t nargs,
                            bool function_context) {
    return merge_effects(syms, summaries.cg, summaries.procs,
                         /*computed=*/nullptr, name, nargs, function_context);
  };
}

namespace {

void write_string_array(JsonWriter& w, const std::vector<std::string>& v) {
  w.begin_array();
  for (const std::string& item : v) w.string_value(item);
  w.end_array();
}

const char* intent_name(Intent intent) {
  switch (intent) {
    case Intent::kIn: return "in";
    case Intent::kOut: return "out";
    case Intent::kInOut: return "inout";
    case Intent::kNone: return "none";
  }
  return "none";
}

}  // namespace

std::string summaries_to_json(const ProgramSummaries& s) {
  // Sort by (module, name, declaration line) — node order already is module
  // order, but a deterministic dump should not depend on it.
  std::vector<std::size_t> order(s.procs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ProcSummary& pa = s.procs[a];
    const ProcSummary& pb = s.procs[b];
    if (pa.module != pb.module) return pa.module < pb.module;
    if (pa.name != pb.name) return pa.name < pb.name;
    return s.cg.nodes[a].sp->line < s.cg.nodes[b].sp->line;
  });

  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.summaries.v1");
  w.key("procedures");
  w.begin_array();
  for (std::size_t i : order) {
    const ProcSummary& p = s.procs[i];
    w.begin_object();
    w.key("module");
    w.string_value(p.module);
    w.key("name");
    w.string_value(p.name);
    w.key("kind");
    w.string_value(p.is_function ? "function" : "subroutine");
    w.key("pure");
    w.boolean(p.pure);
    w.key("recursive");
    w.boolean(p.recursive);
    w.key("calls_unknown");
    w.boolean(p.calls_unknown);
    w.key("fp_sensitive");
    w.boolean(p.fp_sensitive);
    if (p.is_function) {
      w.key("returns_real");
      w.boolean(p.returns_real);
    }
    w.key("dummies");
    w.begin_array();
    for (const DummySummary& ds : p.dummies) {
      w.begin_object();
      w.key("name");
      w.string_value(ds.name);
      w.key("intent");
      w.string_value(intent_name(ds.intent));
      w.key("may_read_incoming");
      w.boolean(ds.may_read_incoming);
      w.key("observes_incoming");
      w.boolean(ds.observes_incoming);
      w.key("may_write");
      w.boolean(ds.may_write);
      w.key("definitely_writes");
      w.boolean(ds.definitely_writes);
      w.end_object();
    }
    w.end_array();
    w.key("globals_read");
    write_string_array(w, p.globals_read);
    w.key("globals_written");
    write_string_array(w, p.globals_written);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str() + "\n";
}

}  // namespace rca::analysis
