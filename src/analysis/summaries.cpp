#include "analysis/summaries.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "analysis/fpsense.hpp"
#include "fault/fault.hpp"
#include "interp/intrinsics.hpp"
#include "lang/printer.hpp"
#include "support/error.hpp"
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

/// Candidates a call site can dispatch to: context- and arity-filtered.
std::vector<const ProcRef*> dispatch_candidates(
    const ProgramSymbols::ModuleSyms* syms, const std::string& name,
    std::size_t nargs, bool function_context) {
  std::vector<const ProcRef*> out;
  if (syms == nullptr || is_builtin(name)) return out;
  auto pit = syms->procs.find(name);
  if (pit == syms->procs.end()) return out;
  for (const ProcRef& c : pit->second) {
    if (c.sp->is_function() != function_context) continue;
    if (c.sp->params.size() != nargs) continue;
    out.push_back(&c);
  }
  return out;
}

/// Merges candidate summaries into one sound per-argument effect.
/// Nullopt when any candidate is not yet computed (`computed`, per node,
/// null once every summary is final) or recursive.
std::optional<CallEffect> merge_effects(
    const ProgramSymbols::ModuleSyms* syms, const ProgramSummaries& summaries,
    const std::vector<char>* computed, const std::string& name,
    std::size_t nargs, bool function_context) {
  const std::vector<const ProcRef*> cands =
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
  for (const ProcRef* c : cands) {
    if (computed != nullptr && !(*computed)[c->node]) return std::nullopt;
    const ProcSummary& ps = summaries.proc(c->node);
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
                const ProgramSummaries& summaries,
                const std::vector<char>* computed)
      : syms_(syms), summaries_(summaries), computed_(computed), vars_(sp) {
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
    const std::vector<const ProcRef*> cands =
        dispatch_candidates(syms_, name, args.size(), function_context);
    if (cands.empty()) {
      calls_unknown = true;
      conservative_module_args(args);
      return;
    }
    bool any_resolved = false;
    for (const ProcRef* c : cands) {
      if (computed_ != nullptr && !(*computed_)[c->node]) {
        // Same-SCC callee before its first round: contributes nothing yet;
        // later fixpoint rounds pick its effects up.
        continue;
      }
      const ProcSummary& ps = summaries_.proc(c->node);
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
  const ProgramSummaries& summaries_;
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

/// Summarizes node `idx` against the already-computed callee summaries.
ProcSummary summarize_one(const std::vector<const Module*>& modules,
                          std::size_t idx, const ProgramSymbols& symbols,
                          const ProgramSummaries& summaries,
                          const std::vector<char>& computed) {
  const CallGraph& cg = *summaries.cg;
  const Module* m = modules[cg.module_of[idx]];
  const Subprogram& sp = cg.subprogram(modules, idx);
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
    return merge_effects(syms, summaries, &computed, name, nargs,
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

  GlobalsWalker gw(sp, syms, summaries, &computed);
  out.globals_read.assign(gw.reads.begin(), gw.reads.end());
  out.globals_written.assign(gw.writes.begin(), gw.writes.end());
  out.calls_unknown = gw.calls_unknown;
  out.pure = out.globals_written.empty() && !gw.impure && !gw.callee_impure &&
             !gw.calls_unknown;

  FpCallOracle oracle = [&](const std::string& name, std::size_t nargs) {
    for (const ProcRef* c :
         dispatch_candidates(syms, name, nargs, /*function_context=*/true)) {
      if (summaries.proc(c->node).returns_real) return true;
    }
    return false;
  };
  out.fp_sensitive =
      !find_fp_sites(sp, syms, oracle).empty() || gw.callee_fp;
  return out;
}

}  // namespace

std::vector<bool> summary_cone(const CallGraph& cg,
                               const std::vector<bool>& dirty) {
  std::vector<bool> cone = dirty;
  std::vector<std::size_t> work;
  for (std::size_t m = 0; m < dirty.size(); ++m) {
    if (dirty[m]) work.push_back(m);
  }
  while (!work.empty()) {
    const std::size_t m = work.back();
    work.pop_back();
    for (std::size_t caller : cg.module_callers[m]) {
      if (!cone[caller]) {
        cone[caller] = true;
        work.push_back(caller);
      }
    }
  }
  return cone;
}

ProgramSummaries compute_summaries(const std::vector<const Module*>& modules,
                                   const ProgramSymbols& symbols) {
  return compute_summaries(
      modules, symbols,
      std::make_shared<const CallGraph>(build_call_graph(modules, symbols)));
}

ProgramSummaries compute_summaries(const std::vector<const Module*>& modules,
                                   const ProgramSymbols& symbols,
                                   std::shared_ptr<const CallGraph> cg,
                                   const ProgramSummaries* base,
                                   const std::vector<bool>* dirty) {
  RCA_FAULT_POINT("analysis.summary");
  ProgramSummaries out;
  out.cg = std::move(cg);
  const CallGraph& g = *out.cg;
  RCA_CHECK_MSG(g.module_count() == modules.size(),
                "summaries over a different module sequence");
  out.modules.resize(modules.size());

  // Outside the dirty modules' reverse caller cone nothing a body patch can
  // change is visible, so the base's module runs are still exact and are
  // shared; the runs inside it are recomputed into fresh storage.
  const bool incremental = base != nullptr && dirty != nullptr;
  const std::vector<bool> recompute =
      incremental ? summary_cone(g, *dirty)
                  : std::vector<bool>(modules.size(), true);
  std::vector<char> computed(g.size(), 0);
  std::vector<std::vector<ProcSummary>*> fresh(modules.size(), nullptr);
  std::vector<std::size_t> sccs;
  for (std::size_t m = 0; m < modules.size(); ++m) {
    const std::size_t begin = g.module_begin[m];
    const std::size_t end = g.module_begin[m + 1];
    if (!recompute[m]) {
      RCA_CHECK_MSG(base->modules[m]->size() == end - begin,
                    "base summaries over a different subprogram sequence");
      out.modules[m] = base->modules[m];
      std::fill(computed.begin() + static_cast<std::ptrdiff_t>(begin),
                computed.begin() + static_cast<std::ptrdiff_t>(end), 1);
      continue;
    }
    auto run = std::make_shared<std::vector<ProcSummary>>(end - begin);
    fresh[m] = run.get();
    out.modules[m] = std::move(run);
    if (incremental) {
      for (std::size_t n = begin; n < end; ++n) sccs.push_back(g.scc_of[n]);
    }
  }
  if (incremental) {
    // A component holding a cone node lies wholly inside the cone (its
    // members all reach that node), so the cone's components are exactly
    // the ones to recompute, in ascending (bottom-up) order.
    std::sort(sccs.begin(), sccs.end());
    sccs.erase(std::unique(sccs.begin(), sccs.end()), sccs.end());
  } else {
    sccs.resize(g.scc_count);
    for (std::size_t c = 0; c < g.scc_count; ++c) sccs[c] = c;
  }

  auto slot = [&](std::size_t n) -> ProcSummary& {
    const std::size_t m = g.module_of[n];
    return (*fresh[m])[n - g.module_begin[m]];
  };
  constexpr int kMaxRounds = 8;
  for (std::size_t scc : sccs) {
    const std::vector<std::size_t>& members = g.scc_members[scc];
    const bool rec = g.scc_recursive[scc];
    for (int round = 0; round < kMaxRounds; ++round) {
      bool changed = false;
      for (std::size_t idx : members) {
        ProcSummary s = summarize_one(modules, idx, symbols, out, computed);
        if (!computed[idx] || !(s == slot(idx))) {
          slot(idx) = std::move(s);
          changed = true;
        }
        computed[idx] = 1;
      }
      if (!rec || !changed) break;
    }
    for (std::size_t idx : members) {
      // Recursive components fall back to the conservative model at every
      // consumer; the fixpoint above still refines globals and purity.
      if (rec) slot(idx).recursive = true;
      ++out.procs_recomputed;
    }
  }
  if (incremental) out.procs_reused = g.size() - out.procs_recomputed;
  return out;
}

CallEffectFn make_call_effects(const ProgramSymbols& symbols,
                               const ProgramSummaries& summaries,
                               const std::string& module_name) {
  const ProgramSymbols::ModuleSyms* syms = symbols.module(module_name);
  if (syms == nullptr) return nullptr;
  return [syms, &summaries](const std::string& name, std::size_t nargs,
                            bool function_context) {
    return merge_effects(syms, summaries, /*computed=*/nullptr, name, nargs,
                         function_context);
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
  // Sort by (module, name), then node (declaration) order — node order
  // already is module order, but a deterministic dump should not depend on
  // it.
  std::vector<std::size_t> order(s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const ProcSummary& pa = s.proc(a);
    const ProcSummary& pb = s.proc(b);
    if (pa.module != pb.module) return pa.module < pb.module;
    if (pa.name != pb.name) return pa.name < pb.name;
    return a < b;
  });

  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.summaries.v1");
  w.key("procedures");
  w.begin_array();
  for (std::size_t i : order) {
    const ProcSummary& p = s.proc(i);
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
