#include "analysis/passes.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <tuple>

#include "analysis/callgraph.hpp"
#include "analysis/fpsense.hpp"
#include "analysis/summaries.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Intent;
using lang::Module;
using lang::Op;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::TypeKind;
using lang::VarDecl;

// ---------------------------------------------------------------------------
// ProgramSymbols.
// ---------------------------------------------------------------------------

ProgramSymbols::ProgramSymbols(const std::vector<const Module*>& modules,
                               const SubprogramFilter& keep) {
  // Own entities first. Node ordinals count every subprogram, kept or not,
  // so they are the call graph's node ids.
  std::size_t node = 0;
  for (const Module* m : modules) {
    auto& syms = modules_[m->name];
    syms.ast = m;
    for (const auto& sp : m->subprograms) {
      const std::size_t id = node++;
      if (keep && !keep(m->name, sp.name)) continue;
      syms.procs[sp.name].push_back(ProcRef{m, &sp, id});
    }
    for (const auto& d : m->decls) {
      syms.vars[d.name] = {m, d.name};
    }
  }
  // Interfaces expand to all their procedures (conservative mapping).
  for (const Module* m : modules) {
    auto& syms = modules_[m->name];
    for (const auto& iface : m->interfaces) {
      for (const auto& proc : iface.procedures) {
        auto it = syms.procs.find(proc);
        if (it == syms.procs.end()) continue;  // tolerated: dangling interface
        auto& vec = syms.procs[iface.name];
        vec.insert(vec.end(), it->second.begin(), it->second.end());
      }
    }
  }
  // Imports resolve in two rounds against immutable snapshots, so the result
  // is independent of module input order: round one imports each source
  // module's own exports, round two re-imports from the post-round-one
  // tables, which adds exactly one level of re-exported imports (`use b`
  // where b itself does `use c`); chained re-export beyond that is not
  // followed.
  auto apply_imports =
      [this](const std::vector<const Module*>& mods,
             const std::unordered_map<std::string, ModuleSyms>& sources) {
        for (const Module* m : mods) {
          auto& syms = modules_[m->name];
          auto process_use = [&syms, &sources](const lang::UseStmt& use) {
            auto sit = sources.find(use.module);
            if (sit == sources.end()) return;  // unresolved module: skip
            const auto& src = sit->second;
            auto import_one = [&](const std::string& local,
                                  const std::string& remote) {
              auto pit = src.procs.find(remote);
              if (pit != src.procs.end()) {
                auto& vec = syms.procs[local];
                for (const ProcRef& r : pit->second) {
                  const bool present =
                      std::any_of(vec.begin(), vec.end(),
                                  [&](const ProcRef& x) { return x.sp == r.sp; });
                  if (!present) vec.push_back(r);
                }
              }
              auto vit = src.vars.find(remote);
              if (vit != src.vars.end()) {
                syms.vars.emplace(local, vit->second);
              }
            };
            if (use.has_only) {
              for (const auto& r : use.renames) import_one(r.local, r.remote);
            } else {
              for (const auto& [name, _] : src.procs) import_one(name, name);
              for (const auto& [name, _] : src.vars) import_one(name, name);
            }
          };
          for (const auto& use : m->uses) process_use(use);
          for (const auto& sp : m->subprograms) {
            for (const auto& use : sp.uses) process_use(use);
          }
        }
      };
  const std::unordered_map<std::string, ModuleSyms> own_exports = modules_;
  apply_imports(modules, own_exports);
  const std::unordered_map<std::string, ModuleSyms> with_direct = modules_;
  apply_imports(modules, with_direct);
}

const ProgramSymbols::ModuleSyms* ProgramSymbols::module(
    const std::string& name) const {
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Shared pass helpers.
// ---------------------------------------------------------------------------

namespace {

Diagnostic make_diag(const std::string& rule, Severity sev,
                     const ModuleAnalysis& ma, const Subprogram& sp,
                     const std::string& name, std::string message, int line,
                     int column, int end_line) {
  Diagnostic d;
  d.rule = rule;
  d.severity = sev;
  d.module = ma.module->name;
  d.subprogram = sp.name;
  d.name = name;
  d.message = std::move(message);
  d.file = ma.module->file;
  d.line = line;
  d.column = column;
  d.end_line = end_line ? end_line : line;
  return d;
}

// ---------------------------------------------------------------------------
// use-before-def.
// ---------------------------------------------------------------------------

void pass_use_before_def(const ModuleAnalysis& ma, const ProgramSymbols&,
                         const PassContext&, std::vector<Diagnostic>* out) {
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];
    // One report per variable: its first flagged read in source order.
    std::unordered_map<int, const UseBeforeDef*> first;
    for (const UseBeforeDef& u : flow.use_before_def) {
      // A loop that fills an array element-by-element leaves the
      // uninitialized pseudo-def reachable; only the definite case is
      // trustworthy for arrays.
      if (!u.definite && flow.vars.var(u.var).is_array) continue;
      auto [it, inserted] = first.emplace(u.var, &u);
      if (!inserted &&
          std::tie(u.expr->line, u.expr->column) <
              std::tie(it->second->expr->line, it->second->expr->column)) {
        it->second = &u;
      }
    }
    std::vector<const UseBeforeDef*> ordered;
    ordered.reserve(first.size());
    for (const auto& [_, u] : first) ordered.push_back(u);
    std::sort(ordered.begin(), ordered.end(),
              [](const UseBeforeDef* a, const UseBeforeDef* b) {
                return std::tie(a->expr->line, a->expr->column, a->var) <
                       std::tie(b->expr->line, b->expr->column, b->var);
              });
    for (const UseBeforeDef* u : ordered) {
      const VarInfo& info = flow.vars.var(u->var);
      std::string msg;
      if (u->definite) {
        msg = info.kind == VarKind::kDummy
                  ? strfmt("intent(out) argument '%s' is read before it is "
                           "assigned",
                           info.name.c_str())
                  : strfmt("'%s' is read before any assignment",
                           info.name.c_str());
      } else {
        msg = strfmt("'%s' may be read before it is assigned",
                     info.name.c_str());
      }
      out->push_back(make_diag(
          "use-before-def", u->definite ? Severity::kError : Severity::kWarning,
          ma, sp, info.name, std::move(msg), u->expr->line, u->expr->column,
          u->expr->end_line));
    }
  }
}

// ---------------------------------------------------------------------------
// dead-store.
// ---------------------------------------------------------------------------

void pass_dead_store(const ModuleAnalysis& ma, const ProgramSymbols&,
                     const PassContext&, std::vector<Diagnostic>* out) {
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];
    for (const Stmt* st : flow.dead_stores) {
      const int id = flow.vars.lookup(st->lhs->base_name());
      if (id < 0) continue;
      // A variable with no reads at all is the unused-variable rule's
      // finding; flagging each of its stores too would be noise.
      if (flow.use_counts[static_cast<std::size_t>(id)] == 0) continue;
      const VarInfo& info = flow.vars.var(id);
      out->push_back(make_diag(
          "dead-store", Severity::kWarning, ma, sp, info.name,
          strfmt("value assigned to '%s' is never used", info.name.c_str()),
          st->line, st->column, st->end_line));
    }
  }
}

// ---------------------------------------------------------------------------
// unused-variable.
// ---------------------------------------------------------------------------

void pass_unused_variable(const ModuleAnalysis& ma, const ProgramSymbols&,
                          const PassContext&, std::vector<Diagnostic>* out) {
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];
    for (std::size_t v = 0; v < flow.vars.size(); ++v) {
      const VarInfo& info = flow.vars.var(static_cast<int>(v));
      if (info.kind != VarKind::kLocal) continue;  // dummies bind interfaces
      if (flow.use_counts[v] > 0) continue;
      const char* what = info.is_parameter ? "parameter" : "local variable";
      std::string msg =
          flow.def_counts[v] > 0
              ? strfmt("%s '%s' is assigned but its value is never used", what,
                       info.name.c_str())
              : strfmt("%s '%s' is never used", what, info.name.c_str());
      out->push_back(make_diag("unused-variable", Severity::kWarning, ma, sp,
                               info.name, std::move(msg), info.line, 0,
                               info.line));
    }
  }
}

// ---------------------------------------------------------------------------
// intent-violation.
// ---------------------------------------------------------------------------

void pass_intent_violation(const ModuleAnalysis& ma, const ProgramSymbols&,
                           const PassContext&, std::vector<Diagnostic>* out) {
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];

    // Writes to intent(in) dummies; first site per variable. Direct
    // assignments are errors; passing the dummy to a callee whose summary
    // says it assigns its argument is summary-derived knowledge and stays a
    // warning. Blanket (unresolved) call may-defs remain exempt.
    struct Write {
      const Stmt* st = nullptr;
      bool direct = false;
    };
    std::unordered_map<int, Write> first_write;
    auto note_write = [&](int v, const Stmt* st, bool direct) {
      const VarInfo& info = flow.vars.var(v);
      if (info.kind != VarKind::kDummy || info.intent != Intent::kIn) return;
      auto [it, inserted] = first_write.emplace(v, Write{st, direct});
      if (!inserted && std::tie(st->line, st->column) <
                           std::tie(it->second.st->line,
                                    it->second.st->column)) {
        it->second = Write{st, direct};
      }
    };
    for (std::size_t b = 0; b < flow.facts.size(); ++b) {
      for (std::size_t i = 0; i < flow.facts[b].size(); ++i) {
        const StmtFacts& f = flow.facts[b][i];
        const Stmt* st = flow.cfg.blocks[b].stmts[i].stmt;
        if (f.def >= 0) note_write(f.def, st, /*direct=*/true);
        for (int v : f.kill_defs) note_write(v, st, /*direct=*/false);
        for (int v : f.summary_may_defs) note_write(v, st, /*direct=*/false);
      }
    }
    std::vector<std::pair<int, Write>> writes(first_write.begin(),
                                              first_write.end());
    std::sort(writes.begin(), writes.end(),
              [](const auto& a, const auto& b) {
                return std::tie(a.second.st->line, a.second.st->column,
                                a.first) <
                       std::tie(b.second.st->line, b.second.st->column,
                                b.first);
              });
    for (const auto& [v, w] : writes) {
      const VarInfo& info = flow.vars.var(v);
      std::string msg =
          w.direct
              ? strfmt("dummy argument '%s' has intent(in) and cannot be "
                       "assigned",
                       info.name.c_str())
              : strfmt("dummy argument '%s' has intent(in) but is passed to "
                       "a procedure that assigns it",
                       info.name.c_str());
      out->push_back(make_diag(
          "intent-violation", w.direct ? Severity::kError : Severity::kWarning,
          ma, sp, info.name, std::move(msg), w.st->line, w.st->column,
          w.st->end_line));
    }

    for (std::size_t v = 0; v < flow.vars.size(); ++v) {
      const VarInfo& info = flow.vars.var(static_cast<int>(v));
      if (info.kind != VarKind::kDummy || info.intent != Intent::kOut) {
        continue;
      }
      if (flow.def_counts[v] > 0) continue;
      out->push_back(make_diag(
          "intent-violation", Severity::kWarning, ma, sp, info.name,
          strfmt("dummy argument '%s' has intent(out) but is never assigned",
                 info.name.c_str()),
          info.line, 0, info.line));
    }
  }
}

// ---------------------------------------------------------------------------
// shadowing.
// ---------------------------------------------------------------------------

void pass_shadowing(const ModuleAnalysis& ma, const ProgramSymbols& symbols,
                    const PassContext&, std::vector<Diagnostic>* out) {
  const ProgramSymbols::ModuleSyms* syms = symbols.module(ma.module->name);
  if (syms == nullptr) return;
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];
    for (const VarInfo& info : flow.vars.vars()) {
      if (info.kind == VarKind::kResult) continue;  // `f = ...` is the result
      if (info.name == sp.name) continue;
      const char* what = info.kind == VarKind::kDummy ? "dummy argument"
                                                      : "local variable";
      auto vit = syms->vars.find(info.name);
      if (vit != syms->vars.end()) {
        // By name: the tables may point into an earlier generation's AST
        // of this very module.
        const Module* owner = vit->second.first;
        std::string msg =
            owner->name == ma.module->name
                ? strfmt("%s '%s' shadows a module variable", what,
                         info.name.c_str())
                : strfmt("%s '%s' shadows a module variable imported from "
                         "'%s'",
                         what, info.name.c_str(), owner->name.c_str());
        out->push_back(make_diag("shadowing", Severity::kWarning, ma, sp,
                                 info.name, std::move(msg), info.line, 0,
                                 info.line));
        continue;
      }
      auto pit = syms->procs.find(info.name);
      if (pit != syms->procs.end() && !pit->second.empty()) {
        const Module* owner = pit->second.front().module;
        out->push_back(make_diag(
            "shadowing", Severity::kWarning, ma, sp, info.name,
            strfmt("%s '%s' shadows procedure '%s::%s'", what,
                   info.name.c_str(), owner->name.c_str(), info.name.c_str()),
            info.line, 0, info.line));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// call-mismatch.
// ---------------------------------------------------------------------------

enum class TypeClass { kUnknown, kNumeric, kLogical, kCharacter, kDerived };

struct TypeGuess {
  TypeClass cls = TypeClass::kUnknown;
  std::string derived;
};

const char* type_class_name(const TypeGuess& g) {
  switch (g.cls) {
    case TypeClass::kUnknown: return "unknown";
    case TypeClass::kNumeric: return "numeric";
    case TypeClass::kLogical: return "logical";
    case TypeClass::kCharacter: return "character";
    case TypeClass::kDerived: return "derived";
  }
  return "?";
}

TypeGuess class_of_spec(const lang::TypeSpec& t) {
  switch (t.kind) {
    case TypeKind::kReal:
    case TypeKind::kInteger:
      return {TypeClass::kNumeric, {}};
    case TypeKind::kLogical:
      return {TypeClass::kLogical, {}};
    case TypeKind::kCharacter:
      return {TypeClass::kCharacter, {}};
    case TypeKind::kDerived:
      return {TypeClass::kDerived, t.derived_name};
  }
  return {};
}

bool is_logical_op(Op op) {
  switch (op) {
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe:
    case Op::kGt: case Op::kGe: case Op::kAnd: case Op::kOr: case Op::kNot:
      return true;
    default:
      return false;
  }
}

/// Best-effort static type of an actual argument. Unknown never mismatches.
TypeGuess guess_type(const Expr* e, const VarTable& vars,
                     const ProgramSymbols::ModuleSyms* syms) {
  if (e == nullptr) return {};
  switch (e->kind) {
    case ExprKind::kNumber:
      return {TypeClass::kNumeric, {}};
    case ExprKind::kString:
      return {TypeClass::kCharacter, {}};
    case ExprKind::kLogical:
      return {TypeClass::kLogical, {}};
    case ExprKind::kUnary:
      return is_logical_op(e->op) ? TypeGuess{TypeClass::kLogical, {}}
                                  : guess_type(e->rhs.get(), vars, syms);
    case ExprKind::kBinary:
      return is_logical_op(e->op) ? TypeGuess{TypeClass::kLogical, {}}
                                  : TypeGuess{TypeClass::kNumeric, {}};
    case ExprKind::kRef:
      break;
  }
  if (e->segments.size() > 1) return {};  // component types stay unresolved
  const int id = vars.lookup(e->base_name());
  if (id >= 0) {
    const VarInfo& info = vars.var(id);
    return info.decl != nullptr ? class_of_spec(info.decl->type) : TypeGuess{};
  }
  if (syms != nullptr) {
    auto vit = syms->vars.find(e->base_name());
    if (vit != syms->vars.end()) {
      const VarDecl* d = vit->second.first->find_decl(vit->second.second);
      if (d != nullptr) return class_of_spec(d->type);
    }
  }
  return {};  // function result or unresolved: unknown
}

bool types_match(const TypeGuess& actual, const TypeGuess& dummy) {
  if (actual.cls == TypeClass::kUnknown || dummy.cls == TypeClass::kUnknown) {
    return true;
  }
  if (actual.cls != dummy.cls) return false;
  if (actual.cls == TypeClass::kDerived) return actual.derived == dummy.derived;
  return true;
}

TypeGuess dummy_type(const Subprogram& sp, const std::string& param) {
  for (const VarDecl& d : sp.decls) {
    if (d.name == param) return class_of_spec(d.type);
  }
  return {};
}

class CallChecker {
 public:
  CallChecker(const ModuleAnalysis& ma, const ProgramSymbols& symbols,
              std::vector<Diagnostic>* out)
      : ma_(ma), syms_(symbols.module(ma.module->name)), out_(out) {}

  void run() {
    if (syms_ == nullptr) return;
    for (std::size_t s = 0; s < ma_.subs.size(); ++s) {
      sp_ = &ma_.module->subprograms[s];
      vars_ = &ma_.subs[s].vars;
      for (const auto& st : sp_->body) walk_stmt(*st);
    }
  }

 private:
  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign:
        walk_expr(s.lhs.get());
        walk_expr(s.rhs.get());
        break;
      case StmtKind::kCall:
        check_call(s);
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
    if (e->is_call_or_index() && vars_->lookup(e->base_name()) < 0 &&
        syms_->vars.find(e->base_name()) == syms_->vars.end()) {
      auto pit = syms_->procs.find(e->base_name());
      if (pit != syms_->procs.end()) {
        check_candidates(e->base_name(), e->segments[0].args, pit->second,
                         /*functions_only=*/true, e->line, e->column,
                         e->end_line);
      }
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) walk_expr(a.get());
    }
  }

  void check_call(const Stmt& s) {
    // Builtins with dedicated graph semantics are not user procedures.
    if (s.callee == "outfld" || s.callee == "shr_rand_uniform") return;
    auto pit = syms_->procs.find(s.callee);
    if (pit == syms_->procs.end()) return;  // unresolved: builder skips too
    check_candidates(s.callee, s.args, pit->second, /*functions_only=*/false,
                     s.line, s.column, s.end_line);
  }

  void check_candidates(const std::string& name,
                        const std::vector<lang::ExprPtr>& args,
                        const std::vector<ProcRef>& cands, bool functions_only,
                        int line, int column, int end_line) {
    std::vector<const ProcRef*> usable;
    for (const ProcRef& c : cands) {
      if (functions_only && !c.sp->is_function()) continue;
      usable.push_back(&c);
    }
    if (usable.empty()) return;

    std::vector<const ProcRef*> arity_ok;
    for (const ProcRef* c : usable) {
      if (c->sp->params.size() == args.size()) arity_ok.push_back(c);
    }
    if (arity_ok.empty()) {
      std::string msg;
      if (usable.size() == 1) {
        msg = strfmt("call to '%s' passes %zu argument(s) but '%s::%s' takes "
                     "%zu",
                     name.c_str(), args.size(),
                     usable[0]->module->name.c_str(),
                     usable[0]->sp->name.c_str(),
                     usable[0]->sp->params.size());
      } else {
        msg = strfmt("no candidate of '%s' accepts %zu argument(s)",
                     name.c_str(), args.size());
      }
      out_->push_back(make_diag("call-mismatch", Severity::kError, ma_, *sp_,
                                name, std::move(msg), line, column, end_line));
      return;
    }

    for (const ProcRef* c : arity_ok) {
      if (candidate_type_viable(*c, args)) return;
    }
    std::string msg;
    if (arity_ok.size() == 1) {
      const ProcRef& c = *arity_ok[0];
      for (std::size_t i = 0; i < args.size(); ++i) {
        const TypeGuess actual = guess_type(args[i].get(), *vars_, syms_);
        const TypeGuess dummy = dummy_type(*c.sp, c.sp->params[i]);
        if (!types_match(actual, dummy)) {
          msg = strfmt("argument %zu of '%s' is %s but dummy '%s' is %s",
                       i + 1, name.c_str(), type_class_name(actual),
                       c.sp->params[i].c_str(), type_class_name(dummy));
          break;
        }
      }
    }
    if (msg.empty()) {
      msg = strfmt("no candidate of '%s' matches the argument types",
                   name.c_str());
    }
    out_->push_back(make_diag("call-mismatch", Severity::kError, ma_, *sp_,
                              name, std::move(msg), line, column, end_line));
  }

  bool candidate_type_viable(const ProcRef& c,
                             const std::vector<lang::ExprPtr>& args) const {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const TypeGuess actual = guess_type(args[i].get(), *vars_, syms_);
      const TypeGuess dummy = dummy_type(*c.sp, c.sp->params[i]);
      if (!types_match(actual, dummy)) return false;
    }
    return true;
  }

  const ModuleAnalysis& ma_;
  const ProgramSymbols::ModuleSyms* syms_ = nullptr;
  const Subprogram* sp_ = nullptr;
  const VarTable* vars_ = nullptr;
  std::vector<Diagnostic>* out_ = nullptr;
};

void pass_call_mismatch(const ModuleAnalysis& ma, const ProgramSymbols& symbols,
                        const PassContext&, std::vector<Diagnostic>* out) {
  CallChecker(ma, symbols, out).run();
}

// ---------------------------------------------------------------------------
// unused-dummy (interprocedural only).
// ---------------------------------------------------------------------------

void pass_unused_dummy(const ModuleAnalysis& ma, const ProgramSymbols&,
                       const PassContext&, std::vector<Diagnostic>* out) {
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    const DataflowResult& flow = ma.subs[s];
    for (std::size_t v = 0; v < flow.vars.size(); ++v) {
      const VarInfo& info = flow.vars.var(static_cast<int>(v));
      if (info.kind != VarKind::kDummy) continue;
      if (flow.use_counts[v] > 0 || flow.def_counts[v] > 0) continue;
      out->push_back(make_diag(
          "unused-dummy", Severity::kWarning, ma, sp, info.name,
          strfmt("dummy argument '%s' is never used", info.name.c_str()),
          info.line, 0, info.line));
    }
  }
}

// ---------------------------------------------------------------------------
// write-to-read-only-global (interprocedural only).
// ---------------------------------------------------------------------------

/// Finds writes to `parameter` module variables: direct assignments (the
/// dataflow facts skip module-level targets, so this walks statements) and
/// reference arguments a resolved callee writes.
class ReadOnlyGlobalChecker {
 public:
  ReadOnlyGlobalChecker(const ModuleAnalysis& ma, const ProgramSymbols& symbols,
                        const PassContext& ctx, std::vector<Diagnostic>* out)
      : ma_(ma), syms_(symbols.module(ma.module->name)), ctx_(ctx), out_(out) {}

  void run() {
    if (syms_ == nullptr) return;
    for (std::size_t s = 0; s < ma_.subs.size(); ++s) {
      sp_ = &ma_.module->subprograms[s];
      vars_ = &ma_.subs[s].vars;
      for (const auto& st : sp_->body) walk_stmt(*st);
    }
  }

 private:
  // The declaration behind a module-variable name, when it is a parameter.
  const VarDecl* read_only_decl(const std::string& base) const {
    if (vars_->lookup(base) >= 0) return nullptr;  // shadowed by a local
    auto vit = syms_->vars.find(base);
    if (vit == syms_->vars.end()) return nullptr;
    const VarDecl* d = vit->second.first->find_decl(vit->second.second);
    return d != nullptr && d->is_parameter ? d : nullptr;
  }

  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign: {
        const std::string& base = s.lhs->base_name();
        if (read_only_decl(base) != nullptr) {
          out_->push_back(make_diag(
              "write-to-read-only-global", Severity::kError, ma_, *sp_, base,
              strfmt("assignment to read-only module variable '%s'",
                     base.c_str()),
              s.line, s.column, s.end_line));
        }
        walk_expr(s.rhs.get());
        break;
      }
      case StmtKind::kCall:
        check_args(s.callee, s.args, /*function_context=*/false, s.line,
                   s.column, s.end_line);
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
    const std::string& base = e->base_name();
    if (e->is_call_or_index() && vars_->lookup(base) < 0 &&
        syms_->vars.find(base) == syms_->vars.end()) {
      check_args(base, e->segments[0].args, /*function_context=*/true, e->line,
                 e->column, e->end_line);
      return;
    }
    for (const auto& seg : e->segments) {
      for (const auto& a : seg.args) walk_expr(a.get());
    }
  }

  void check_args(const std::string& name,
                  const std::vector<lang::ExprPtr>& args, bool function_context,
                  int line, int column, int end_line) {
    for (const auto& a : args) walk_expr(a.get());
    if (!ctx_.call_effects) return;
    const std::optional<CallEffect> eff =
        ctx_.call_effects(name, args.size(), function_context);
    if (!eff || eff->args.size() != args.size()) return;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Expr* a = args[i].get();
      if (a == nullptr || !a->is_ref()) continue;
      const CallArgEffect& ae = eff->args[i];
      if (!ae.may_write && !ae.definitely_writes) continue;
      if (read_only_decl(a->base_name()) == nullptr) continue;
      out_->push_back(make_diag(
          "write-to-read-only-global", Severity::kWarning, ma_, *sp_,
          a->base_name(),
          strfmt("read-only module variable '%s' is passed to '%s', which "
                 "assigns it",
                 a->base_name().c_str(), name.c_str()),
          line, column, end_line));
    }
  }

  const ModuleAnalysis& ma_;
  const ProgramSymbols::ModuleSyms* syms_ = nullptr;
  const PassContext& ctx_;
  std::vector<Diagnostic>* out_ = nullptr;
  const Subprogram* sp_ = nullptr;
  const VarTable* vars_ = nullptr;
};

void pass_write_readonly_global(const ModuleAnalysis& ma,
                                const ProgramSymbols& symbols,
                                const PassContext& ctx,
                                std::vector<Diagnostic>* out) {
  ReadOnlyGlobalChecker(ma, symbols, ctx, out).run();
}

// ---------------------------------------------------------------------------
// fp-sensitivity (interprocedural only; see fpsense.hpp).
// ---------------------------------------------------------------------------

void pass_fp_sensitivity(const ModuleAnalysis& ma, const ProgramSymbols& symbols,
                         const PassContext& ctx,
                         std::vector<Diagnostic>* out) {
  const ProgramSymbols::ModuleSyms* syms = symbols.module(ma.module->name);
  const FpCallOracle oracle = summary_call_oracle(syms, ctx.summaries);
  for (std::size_t s = 0; s < ma.subs.size(); ++s) {
    const Subprogram& sp = ma.module->subprograms[s];
    for (const FpSite& site : find_fp_sites(sp, syms, oracle)) {
      const char* why =
          site.kind == FpSite::Kind::kContraction
              ? "FMA contraction can change its rounding"
              : "reassociation can change its value";
      std::string msg =
          site.target.empty()
              ? strfmt("expression is FP-sensitive: %s", why)
              : strfmt("expression assigned to '%s' is FP-sensitive: %s",
                       site.target.c_str(), why);
      out->push_back(make_diag("fp-sensitivity", Severity::kNote, ma, sp,
                               site.target, std::move(msg), site.expr->line,
                               site.expr->column, site.expr->end_line));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PassManager.
// ---------------------------------------------------------------------------

namespace {

/// The runs in report order: `unowned` first, then the module runs by
/// module name, same-named modules' runs merged into one.
std::vector<std::shared_ptr<const DiagnosticRun>> report_runs(
    const AnalysisResult& r) {
  std::vector<std::shared_ptr<const DiagnosticRun>> out;
  out.reserve(r.runs.size() + 1);
  if (r.unowned) out.push_back(r.unowned);
  if (r.order == nullptr) return out;
  const std::vector<std::size_t>& order = *r.order;
  for (std::size_t k = 0; k < order.size();) {
    const std::string& name = r.runs[order[k]]->module;
    std::size_t end = k + 1;
    while (end < order.size() && r.runs[order[end]]->module == name) ++end;
    if (end == k + 1) {
      out.push_back(r.runs[order[k]]);
    } else {
      std::vector<Diagnostic> merged;
      for (std::size_t j = k; j < end; ++j) {
        const auto& diags = r.runs[order[j]]->diagnostics;
        merged.insert(merged.end(), diags.begin(), diags.end());
      }
      out.push_back(std::make_shared<const DiagnosticRun>(name, std::move(merged)));
    }
    k = end;
  }
  return out;
}

}  // namespace

std::size_t AnalysisResult::count(Severity s) const {
  const auto i = static_cast<std::size_t>(s);
  std::size_t n = unowned ? unowned->counts[i] : 0;
  for (const auto& run : runs) n += run->counts[i];
  return n;
}

std::vector<Diagnostic> AnalysisResult::diagnostics() const {
  std::vector<Diagnostic> out;
  for (const auto& run : report_runs(*this)) {
    out.insert(out.end(), run->diagnostics.begin(), run->diagnostics.end());
  }
  return out;
}

void AnalysisResult::append_report(std::string* out) const {
  obs::Span span("lint.render");
  const auto ordered = report_runs(*this);
  std::vector<const DiagnosticRun*> runs_in_order;
  runs_in_order.reserve(ordered.size());
  for (const auto& run : ordered) runs_in_order.push_back(run.get());
  const std::size_t before = out->size();
  append_diagnostics_report(runs_in_order, out);
  span.attr("bytes", out->size() - before);
}

std::string AnalysisResult::report() const {
  std::string out;
  append_report(&out);
  return out;
}

void AnalysisResult::set_parse_errors(
    const std::vector<std::pair<std::string, std::string>>& parse_errors) {
  std::vector<Diagnostic> diags;
  fold_parse_errors(parse_errors, &diags);
  unowned = diags.empty()
                ? nullptr
                : std::make_shared<const DiagnosticRun>("", std::move(diags));
}

void PassManager::add_pass(std::string id, PassFn fn) {
  ids_.push_back(id);
  passes_.push_back(Pass{std::move(id), std::move(fn)});
}

AnalysisResult PassManager::run(
    const std::vector<const Module*>& modules) const {
  return analyze(modules, nullptr, nullptr,
                 std::vector<bool>(modules.size(), true));
}

AnalysisResult PassManager::run(const std::vector<const Module*>& modules,
                                const ProgramSymbols& symbols,
                                const AnalysisResult& base,
                                const std::vector<bool>& dirty) const {
  RCA_CHECK_MSG(base.runs.size() == modules.size() &&
                    (base.summaries != nullptr) == interprocedural_,
                "relint base from another module sequence or rule set");
  return analyze(modules, &symbols, &base, dirty);
}

AnalysisResult PassManager::analyze(const std::vector<const Module*>& modules,
                                    const ProgramSymbols* given,
                                    const AnalysisResult* base,
                                    const std::vector<bool>& dirty) const {
  RCA_CHECK_MSG(dirty.size() == modules.size(),
                "dirty mask must parallel the module list");
  obs::Span span("lint");
  std::optional<ProgramSymbols> built;
  {
    obs::Span sym_span("lint.symbols");
    if (given == nullptr) built.emplace(modules);
    sym_span.attr("carried", given != nullptr);
  }
  const ProgramSymbols& symbols = given != nullptr ? *given : *built;

  // Interprocedural mode: build (or patch) the call graph, compute (or
  // refresh) the program summaries, then widen the dirty set to the reverse
  // caller cone of every module whose summaries changed — a body patch can
  // shift lint results anywhere a summary consumer lives.
  std::shared_ptr<const ProgramSummaries> summaries;
  std::vector<bool> effective = dirty;
  if (interprocedural_) {
    std::shared_ptr<const CallGraph> cg;
    {
      obs::Span cg_span("lint.callgraph");
      cg = base != nullptr
               ? patch_call_graph(base->summaries->cg, modules, symbols, dirty)
               : std::make_shared<const CallGraph>(
                     build_call_graph(modules, symbols));
      cg_span.attr("reused", base != nullptr && cg == base->summaries->cg);
    }
    obs::Span sum_span("lint.summaries");
    summaries = std::make_shared<const ProgramSummaries>(compute_summaries(
        modules, symbols, std::move(cg),
        base != nullptr ? base->summaries.get() : nullptr,
        base != nullptr ? &dirty : nullptr));
    if (base != nullptr) {
      std::vector<bool> changed(modules.size(), false);
      for (std::size_t m = 0; m < modules.size(); ++m) {
        const auto& now = summaries->modules[m];
        const auto& was = base->summaries->modules[m];
        changed[m] = now != was && *now != *was;
      }
      const std::vector<bool> cone = summary_cone(*summaries->cg, changed);
      std::size_t cone_modules = 0;
      std::size_t widened = 0;
      for (std::size_t m = 0; m < modules.size(); ++m) {
        if (!cone[m]) continue;
        ++cone_modules;
        if (!effective[m]) {
          effective[m] = true;
          ++widened;
        }
      }
      obs::count("lint.summary.cone_modules", cone_modules);
      obs::count("lint.summary.cone_widened", widened);
    }
    obs::count("lint.summary.procs", summaries->size());
    obs::count("lint.summary.procs_recomputed", summaries->procs_recomputed);
    obs::count("lint.summary.procs_reused", summaries->procs_reused);
    sum_span.attr("procs", summaries->size());
  }

  std::vector<ModuleAnalysis> analyses;
  std::vector<PassContext> contexts;
  std::size_t subprograms = 0;
  std::size_t calls_resolved = 0;
  {
    obs::Span flow_span("lint.dataflow");
    for (std::size_t mi = 0; mi < modules.size(); ++mi) {
      const Module* m = modules[mi];
      // Totals always cover the whole corpus so a relint that carries runs
      // reports the same counts as a full run.
      subprograms += m->subprograms.size();
      if (!effective[mi]) continue;
      ModuleAnalysis ma;
      ma.module = m;
      ma.index = mi;
      DataflowContext ctx;
      const ProgramSymbols::ModuleSyms* syms = symbols.module(m->name);
      if (syms != nullptr) ctx.module_vars = &syms->vars;
      PassContext pctx;
      if (summaries != nullptr) {
        pctx.summaries = summaries.get();
        pctx.call_effects = make_call_effects(symbols, *summaries, m->name);
        ctx.call_effects = pctx.call_effects;
      }
      ma.subs.reserve(m->subprograms.size());
      for (const Subprogram& sp : m->subprograms) {
        ma.subs.push_back(analyze_dataflow(sp, ctx));
        calls_resolved += ma.subs.back().calls_resolved;
      }
      analyses.push_back(std::move(ma));
      contexts.push_back(std::move(pctx));
    }
  }

  std::vector<std::vector<Diagnostic>> found(analyses.size());
  obs::Registry& reg = obs::global();
  for (const Pass& p : passes_) {
    std::uint32_t sid = 0;
    if (reg.enabled()) sid = reg.begin_span("lint.pass." + p.id);
    std::size_t n = 0;
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      const std::size_t before = found[i].size();
      p.fn(analyses[i], symbols, contexts[i], &found[i]);
      n += found[i].size() - before;
    }
    if (reg.enabled()) {
      reg.counter_add("lint.rule." + p.id, n);
      if (sid != 0) {
        reg.span_attr(sid, "diagnostics",
                      obs::AttrValue::of(static_cast<long long>(n)));
        reg.end_span(sid);
      }
    }
  }

  // One immutable run per re-analyzed module; every other module's run is
  // the base's own.
  AnalysisResult result;
  result.modules = modules.size();
  result.subprograms = subprograms;
  result.summaries = summaries;
  obs::Span merge_span("lint.merge");
  result.runs.resize(modules.size());
  std::array<std::size_t, 3> fresh{};
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    auto run = std::make_shared<const DiagnosticRun>(analyses[i].module->name,
                                                     std::move(found[i]));
    for (std::size_t s = 0; s < fresh.size(); ++s) fresh[s] += run->counts[s];
    result.runs[analyses[i].index] = std::move(run);
  }
  std::size_t carried = 0;
  for (std::size_t m = 0; m < modules.size(); ++m) {
    if (result.runs[m] != nullptr) continue;
    result.runs[m] = base->runs[m];
    ++carried;
  }
  if (base != nullptr) {
    result.order = base->order;
    obs::count("lint.modules_carried", carried);
  } else {
    auto order = std::make_shared<std::vector<std::size_t>>(modules.size());
    for (std::size_t m = 0; m < order->size(); ++m) (*order)[m] = m;
    std::stable_sort(order->begin(), order->end(),
                     [&](std::size_t a, std::size_t b) {
                       return modules[a]->name < modules[b]->name;
                     });
    result.order = std::move(order);
  }
  result.analyzed = std::move(effective);
  // Tear down the dataflow facts and freshly built tables here, so the
  // time is charged to this span instead of to none of `lint`'s children.
  analyses.clear();
  contexts.clear();
  found.clear();
  built.reset();

  const std::size_t errors = fresh[static_cast<std::size_t>(Severity::kError)];
  const std::size_t warnings =
      fresh[static_cast<std::size_t>(Severity::kWarning)];
  const std::size_t fresh_total =
      errors + warnings + fresh[static_cast<std::size_t>(Severity::kNote)];
  obs::count("lint.modules", modules.size());
  obs::count("lint.subprograms", subprograms);
  if (interprocedural_) {
    obs::count("lint.summary.calls_resolved", calls_resolved);
  }
  obs::count("lint.diagnostics", fresh_total);
  obs::count("lint.errors", errors);
  obs::count("lint.warnings", warnings);
  span.attr("modules", modules.size());
  span.attr("diagnostics", fresh_total);
  return result;
}

PassManager PassManager::default_passes() {
  PassManager pm = intraprocedural_passes();
  pm.interprocedural_ = true;
  pm.add_pass("unused-dummy", pass_unused_dummy);
  pm.add_pass("write-to-read-only-global", pass_write_readonly_global);
  pm.add_pass("fp-sensitivity", pass_fp_sensitivity);
  return pm;
}

PassManager PassManager::intraprocedural_passes() {
  PassManager pm;
  pm.add_pass("use-before-def", pass_use_before_def);
  pm.add_pass("dead-store", pass_dead_store);
  pm.add_pass("unused-variable", pass_unused_variable);
  pm.add_pass("intent-violation", pass_intent_violation);
  pm.add_pass("shadowing", pass_shadowing);
  pm.add_pass("call-mismatch", pass_call_mismatch);
  return pm;
}

}  // namespace rca::analysis
