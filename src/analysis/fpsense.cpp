#include "analysis/fpsense.hpp"

#include <algorithm>
#include <unordered_map>

#include "analysis/summaries.hpp"
#include "interp/intrinsics.hpp"
#include "lang/printer.hpp"
#include "support/json.hpp"

namespace rca::analysis {

using lang::Expr;
using lang::ExprKind;
using lang::Module;
using lang::Op;
using lang::Stmt;
using lang::StmtKind;
using lang::Subprogram;
using lang::TypeKind;
using lang::VarDecl;

namespace {

bool is_add_sub(const Expr& e) {
  return e.kind == ExprKind::kBinary && (e.op == Op::kAdd || e.op == Op::kSub);
}

bool is_arithmetic(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kPow:
      return true;
    default:
      return false;
  }
}

// Intrinsics that produce real values regardless of argument types.
bool is_fp_intrinsic(const std::string& name) {
  static const char* const kNames[] = {
      "sqrt", "exp",  "log",  "log10", "sin",  "cos",  "tan",
      "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
  };
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

/// Classifies expressions as floating-point and collects the two site
/// shapes. One instance per subprogram.
class FpScanner {
 public:
  FpScanner(const Subprogram& sp, const ProgramSymbols::ModuleSyms* syms,
            const FpCallOracle& returns_real, std::vector<FpSite>* out)
      : sp_(sp), syms_(syms), returns_real_(returns_real), out_(out) {
    for (const VarDecl& d : sp.decls) decls_.emplace(d.name, &d);
    for (const auto& st : sp.body) walk_stmt(*st);
  }

 private:
  void walk_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kAssign:
        scan_root(s.rhs.get(), s.lhs ? s.lhs->base_name() : std::string());
        break;
      case StmtKind::kCall:
        for (const auto& a : s.args) scan_root(a.get(), "");
        break;
      case StmtKind::kIf:
        scan_root(s.cond.get(), "");
        for (const auto& st : s.body) walk_stmt(*st);
        for (const auto& ei : s.elseifs) {
          scan_root(ei.cond.get(), "");
          for (const auto& st : ei.body) walk_stmt(*st);
        }
        for (const auto& st : s.else_body) walk_stmt(*st);
        break;
      case StmtKind::kDo:
        scan_root(s.from.get(), "");
        scan_root(s.to.get(), "");
        scan_root(s.step.get(), "");
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      case StmtKind::kDoWhile:
        scan_root(s.cond.get(), "");
        for (const auto& st : s.body) walk_stmt(*st);
        break;
      default:
        break;
    }
  }

  void scan_root(const Expr* e, const std::string& target) {
    target_ = target;
    scan(e, /*parent_is_chain=*/false);
  }

  void scan(const Expr* e, bool parent_is_chain) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kUnary) {
      scan(e->rhs.get(), false);
      return;
    }
    if (e->kind == ExprKind::kRef) {
      for (const auto& seg : e->segments) {
        for (const auto& a : seg.args) scan(a.get(), false);
      }
      return;
    }
    if (e->kind != ExprKind::kBinary) return;
    if (is_add_sub(*e)) {
      // Reassociation: the top of a left-associated +/- chain of three or
      // more FP terms — the compiler's association order changes the sum.
      if (!parent_is_chain && chain_terms(*e) >= 3 && is_fp(*e)) {
        out_->push_back({&sp_, e, FpSite::Kind::kReassociation, target_});
      }
      // Contraction: an FP add/subtract with a multiply operand, the shape
      // FMA contraction fuses with a single rounding.
      const bool mul_child =
          (e->lhs && e->lhs->kind == ExprKind::kBinary &&
           e->lhs->op == Op::kMul) ||
          (e->rhs && e->rhs->kind == ExprKind::kBinary &&
           e->rhs->op == Op::kMul);
      if (mul_child && is_fp(*e)) {
        out_->push_back({&sp_, e, FpSite::Kind::kContraction, target_});
      }
      scan(e->lhs.get(), true);
      scan(e->rhs.get(), true);
      return;
    }
    scan(e->lhs.get(), false);
    scan(e->rhs.get(), false);
  }

  static int chain_terms(const Expr& e) {
    if (!is_add_sub(e)) return 1;
    return (e.lhs ? chain_terms(*e.lhs) : 1) + 1;
  }

  bool is_fp(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return !e.is_int;
      case ExprKind::kString:
      case ExprKind::kLogical:
        return false;
      case ExprKind::kUnary:
        return e.rhs != nullptr && (e.op == Op::kNeg || e.op == Op::kPlusSign)
                   ? is_fp(*e.rhs)
                   : false;
      case ExprKind::kBinary:
        if (!is_arithmetic(e.op)) return false;
        return (e.lhs && is_fp(*e.lhs)) || (e.rhs && is_fp(*e.rhs));
      case ExprKind::kRef:
        break;
    }
    const std::string& base = e.base_name();
    auto dit = decls_.find(base);
    if (dit != decls_.end()) return dit->second->type.kind == TypeKind::kReal;
    if (syms_ != nullptr) {
      auto vit = syms_->vars.find(base);
      if (vit != syms_->vars.end()) {
        const VarDecl* d = vit->second.first->find_decl(vit->second.second);
        return d != nullptr && d->type.kind == TypeKind::kReal;
      }
    }
    if (e.is_call_or_index()) {
      const std::size_t nargs = e.segments[0].args.size();
      if (interp::is_intrinsic_function(base)) {
        if (is_fp_intrinsic(base)) return true;
        // abs/max/min/... follow their arguments.
        for (const auto& a : e.segments[0].args) {
          if (a && is_fp(*a)) return true;
        }
        return false;
      }
      if (returns_real_) return returns_real_(base, nargs);
    }
    return false;
  }

  const Subprogram& sp_;
  const ProgramSymbols::ModuleSyms* syms_;
  const FpCallOracle& returns_real_;
  std::vector<FpSite>* out_;
  std::unordered_map<std::string, const VarDecl*> decls_;
  std::string target_;
};

}  // namespace

const char* fp_site_kind_name(FpSite::Kind k) {
  return k == FpSite::Kind::kContraction ? "contraction" : "reassociation";
}

FpCallOracle summary_call_oracle(const ProgramSymbols::ModuleSyms* syms,
                                 const ProgramSummaries* summaries) {
  return [syms, summaries](const std::string& name, std::size_t nargs) {
    if (syms == nullptr || summaries == nullptr) return false;
    auto pit = syms->procs.find(name);
    if (pit == syms->procs.end()) return false;
    for (const ProcRef& c : pit->second) {
      if (!c.sp->is_function() || c.sp->params.size() != nargs) continue;
      if (summaries->proc(c.node).returns_real) return true;
    }
    return false;
  };
}

std::vector<FpSite> find_fp_sites(const Subprogram& sp,
                                  const ProgramSymbols::ModuleSyms* syms,
                                  const FpCallOracle& returns_real) {
  std::vector<FpSite> out;
  FpScanner(sp, syms, returns_real, &out);
  std::stable_sort(
      out.begin(), out.end(), [](const FpSite& a, const FpSite& b) {
        if (a.expr->line != b.expr->line) return a.expr->line < b.expr->line;
        if (a.expr->column != b.expr->column) {
          return a.expr->column < b.expr->column;
        }
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
      });
  // A chain and its left sub-chain start at the same position, and in
  // `a + b*c + d*e` both have the contraction shape: keep the outermost,
  // scanned first, so each (position, kind, target) is reported once.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const FpSite& a, const FpSite& b) {
                          return a.expr->line == b.expr->line &&
                                 a.expr->column == b.expr->column &&
                                 a.kind == b.kind && a.target == b.target;
                        }),
            out.end());
  return out;
}

std::string fpsense_report_json(const std::vector<const Module*>& modules,
                                const ProgramSymbols& symbols,
                                const ProgramSummaries& summaries) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string_value("rca.fpsense.v1");
  w.key("sites");
  w.begin_array();
  for (const Module* m : modules) {
    const ProgramSymbols::ModuleSyms* syms = symbols.module(m->name);
    const FpCallOracle oracle = summary_call_oracle(syms, &summaries);
    for (const Subprogram& sp : m->subprograms) {
      for (const FpSite& site : find_fp_sites(sp, syms, oracle)) {
        w.begin_object();
        w.key("module");
        w.string_value(m->name);
        w.key("subprogram");
        w.string_value(sp.name);
        w.key("line");
        w.integer(site.expr->line);
        w.key("column");
        w.integer(site.expr->column);
        w.key("kind");
        w.string_value(fp_site_kind_name(site.kind));
        w.key("expr");
        w.string_value(lang::print_expr(*site.expr));
        if (!site.target.empty()) {
          w.key("target");
          w.string_value(site.target);
        }
        w.end_object();
      }
    }
  }
  w.end_array();
  w.key("fp_sensitive_procedures");
  w.begin_array();
  std::vector<const ProcSummary*> fp;
  for (const auto& run : summaries.modules) {
    for (const ProcSummary& p : *run) {
      if (p.fp_sensitive) fp.push_back(&p);
    }
  }
  std::sort(fp.begin(), fp.end(), [](const ProcSummary* a, const ProcSummary* b) {
    return a->module != b->module ? a->module < b->module : a->name < b->name;
  });
  for (const ProcSummary* p : fp) {
    w.begin_object();
    w.key("module");
    w.string_value(p->module);
    w.key("name");
    w.string_value(p->name);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str() + "\n";
}

}  // namespace rca::analysis
