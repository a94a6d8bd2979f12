// Floating-point sensitivity: a forward taint-style pass that finds
// expression sites where compiler value-changing optimizations can perturb
// results — the paper's actual root-cause class (FMA contraction and
// reassociation under -O3, Table 1).
//
// FP-ness propagates from real literals, real-typed variables (local and
// module) and FP intrinsics; calls to user functions extend the taint
// through the mod/ref summaries via the oracle. Two site kinds:
//
//   contraction    an FP add/subtract with a multiply operand — the shape
//                  FMA contraction fuses, changing the rounding;
//   reassociation  an FP chain of three or more +/- terms, where the
//                  compiler's association order changes the sum.
//
// Sites surface as `fp-sensitivity` lint notes (interprocedural mode) and
// as the `rca.fpsense.v1` JSON report the scenario library (ROADMAP item 4)
// plants perturbations at.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/passes.hpp"
#include "lang/ast.hpp"

namespace rca::analysis {

struct ProgramSummaries;

struct FpSite {
  enum class Kind { kContraction, kReassociation };
  const lang::Subprogram* sp = nullptr;
  const lang::Expr* expr = nullptr;
  Kind kind = Kind::kContraction;
  std::string target;  // assigned variable when inside an assignment
};

const char* fp_site_kind_name(FpSite::Kind k);

/// Does `name(...)` with `nargs` arguments resolve to a real-valued user
/// function? Extends the taint through procedure summaries; a null oracle
/// treats unresolved calls as non-FP.
using FpCallOracle =
    std::function<bool(const std::string& name, std::size_t nargs)>;

/// The oracle the lint pass and the report share: `name(...)` resolves in
/// `syms` to a user function whose summary in `summaries` returns real. A
/// null `syms` or `summaries` answers false.
FpCallOracle summary_call_oracle(const ProgramSymbols::ModuleSyms* syms,
                                 const ProgramSummaries* summaries);

/// FP-sensitive sites of one subprogram, by position then kind; one site
/// per (position, kind, target).
std::vector<FpSite> find_fp_sites(const lang::Subprogram& sp,
                                  const ProgramSymbols::ModuleSyms* syms,
                                  const FpCallOracle& returns_real);

/// Deterministic JSON report, schema `rca.fpsense.v1`: every site across
/// `modules` plus the transitively FP-sensitive procedures from `summaries`.
std::string fpsense_report_json(const std::vector<const lang::Module*>& modules,
                                const ProgramSymbols& symbols,
                                const ProgramSummaries& summaries);

}  // namespace rca::analysis
