// Program-wide call graph over ProgramSymbols resolution.
//
// One node per subprogram, in module order then subprogram order (both
// deterministic): node n is a program-wide ordinal, the same one
// ProgramSymbols stamps on every ProcRef (`ProcRef::node`). The graph holds
// no AST pointers — a node is (module position, subprogram position), and
// callers look the AST up in their own module list — so one topology
// serves every generation with the same module sequence and subprogram
// sequences, and a relint patches it instead of rebuilding it
// (`patch_call_graph`).
//
// Call-statement and function-reference edges resolve through the same
// per-module tables the lint passes and the metagraph builder use: generic
// interfaces expand to every candidate, so edges are a conservative
// over-approximation of the dynamic call relation. Tarjan's algorithm
// condenses the graph into strongly connected components whose ids come
// out in reverse topological order — component 0 is a sink — which is
// exactly the bottom-up order the mod/ref summary computation
// (summaries.hpp) needs: every callee's component is finished before any of
// its callers'.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "analysis/passes.hpp"
#include "lang/ast.hpp"

namespace rca::analysis {

struct CallGraph {
  /// Node ids of module m are [module_begin[m], module_begin[m + 1]).
  std::vector<std::size_t> module_begin;  // modules + 1 entries
  std::vector<std::size_t> module_of;     // node -> module position
  std::vector<std::vector<std::size_t>> callees;  // sorted, deduplicated
  std::vector<std::vector<std::size_t>> callers;  // sorted, deduplicated
  // The body contains a call (or ambiguous `name(...)` reference) that no
  // visible procedure, intrinsic or module variable explains. Summaries of
  // such nodes cannot bound the callee's effects on module variables.
  std::vector<bool> has_unknown_call;
  /// Module-level reverse edges: the modules (other than m) holding a
  /// caller of one of m's procedures. Ascending; drives `summary_cone`.
  std::vector<std::vector<std::size_t>> module_callers;

  // Tarjan condensation. `scc_of[n]` is in reverse topological order of the
  // condensation DAG: for an edge u -> v with scc_of[u] != scc_of[v],
  // scc_of[v] < scc_of[u].
  std::vector<std::size_t> scc_of;
  std::size_t scc_count = 0;
  std::vector<std::vector<std::size_t>> scc_members;  // ascending node ids
  std::vector<bool> scc_recursive;  // more than one member, or a self edge

  std::size_t size() const { return module_of.size(); }
  std::size_t module_count() const { return module_begin.size() - 1; }
  /// The subprogram node n stands for, in `modules` (the list the graph was
  /// built over, or any later generation of it).
  const lang::Subprogram& subprogram(
      const std::vector<const lang::Module*>& modules, std::size_t n) const {
    const std::size_t m = module_of[n];
    return modules[m]->subprograms[n - module_begin[m]];
  }
};

/// Builds the call graph and its SCC condensation. `symbols` must have been
/// constructed over the same module list.
CallGraph build_call_graph(const std::vector<const lang::Module*>& modules,
                           const ProgramSymbols& symbols);

/// `base` (the graph of an earlier generation with the same module and
/// subprogram sequences) with the edges of the `dirty` modules' nodes
/// (parallel to `modules`) re-collected from their current bodies. Returns
/// `base` itself when no callee set and no unknown-call flag changed, and
/// reruns Tarjan only when a callee set did.
std::shared_ptr<const CallGraph> patch_call_graph(
    std::shared_ptr<const CallGraph> base,
    const std::vector<const lang::Module*>& modules,
    const ProgramSymbols& symbols, const std::vector<bool>& dirty);

}  // namespace rca::analysis
