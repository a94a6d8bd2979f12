// Metagraph builder: converts parsed modules into the variable-dependency
// digraph using the paper's §4 rules.
//
// Two passes, as the paper requires: pass 1 reads every file and builds the
// global hash tables of subprogram names (needed to tell function calls from
// array references) and per-module use-maps; pass 2 walks every assignment
// and call statement, adding nodes and edges.
//
// Conservative static choices (all from §4):
//   * interface calls map to ALL candidate procedures;
//   * arrays are atomic — subscripts are ignored;
//   * pointers are ordinary variables;
//   * chained use statements are not followed (direct imports only);
//   * derived-type chains canonicalize to their final component;
//   * intrinsics are localized per call site;
//   * control flow (if/do) contributes no edges — paths may therefore be
//     infeasible at runtime, which is what the dynamic phase prunes.
#pragma once

#include <functional>
#include <vector>

#include "lang/ast.hpp"
#include "meta/metagraph.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::meta {

struct BuilderOptions {
  /// Coverage predicates (hybrid slicing): modules/subprograms rejected here
  /// are excluded from both the symbol tables and the statement walk, like
  /// the paper's codecov-driven pruning. Null means keep everything.
  std::function<bool(const std::string& module)> module_filter;
  std::function<bool(const std::string& module, const std::string& sub)>
      subprogram_filter;

  /// Liveness-pruned slicing (src/analysis): skip assignments the dataflow
  /// analysis proves dead — whole-variable stores to plain locals never read
  /// afterwards — so their spurious source->target edges never enter the
  /// metagraph. Assignments whose right-hand side binds a user function
  /// (dummy-argument and result edges) are kept even when dead. Off by
  /// default: the pruned graph is a different (smaller) artifact.
  bool prune_dead_stores = false;

  /// Sharpen dead-store pruning with interprocedural mod/ref summaries
  /// (analysis/summaries.hpp): a store whose only "use" is being passed to a
  /// callee that never reads its incoming value is dead too, so more
  /// spurious edges drop. Only meaningful with prune_dead_stores. Note this
  /// makes a module's fragment depend on OTHER modules' bodies (their
  /// summaries), so incremental transactions fall back to a full re-walk
  /// when it is set.
  bool summary_informed_pruning = false;

  /// When set, module walks run concurrently on this pool and their
  /// dependence fragments are replayed in module order — the result is
  /// bit-identical to the serial build (node ids, edge order, io map).
  rca::ThreadPool* pool = nullptr;
};

/// Builds the metagraph for a corpus. Module pointers must stay valid while
/// the returned Metagraph is used (node metadata references their names).
Metagraph build_metagraph(const std::vector<const lang::Module*>& modules,
                          const BuilderOptions& opts = {});

}  // namespace rca::meta
