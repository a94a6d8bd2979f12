// Fragment-replay building blocks of the metagraph builder, exposed so the
// incremental transaction layer (transaction.hpp) can cache per-module
// fragments across session generations.
//
// A Fragment is the dependence op log one module walk produces: intern /
// add_edge / add_io_mapping calls against module-local ids. Replaying the
// fragments of a corpus in module order reproduces the serial build
// bit-for-bit (node ids are assigned by first-intern order, edge and io
// insertion order is preserved) — the invariant the parallel builder has
// relied on since it was introduced, and the one that makes patch-only
// rebuilds byte-identical to from-scratch builds.
//
// A fragment is plain copyable data (strings + vectors, no AST pointers), so
// it stays valid after the ASTs it was walked from are gone. It depends on
// exactly two inputs: the module's own AST, and the interface-level content
// of every module in the corpus (the symbol tables never read statement
// bodies) — which is what interface_signature() in transaction.hpp
// fingerprints.
//
// The op log splits cleanly into a node side and an edge side. kNode and kIo
// ops alone decide the node table (ids, metadata, indexes, io map); kEdge
// ops only add edges between ids already interned. Replaying also yields
// each fragment's local -> global id map, which the transaction layer keeps
// so a patch that changes only kEdge ops can translate every fragment's
// edges through those maps and rebuild just the digraph (the relink path).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/passes.hpp"
#include "lang/ast.hpp"
#include "meta/builder.hpp"
#include "meta/metagraph.hpp"

namespace rca::meta {

/// Static symbol tables built in the builder's pass 1: the analysis
/// resolver over the coverage-kept subprograms. Reads only interface-level
/// module content: declarations, subprogram signatures, interface blocks and
/// use statements — never statement bodies.
struct SymbolTables {
  analysis::ProgramSymbols symbols;

  // Interprocedural mod/ref context, built only when
  // BuilderOptions::summary_informed_pruning is set (null otherwise). The
  // summaries read statement bodies corpus-wide, which is why fragments
  // walked with them are not cacheable across body edits.
  std::shared_ptr<const analysis::ProgramSymbols> analysis_symbols;
  std::shared_ptr<const analysis::ProgramSummaries> summaries;
};

SymbolTables build_symbol_tables(const std::vector<const lang::Module*>& modules,
                                 const BuilderOptions& opts);

std::vector<const lang::Module*> filter_modules(
    const std::vector<const lang::Module*>& modules,
    const BuilderOptions& opts);

/// The dependence fragment one module walk produces: an op log against
/// module-local node ids. Self-contained and copyable.
struct Fragment {
  struct NodeKey {
    std::string module;
    std::string subprogram;
    std::string canonical;
    int line = 0;
    bool is_intrinsic = false;
    bool is_prng_site = false;
  };
  enum class OpKind : std::uint8_t { kNode, kEdge, kIo };
  struct Op {
    OpKind kind;
    // kNode: a = key index. kEdge: a -> b (local ids).
    // kIo: a = io_labels index, b = local node id.
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  std::vector<NodeKey> keys;
  std::vector<Op> ops;
  std::vector<std::string> io_labels;
  std::size_t assignments_processed = 0;
  std::size_t assignments_failed = 0;
  std::size_t calls_processed = 0;
  std::size_t dead_stores_pruned = 0;

  friend bool operator==(const NodeKey& a, const NodeKey& b) {
    return a.line == b.line && a.is_intrinsic == b.is_intrinsic &&
           a.is_prng_site == b.is_prng_site && a.canonical == b.canonical &&
           a.subprogram == b.subprogram && a.module == b.module;
  }
  friend bool operator==(const Op& a, const Op& b) {
    return a.kind == b.kind && a.a == b.a && a.b == b.b;
  }
  // Deep equality: two equal fragments replay to identical graph state. The
  // transaction layer uses this to detect that a re-walked dirty module
  // produced the same dependence content as before (comment-only edits) and
  // skip the whole-corpus replay.
  friend bool operator==(const Fragment& a, const Fragment& b) {
    return a.assignments_processed == b.assignments_processed &&
           a.assignments_failed == b.assignments_failed &&
           a.calls_processed == b.calls_processed &&
           a.dead_stores_pruned == b.dead_stores_pruned && a.ops == b.ops &&
           a.keys == b.keys && a.io_labels == b.io_labels;
  }
};

/// Walks one module's statements against the corpus-wide symbol tables,
/// returning its dependence fragment. Pure function of (module AST, tables,
/// opts) — safe to run concurrently for different modules.
Fragment walk_module(const lang::Module& m, const SymbolTables& tables,
                     const BuilderOptions& opts);

/// Replays a fragment's op log against the shared metagraph, translating
/// local ids through the global intern (idempotent across fragments: the
/// first fragment in module order to intern a key sets its line/flags,
/// exactly as the serial walk would). Returns the local -> global id map,
/// indexed by key.
std::vector<graph::NodeId> replay_fragment(const Fragment& frag,
                                           Metagraph& mg);

}  // namespace rca::meta
