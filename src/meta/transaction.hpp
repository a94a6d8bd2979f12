// Incremental metagraph transactions: patch-only rebuilds with rollback.
//
// A Transaction models one session update as "re-parse and re-walk only the
// changed modules, then splice their fragments together with the cached
// fragments of every unchanged module". Node ids are assigned by
// first-intern order across the module sequence, so the resident graph is
// never mutated in place. The splice has three outcomes, cheapest first:
//
//   * alias  — every re-walked fragment is deep-equal to its predecessor
//              (comment-only touches): the base graph itself is returned;
//   * relink — every re-walked fragment makes the same node-table calls as
//              its predecessor (the same `keys` sequence and the same kIo
//              ops) and differs only in kEdge ops or build counters (a body
//              edit such as `+ wrk2 * c` over variables the module already
//              names): the new graph shares the base's sealed node table and
//              rebuilds only the edge CSR, translating every fragment's
//              edges through the local -> global id map cached in the state;
//   * replay — anything else (new variables, a first sighting moved to
//              another line, a changed outfld label, interface escalation):
//              ALL fragments (cached + fresh) are replayed in module order
//              into a fresh Metagraph, the exact recipe of the builder.
//
// All three give a graph byte-identical to a from-scratch build of the same
// sources: the node table depends only on the module-order sequence of kNode
// and kIo ops, which alias and relink leave unchanged, and relink emits the
// edges in the same op order a replay would. The expensive phases (lex +
// parse + statement walk) run only for the changed modules.
//
// Soundness of fragment reuse: a module's fragment depends on (a) its own
// AST and (b) the *interface-level* content of every module in the corpus —
// the symbol tables never read statement bodies, but they do read remote
// declarations, subprogram signatures (name / line / params / intents /
// result), interface blocks and use statements, with an order-dependent
// chained-import quirk. interface_signature() fingerprints exactly that
// surface. The escalation rule:
//
//   * every module's interface signature unchanged, same module sequence
//     -> re-walk only the dirty modules, reuse every other fragment;
//   * any signature changed, or modules added/removed/reordered
//     -> full re-walk (cached *parses* of unchanged files are still reused
//        by the caller; only the walk re-runs).
//
// Rollback is by construction: a transaction builds its graph and next
// fragment state entirely on the side and only the caller publishes them.
// Any throw — a parse failure upstream, or the meta.txn.splice fault site
// during replay — leaves the base state untouched.
//
// Counters: meta.txn.commits, meta.txn.full_rewalks,
// meta.txn.rebuilt_modules, meta.txn.reused_fragments,
// meta.txn.spliced_nodes, meta.txn.relinks, meta.txn.graph_reuses (alias).
// Fault site: meta.txn.splice (checked once per entry on every splice path).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "meta/builder.hpp"
#include "meta/fragment.hpp"
#include "meta/metagraph.hpp"

namespace rca::meta {

/// Order-independent fingerprint of everything another module's walk (or
/// lint pass) may read from this module without looking at statement
/// bodies: the module name, use statements, derived types, declarations
/// (name/type/dims/parameter/init/intent/line), interface blocks, and every
/// subprogram's signature (kind/name/line/params/result/uses/decls). Body
/// edits that do not shift interface-visible line numbers leave the
/// signature unchanged.
std::uint64_t interface_signature(const lang::Module& m);

/// Cached per-module fragment state carried from one committed generation
/// to the next. Immutable once published (fragments are shared, not
/// copied, across generations).
struct TxnState {
  struct Entry {
    std::string path;    // source file the module came from
    std::string module;  // module name
    std::uint64_t iface_sig = 0;
    std::shared_ptr<const Fragment> frag;
  };
  std::vector<Entry> entries;  // module order
  /// Global node id of every fragment key in the committed graph, entry
  /// after entry in module order (an entry's keys start after the keys of
  /// every entry before it): what replay_fragment returned for each entry.
  /// Shared by every generation over the same node table; the relink path
  /// translates edges through it.
  std::shared_ptr<const std::vector<graph::NodeId>> global_ids;
  /// Hash over every (name, iface_sig) pair in module order — unchanged iff
  /// per-module reuse is sound.
  std::uint64_t iface_fingerprint = 0;
  /// Symbol tables the fragments were walked against, carried forward while
  /// no interface signature changes. Sound for the same reason fragment
  /// reuse is: the tables read only the interface surface that
  /// interface_signature() fingerprints, so under the no-escalation rule a
  /// fresh build would be observationally identical. Skipping the rebuild is
  /// the second-largest cost of a warm single-module edit.
  std::shared_ptr<const SymbolTables> tables;
  /// Owners of every AST `tables` (and the reused fragments' ProcRefs)
  /// point into. Descendant generations copy this forward, so the ASTs of
  /// the generation that built the tables outlive any state still using
  /// them — even after the session that parsed them is evicted.
  std::vector<std::shared_ptr<const lang::SourceFile>> keepalive;
};

/// One module staged into a transaction, in final module order.
struct TxnInput {
  std::string path;
  const lang::Module* module = nullptr;
  /// True when the module's source file changed in this update (its cached
  /// fragment, if any, must not be reused).
  bool dirty = false;
  /// The parsed file that owns `module`, if the caller has it as a shared
  /// handle; retained in TxnState::keepalive so cached symbol tables stay
  /// valid across generations. May be null (caller owns the AST lifetime).
  std::shared_ptr<const lang::SourceFile> owner;
};

/// How a transaction produced its graph (see the file comment).
enum class Splice : std::uint8_t { kReplay, kRelink, kAlias };

struct TxnStats {
  std::size_t rebuilt_modules = 0;   // fragments re-walked
  std::size_t reused_fragments = 0;  // fragments spliced from the cache
  std::size_t spliced_nodes = 0;     // nodes interned by re-walked fragments
  bool full_rewalk = false;          // interface escalation (or no base)
  Splice splice = Splice::kReplay;
};

struct TxnResult {
  // Shared because the alias path returns the base session's graph itself
  // and the relink path shares its node table. Metagraph is immutable once
  // sealed, so both are safe.
  std::shared_ptr<const Metagraph> mg;
  std::shared_ptr<const TxnState> state;  // null for a filtered build
  TxnStats stats;
};

/// Runs one transaction: stages `inputs` (the complete post-edit module
/// sequence), decides per-module reuse against `base` (null = cold build),
/// walks what must be walked (pooled via opts.pool when set), and splices
/// the result: `base_mg` itself when no fragment changed, a relink over
/// `base_mg`'s node table when only edges changed, otherwise a module-order
/// replay of every fragment into a fresh Metagraph. `base_mg` must be the
/// graph committed with `base`; without it every splice replays.
///
/// Throws (fault injection, walker errors) before returning — never after
/// partially mutating anything the caller can see; the caller's base state
/// remains valid and publishing the result is the caller's atomic step.
///
/// Coverage filters in `opts` apply as in build_metagraph: modules that
/// opts.module_filter rejects are dropped from `inputs`, and
/// opts.subprogram_filter reaches the symbol tables and the walks. A
/// filtered build is a full walk and returns no state (a null
/// TxnResult::state), since its graph depends on a runtime coverage run
/// that fragment reuse does not model.
///
/// Precondition: `inputs` must already be build-list filtered.
TxnResult run_transaction(
    const std::vector<TxnInput>& inputs, const TxnState* base,
    const BuilderOptions& opts,
    std::shared_ptr<const Metagraph> base_mg = nullptr);

}  // namespace rca::meta
