#include "meta/transaction.hpp"

#include <algorithm>
#include <iterator>
#include <ranges>
#include <unordered_map>
#include <utility>

#include "fault/fault.hpp"
#include "lang/printer.hpp"
#include "meta/snapshot_cache.hpp"
#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace rca::meta {

namespace {

void add_expr(SnapshotKey& key, const lang::Expr* e) {
  // Extent/initializer expressions have no cheap identity; their printed
  // form is deterministic and exactly as discriminating as the AST.
  key.add(e != nullptr ? lang::print_expr(*e) : std::string());
}

void add_decl(SnapshotKey& key, const lang::VarDecl& d) {
  key.add(d.name);
  key.add_u64(static_cast<std::uint64_t>(d.type.kind));
  key.add(d.type.derived_name);
  key.add_u64(d.dims.size());
  for (const auto& dim : d.dims) add_expr(key, dim.get());
  key.add_u64(d.is_parameter ? 1 : 0);
  add_expr(key, d.init.get());
  key.add_u64(static_cast<std::uint64_t>(d.intent));
  key.add_u64(static_cast<std::uint64_t>(d.line));
}

void add_use(SnapshotKey& key, const lang::UseStmt& use) {
  key.add(use.module);
  key.add_u64(use.has_only ? 1 : 0);
  key.add_u64(use.renames.size());
  for (const auto& r : use.renames) {
    key.add(r.local);
    key.add(r.remote);
  }
}

/// True when both fragments make the same node-table calls: the same
/// `keys` sequence (kNode ops intern keys in index order) and the same kIo
/// ops, compared by label and local id.
bool same_node_ops(const Fragment& a, const Fragment& b) {
  if (!(a.keys == b.keys)) return false;
  auto io_ops = [](const Fragment& f) {
    return f.ops | std::views::filter([](const Fragment::Op& op) {
             return op.kind == Fragment::OpKind::kIo;
           });
  };
  auto ia = io_ops(a);
  auto ib = io_ops(b);
  return std::ranges::equal(ia, ib, [&](const Fragment::Op& x,
                                        const Fragment::Op& y) {
    return x.b == y.b && a.io_labels[x.a] == b.io_labels[y.a];
  });
}

}  // namespace

std::uint64_t interface_signature(const lang::Module& m) {
  SnapshotKey key;
  key.add("rca-iface-sig-v1");
  key.add(m.name);
  key.add_u64(m.uses.size());
  for (const auto& use : m.uses) add_use(key, use);
  key.add_u64(m.types.size());
  for (const auto& t : m.types) {
    key.add(t.name);
    key.add_u64(t.components.size());
    for (const auto& c : t.components) add_decl(key, c);
  }
  key.add_u64(m.decls.size());
  for (const auto& d : m.decls) add_decl(key, d);
  key.add_u64(m.interfaces.size());
  for (const auto& iface : m.interfaces) {
    key.add(iface.name);
    key.add_u64(static_cast<std::uint64_t>(iface.line));
    for (const auto& proc : iface.procedures) key.add(proc);
  }
  key.add_u64(m.subprograms.size());
  for (const auto& sp : m.subprograms) {
    key.add_u64(static_cast<std::uint64_t>(sp.kind));
    key.add(sp.name);
    key.add_u64(static_cast<std::uint64_t>(sp.line));
    key.add_u64(sp.params.size());
    for (const auto& p : sp.params) key.add(p);
    key.add(sp.result_name);
    key.add_u64(sp.uses.size());
    for (const auto& use : sp.uses) add_use(key, use);
    key.add_u64(sp.decls.size());
    for (const auto& d : sp.decls) add_decl(key, d);
  }
  return key.digest();
}

TxnResult run_transaction(const std::vector<TxnInput>& staged,
                          const TxnState* base, const BuilderOptions& opts,
                          std::shared_ptr<const Metagraph> base_mg) {
  obs::Span span("meta.txn");

  // Coverage filters (hybrid slicing) drop rejected modules here, exactly as
  // build_metagraph does; the subprogram filter reaches the symbol tables
  // and the walks through `opts`. A filtered graph depends on a runtime
  // coverage run, which fragment reuse does not model, so a filtered build
  // is always a full walk and keeps no state.
  const bool filtered = opts.module_filter || opts.subprogram_filter;
  std::vector<TxnInput> kept;
  if (opts.module_filter) {
    std::ranges::copy_if(staged, std::back_inserter(kept),
                         [&opts](const TxnInput& in) {
                           return opts.module_filter(in.module->name);
                         });
  }
  const std::vector<TxnInput>& inputs = opts.module_filter ? kept : staged;

  // Stage: signatures + corpus fingerprint over the post-edit sequence.
  // Signatures are pure per-module hashes, so they pool like the walks; the
  // fingerprint itself folds them serially in module order.
  const std::vector<std::uint64_t> sigs = parallel_map<std::uint64_t>(
      opts.pool, inputs.size(), [&inputs](std::size_t i) {
        return interface_signature(*inputs[i].module);
      });
  auto next = std::make_shared<TxnState>();
  next->entries.reserve(inputs.size());
  SnapshotKey fingerprint;
  fingerprint.add("rca-iface-fingerprint-v1");
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    TxnState::Entry e;
    e.path = inputs[i].path;
    e.module = inputs[i].module->name;
    e.iface_sig = sigs[i];
    fingerprint.add(e.module);
    fingerprint.add_u64(e.iface_sig);
    next->entries.push_back(std::move(e));
  }
  next->iface_fingerprint = fingerprint.digest();

  TxnStats stats;
  // Summary-informed pruning makes a module's fragment depend on OTHER
  // modules' statement bodies (their mod/ref summaries), which the interface
  // fingerprint deliberately does not cover — cached fragments are never
  // reusable under that option.
  stats.full_rewalk = filtered || opts.summary_informed_pruning ||
                      base == nullptr ||
                      base->iface_fingerprint != next->iface_fingerprint;

  // Reuse decision per module: same (path, name) entry in the base state,
  // clean file, no interface escalation.
  std::unordered_map<std::string, const TxnState::Entry*> base_by_key;
  if (!stats.full_rewalk) {
    for (const TxnState::Entry& e : base->entries) {
      base_by_key.emplace(e.path + "\x1f" + e.module, &e);
    }
  }

  std::vector<std::size_t> to_walk;
  to_walk.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TxnInput& in = inputs[i];
    if (!stats.full_rewalk && !in.dirty) {
      auto it = base_by_key.find(in.path + "\x1f" + in.module->name);
      if (it != base_by_key.end() && it->second->frag != nullptr) {
        next->entries[i].frag = it->second->frag;
        continue;
      }
    }
    to_walk.push_back(i);
  }

  // Symbol tables for the dirty walks: carried forward from the base while
  // no interface signature changed (see TxnState::tables), rebuilt from the
  // staged module sequence otherwise.
  std::shared_ptr<const SymbolTables> tables;
  if (!stats.full_rewalk && base->tables != nullptr) {
    tables = base->tables;
    next->keepalive = base->keepalive;
  } else {
    std::vector<const lang::Module*> walk_modules;
    walk_modules.reserve(inputs.size());
    for (const TxnInput& in : inputs) walk_modules.push_back(in.module);
    tables =
        std::make_shared<const SymbolTables>(build_symbol_tables(walk_modules, opts));
    // Modules of one file are consecutive in module order, so adjacent
    // dedup keeps one handle per file.
    for (const TxnInput& in : inputs) {
      if (in.owner &&
          (next->keepalive.empty() || next->keepalive.back() != in.owner)) {
        next->keepalive.push_back(in.owner);
      }
    }
  }
  next->tables = tables;

  auto walk_one = [&inputs, &to_walk, &tables, &opts](std::size_t j) {
    return walk_module(*inputs[to_walk[j]].module, *tables, opts);
  };
  std::vector<Fragment> fresh =
      parallel_map<Fragment>(opts.pool, to_walk.size(), walk_one);
  for (std::size_t j = 0; j < to_walk.size(); ++j) {
    stats.spliced_nodes += fresh[j].keys.size();
    next->entries[to_walk[j]].frag =
        std::make_shared<const Fragment>(std::move(fresh[j]));
  }
  stats.rebuilt_modules = to_walk.size();
  stats.reused_fragments = inputs.size() - to_walk.size();

  // Splice decision against the base generation, entry by entry: an entry
  // whose fragment is deep-equal to its predecessor keeps the base's graph
  // content; one that makes the same node-table calls keeps the base's node
  // table; anything else needs a replay.
  stats.splice = Splice::kReplay;
  if (!stats.full_rewalk && base_mg != nullptr && base->global_ids != nullptr &&
      base->entries.size() == next->entries.size()) {
    stats.splice = Splice::kAlias;
    for (std::size_t i = 0; i < next->entries.size(); ++i) {
      const TxnState::Entry& ours = next->entries[i];
      const TxnState::Entry& theirs = base->entries[i];
      if (ours.module != theirs.module || theirs.frag == nullptr) {
        stats.splice = Splice::kReplay;
        break;
      }
      if (ours.frag != theirs.frag && !(*ours.frag == *theirs.frag)) {
        if (!same_node_ops(*ours.frag, *theirs.frag)) {
          stats.splice = Splice::kReplay;
          break;
        }
        stats.splice = Splice::kRelink;
      }
    }
  }
  if (stats.splice != Splice::kReplay) next->global_ids = base->global_ids;

  // The fault site fires once per entry on every path, so a chaos spec with
  // a small probability lands inside real commits; a throw here discards
  // everything staged above.
  TxnResult result;
  switch (stats.splice) {
    case Splice::kAlias: {
      for (std::size_t i = 0; i < next->entries.size(); ++i) {
        RCA_FAULT_POINT("meta.txn.splice");
      }
      result.mg = std::move(base_mg);
      obs::count("meta.txn.graph_reuses");
      break;
    }
    case Splice::kRelink: {
      // Same node table, new edge list: translate every fragment's kEdge
      // ops through its cached id map, in the op order a replay would
      // buffer them, and build the digraph once.
      std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
      edges.reserve(base_mg->graph().edge_count());
      const std::vector<graph::NodeId>& global = *next->global_ids;
      std::size_t first = 0;  // the entry's first key in `global`
      for (const TxnState::Entry& e : next->entries) {
        RCA_FAULT_POINT("meta.txn.splice");
        for (const Fragment::Op& op : e.frag->ops) {
          if (op.kind == Fragment::OpKind::kEdge) {
            edges.emplace_back(global[first + op.a], global[first + op.b]);
          }
        }
        first += e.frag->keys.size();
      }
      auto mg = std::make_shared<Metagraph>(base_mg->node_table(),
                                            std::move(edges));
      for (const TxnState::Entry& e : next->entries) {
        mg->assignments_processed += e.frag->assignments_processed;
        mg->assignments_failed += e.frag->assignments_failed;
        mg->calls_processed += e.frag->calls_processed;
        mg->dead_stores_pruned += e.frag->dead_stores_pruned;
      }
      result.mg = std::move(mg);
      obs::count("meta.txn.relinks");
      break;
    }
    case Splice::kReplay: {
      // Deterministic module-order replay into a fresh graph.
      auto mg = std::make_shared<Metagraph>();
      std::vector<graph::NodeId> global;
      for (const TxnState::Entry& e : next->entries) {
        RCA_FAULT_POINT("meta.txn.splice");
        const std::vector<graph::NodeId> ids = replay_fragment(*e.frag, *mg);
        global.insert(global.end(), ids.begin(), ids.end());
      }
      mg->seal();
      next->global_ids =
          std::make_shared<const std::vector<graph::NodeId>>(std::move(global));
      result.mg = std::move(mg);
      break;
    }
  }

  obs::count("meta.txn.commits");
  if (stats.full_rewalk) obs::count("meta.txn.full_rewalks");
  obs::count("meta.txn.rebuilt_modules", stats.rebuilt_modules);
  obs::count("meta.txn.reused_fragments", stats.reused_fragments);
  obs::count("meta.txn.spliced_nodes", stats.spliced_nodes);
  span.attr("rebuilt", stats.rebuilt_modules);
  span.attr("reused", stats.reused_fragments);
  span.attr("full_rewalk", stats.full_rewalk);

  if (!filtered) result.state = std::move(next);
  result.stats = stats;
  return result;
}

}  // namespace rca::meta
