// Metagraph: the CESM-style variable-dependency digraph plus metadata
// (paper §4). Nodes are variables appearing in assignment statements; a
// directed edge u -> v means "u's value flows into v" through an assignment,
// a call-argument binding, or an intrinsic application.
//
// Node identity follows the paper:
//   * canonical name — the variable name before digraph entry; for derived
//     types the final component (state%omega -> "omega");
//   * unique name — canonical name suffixed with the containing scope
//     ("dum__micro_mg_tend"), further disambiguated by module if needed;
//   * metadata — module, subprogram, first line seen;
//   * intrinsics are localized per call site ("min_100__modname") to avoid
//     spurious highly connected nodes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/digraph.hpp"
#include "interp/interpreter.hpp"
#include "lang/ast.hpp"

namespace rca::meta {

struct NodeInfo {
  std::string unique_name;
  std::string canonical_name;
  std::string module;
  std::string subprogram;  // empty for module-level variables
  int line = 0;            // first sighting
  bool is_intrinsic = false;
  bool is_prng_site = false;  // pseudo-node for a PRNG call site
};

class Metagraph {
 public:
  /// The node side of a metagraph: every interned node, its metadata and
  /// lookup indexes, and the io map. Built by intern() / add_io_mapping(),
  /// immutable once seal() has run, and shared (never copied) by every
  /// metagraph relinked over it. Everything here depends only on the
  /// module-order sequence of intern and io calls, never on edges.
  struct NodeTable {
    std::vector<NodeInfo> info;
    std::unordered_map<std::string, graph::NodeId> by_scope_key;
    std::unordered_map<std::string, std::vector<graph::NodeId>> by_canonical;
    std::unordered_map<std::string, std::vector<graph::NodeId>> by_module;
    std::vector<std::string> module_order;
    std::map<std::string, std::vector<graph::NodeId>> io_map;
  };

  Metagraph();
  // Move-only: a copy made before seal() would share the table under
  // construction.
  Metagraph(Metagraph&&) = default;
  Metagraph& operator=(Metagraph&&) = default;
  Metagraph(const Metagraph&) = delete;
  Metagraph& operator=(const Metagraph&) = delete;

  /// A sealed metagraph over an already sealed node table: shares `nodes`
  /// and builds only the digraph, from `edges` in one pass (self-loops and
  /// duplicates dropped exactly as seal() drops them). The transaction
  /// layer's relink path: a body-only patch keeps the base generation's
  /// nodes and changes only edges.
  Metagraph(std::shared_ptr<const NodeTable> nodes,
            std::vector<std::pair<graph::NodeId, graph::NodeId>> edges);

  /// The variable digraph; empty until seal().
  const graph::Digraph& graph() const { return graph_; }

  /// The sealed node table, for relinking a new edge set over it.
  const std::shared_ptr<const NodeTable>& node_table() const;

  std::size_t node_count() const { return nodes_->info.size(); }
  const NodeInfo& info(graph::NodeId v) const { return nodes_->info[v]; }
  const std::vector<NodeInfo>& all_info() const { return nodes_->info; }

  /// Find or create a node; returns its id. Uniqueness is on
  /// (module, subprogram, canonical_name).
  graph::NodeId intern(const std::string& module, const std::string& subprogram,
                       const std::string& canonical, int line,
                       bool is_intrinsic = false, bool is_prng_site = false);

  /// Buffer edge u -> v for seal(); self-loops and duplicates are dropped
  /// there, exactly as graph::Digraph's constructor drops them.
  void add_edge(graph::NodeId u, graph::NodeId v);

  /// Build the digraph over every interned node from the buffered edges, in
  /// one pass, and freeze the node table. Every producer (builder,
  /// transaction splice, both snapshot loaders) seals once; intern(),
  /// add_edge() and add_io_mapping() afterwards fail RCA_CHECK.
  void seal();

  /// Lookup without creation; returns kInvalidNode when absent.
  graph::NodeId find(const std::string& module, const std::string& subprogram,
                     const std::string& canonical) const;

  /// All nodes whose canonical name matches (the slicer's target resolution).
  std::vector<graph::NodeId> by_canonical(const std::string& canonical) const;

  /// All nodes belonging to one module.
  std::vector<graph::NodeId> by_module(const std::string& module) const;

  /// Distinct module names, in first-seen order.
  const std::vector<std::string>& modules() const {
    return nodes_->module_order;
  }

  /// Dense per-node module class ids (for quotient_graph) and the class
  /// count; class ids follow modules() order.
  std::vector<graph::NodeId> module_classes() const;

  /// Watch key for runtime sampling of this node.
  interp::WatchKey watch_key(graph::NodeId v) const;

  /// Map: output label written via `call outfld('LABEL', var)` (lower-cased)
  /// -> internal variable nodes passed at any call site. This is the paper's
  /// instrumented I/O-name mapping (§5.1). Ordered (std::map) so that every
  /// serialization of the same graph is byte-identical regardless of label
  /// insertion order — the snapshot cache diffs saved text exactly.
  const std::map<std::string, std::vector<graph::NodeId>>& io_map() const {
    return nodes_->io_map;
  }
  void add_io_mapping(const std::string& label, graph::NodeId node);

  // Build statistics (paper reports all but 10 of ~660k lines parsed).
  std::size_t assignments_processed = 0;
  std::size_t assignments_failed = 0;
  std::size_t calls_processed = 0;
  std::size_t dead_stores_pruned = 0;  // BuilderOptions::prune_dead_stores

 private:
  static std::string scope_key(const std::string& module,
                               const std::string& subprogram,
                               const std::string& canonical) {
    return module + "\x1f" + subprogram + "\x1f" + canonical;
  }

  graph::Digraph graph_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pending_edges_;
  std::shared_ptr<NodeTable> open_;          // == nodes_ until seal()
  std::shared_ptr<const NodeTable> nodes_;
  // Read only by intern(), but kept after seal(): freeing its tens of
  // thousands of small nodes at once scatters the allocator's free lists,
  // and every later warm patch paid for it in slower small allocations.
  std::unordered_map<std::string, int> unique_name_uses_;
};

}  // namespace rca::meta
