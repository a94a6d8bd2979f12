#include "meta/metagraph.hpp"

#include <utility>

#include "support/error.hpp"

namespace rca::meta {

Metagraph::Metagraph()
    : open_(std::make_shared<NodeTable>()), nodes_(open_) {}

Metagraph::Metagraph(std::shared_ptr<const NodeTable> nodes,
                     std::vector<std::pair<graph::NodeId, graph::NodeId>> edges)
    : graph_(nodes->info.size(), std::move(edges)), nodes_(std::move(nodes)) {}

const std::shared_ptr<const Metagraph::NodeTable>& Metagraph::node_table()
    const {
  RCA_CHECK_MSG(open_ == nullptr, "Metagraph::node_table before seal()");
  return nodes_;
}

graph::NodeId Metagraph::intern(const std::string& module,
                                const std::string& subprogram,
                                const std::string& canonical, int line,
                                bool is_intrinsic, bool is_prng_site) {
  RCA_CHECK_MSG(open_ != nullptr, "Metagraph::intern after seal()");
  NodeTable& t = *open_;
  const std::string key = scope_key(module, subprogram, canonical);
  auto it = t.by_scope_key.find(key);
  if (it != t.by_scope_key.end()) return it->second;

  const auto id = static_cast<graph::NodeId>(t.info.size());
  NodeInfo info;
  info.canonical_name = canonical;
  info.module = module;
  info.subprogram = subprogram;
  info.line = line;
  info.is_intrinsic = is_intrinsic;
  info.is_prng_site = is_prng_site;

  // Unique display name: canonical__scope, disambiguated on collision.
  const std::string scope = subprogram.empty() ? module : subprogram;
  std::string unique = canonical + "__" + scope;
  int& uses = unique_name_uses_[unique];
  if (uses > 0) unique += "__" + module;
  ++uses;
  info.unique_name = unique;

  t.info.push_back(std::move(info));
  t.by_scope_key[key] = id;
  t.by_canonical[canonical].push_back(id);
  auto mit = t.by_module.find(module);
  if (mit == t.by_module.end()) {
    t.module_order.push_back(module);
    t.by_module[module].push_back(id);
  } else {
    mit->second.push_back(id);
  }
  return id;
}

void Metagraph::add_edge(graph::NodeId u, graph::NodeId v) {
  RCA_CHECK_MSG(open_ != nullptr, "Metagraph::add_edge after seal()");
  pending_edges_.emplace_back(u, v);
}

void Metagraph::seal() {
  RCA_CHECK_MSG(open_ != nullptr, "Metagraph::seal called twice");
  graph_ = graph::Digraph(open_->info.size(), std::exchange(pending_edges_, {}));
  open_.reset();
}

graph::NodeId Metagraph::find(const std::string& module,
                              const std::string& subprogram,
                              const std::string& canonical) const {
  auto it = nodes_->by_scope_key.find(scope_key(module, subprogram, canonical));
  return it == nodes_->by_scope_key.end() ? graph::kInvalidNode : it->second;
}

std::vector<graph::NodeId> Metagraph::by_canonical(
    const std::string& canonical) const {
  auto it = nodes_->by_canonical.find(canonical);
  return it == nodes_->by_canonical.end() ? std::vector<graph::NodeId>{}
                                          : it->second;
}

std::vector<graph::NodeId> Metagraph::by_module(
    const std::string& module) const {
  auto it = nodes_->by_module.find(module);
  return it == nodes_->by_module.end() ? std::vector<graph::NodeId>{}
                                       : it->second;
}

std::vector<graph::NodeId> Metagraph::module_classes() const {
  std::unordered_map<std::string, graph::NodeId> class_of;
  const NodeTable& t = *nodes_;
  for (std::size_t i = 0; i < t.module_order.size(); ++i) {
    class_of[t.module_order[i]] = static_cast<graph::NodeId>(i);
  }
  std::vector<graph::NodeId> classes(t.info.size());
  for (graph::NodeId v = 0; v < t.info.size(); ++v) {
    classes[v] = class_of.at(t.info[v].module);
  }
  return classes;
}

interp::WatchKey Metagraph::watch_key(graph::NodeId v) const {
  RCA_CHECK_MSG(v < nodes_->info.size(), "node id out of range");
  const NodeInfo& n = nodes_->info[v];
  return interp::WatchKey{n.module, n.subprogram, n.canonical_name};
}

void Metagraph::add_io_mapping(const std::string& label, graph::NodeId node) {
  RCA_CHECK_MSG(open_ != nullptr, "Metagraph::add_io_mapping after seal()");
  auto& vec = open_->io_map[label];
  for (graph::NodeId v : vec) {
    if (v == node) return;
  }
  vec.push_back(node);
}

}  // namespace rca::meta
