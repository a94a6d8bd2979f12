#include "meta/metagraph.hpp"

#include <utility>

#include "support/error.hpp"

namespace rca::meta {

graph::NodeId Metagraph::intern(const std::string& module,
                                const std::string& subprogram,
                                const std::string& canonical, int line,
                                bool is_intrinsic, bool is_prng_site) {
  RCA_CHECK_MSG(!sealed_, "Metagraph::intern after seal()");
  const std::string key = scope_key(module, subprogram, canonical);
  auto it = by_scope_key_.find(key);
  if (it != by_scope_key_.end()) return it->second;

  const auto id = static_cast<graph::NodeId>(info_.size());
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

  info_.push_back(std::move(info));
  by_scope_key_[key] = id;
  by_canonical_[canonical].push_back(id);
  auto mit = by_module_.find(module);
  if (mit == by_module_.end()) {
    module_order_.push_back(module);
    by_module_[module].push_back(id);
  } else {
    mit->second.push_back(id);
  }
  return id;
}

void Metagraph::add_edge(graph::NodeId u, graph::NodeId v) {
  RCA_CHECK_MSG(!sealed_, "Metagraph::add_edge after seal()");
  pending_edges_.emplace_back(u, v);
}

void Metagraph::seal() {
  RCA_CHECK_MSG(!sealed_, "Metagraph::seal called twice");
  graph_ = graph::Digraph(info_.size(), std::exchange(pending_edges_, {}));
  sealed_ = true;
}

graph::NodeId Metagraph::find(const std::string& module,
                              const std::string& subprogram,
                              const std::string& canonical) const {
  auto it = by_scope_key_.find(scope_key(module, subprogram, canonical));
  return it == by_scope_key_.end() ? graph::kInvalidNode : it->second;
}

std::vector<graph::NodeId> Metagraph::by_canonical(
    const std::string& canonical) const {
  auto it = by_canonical_.find(canonical);
  return it == by_canonical_.end() ? std::vector<graph::NodeId>{} : it->second;
}

std::vector<graph::NodeId> Metagraph::by_module(
    const std::string& module) const {
  auto it = by_module_.find(module);
  return it == by_module_.end() ? std::vector<graph::NodeId>{} : it->second;
}

std::vector<graph::NodeId> Metagraph::module_classes() const {
  std::unordered_map<std::string, graph::NodeId> class_of;
  for (std::size_t i = 0; i < module_order_.size(); ++i) {
    class_of[module_order_[i]] = static_cast<graph::NodeId>(i);
  }
  std::vector<graph::NodeId> classes(info_.size());
  for (graph::NodeId v = 0; v < info_.size(); ++v) {
    classes[v] = class_of.at(info_[v].module);
  }
  return classes;
}

interp::WatchKey Metagraph::watch_key(graph::NodeId v) const {
  RCA_CHECK_MSG(v < info_.size(), "node id out of range");
  const NodeInfo& n = info_[v];
  return interp::WatchKey{n.module, n.subprogram, n.canonical_name};
}

void Metagraph::add_io_mapping(const std::string& label, graph::NodeId node) {
  auto& vec = io_map_[label];
  for (graph::NodeId v : vec) {
    if (v == node) return;
  }
  vec.push_back(node);
}

}  // namespace rca::meta
