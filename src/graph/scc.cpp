#include "graph/scc.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rca::graph {

std::vector<std::vector<NodeId>> SccResult::members() const {
  std::vector<std::vector<NodeId>> out(count);
  for (NodeId v = 0; v < component.size(); ++v) {
    out[component[v]].push_back(v);
  }
  return out;
}

SccResult strongly_connected_components(const Digraph& g) {
  const std::size_t n = g.node_count();
  SccResult result;
  result.component.assign(n, kInvalidNode);

  // Iterative Tarjan with an explicit frame stack (the corpus graphs are
  // deep enough to overflow a recursive version).
  constexpr NodeId kUnvisited = kInvalidNode;
  std::vector<NodeId> index(n, kUnvisited);
  std::vector<NodeId> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  NodeId next_index = 0;

  struct Frame {
    NodeId v;
    std::size_t child = 0;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back(Frame{root});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const NodeId v = frame.v;
      const auto out = g.out_neighbors(v);
      if (frame.child < out.size()) {
        const NodeId w = out[frame.child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          // v roots a component: pop it off the node stack.
          for (;;) {
            const NodeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component[w] = static_cast<NodeId>(result.count);
            if (w == v) break;
          }
          ++result.count;
        }
        frames.pop_back();
        if (!frames.empty()) {
          const NodeId parent = frames.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return result;
}

Digraph condensation(const Digraph& g, const SccResult& scc) {
  RCA_CHECK_MSG(scc.component.size() == g.node_count(), "SCC size mismatch");
  return quotient_graph(g, scc.component, scc.count);
}

}  // namespace rca::graph
