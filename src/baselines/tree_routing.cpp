#include "baselines/tree_routing.h"

#include <algorithm>
#include <numeric>

namespace dmf {

namespace {

// Union-find with path compression + union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace

RootedTree max_weight_spanning_tree(const Graph& g, NodeId root) {
  DMF_REQUIRE(g.is_valid_node(root), "max_weight_spanning_tree: bad root");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<EdgeId> order(static_cast<std::size_t>(g.num_edges()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&g](EdgeId a, EdgeId b) {
    return g.capacity(a) > g.capacity(b);
  });
  UnionFind uf(n);
  std::vector<EdgeId> tree_edges;
  tree_edges.reserve(n > 0 ? n - 1 : 0);
  for (const EdgeId e : order) {
    const EdgeEndpoints ep = g.endpoints(e);
    if (uf.unite(static_cast<std::size_t>(ep.u),
                 static_cast<std::size_t>(ep.v))) {
      tree_edges.push_back(e);
      if (tree_edges.size() == n - 1) break;
    }
  }
  DMF_REQUIRE(tree_edges.size() == n - 1 || n <= 1,
              "max_weight_spanning_tree: graph is disconnected");

  // Flat CSR adjacency over the chosen edges (selection order per node,
  // matching the order the old per-node vectors were appended in).
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const EdgeId e : tree_edges) {
    const EdgeEndpoints ep = g.endpoints(e);
    ++offsets[static_cast<std::size_t>(ep.u) + 1];
    ++offsets[static_cast<std::size_t>(ep.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<AdjEntry> flat(2 * tree_edges.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const EdgeId e : tree_edges) {
    const EdgeEndpoints ep = g.endpoints(e);
    flat[cursor[static_cast<std::size_t>(ep.u)]++] = {ep.v, e};
    flat[cursor[static_cast<std::size_t>(ep.v)]++] = {ep.u, e};
  }

  RootedTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.parent_cap.assign(n, 0.0);
  tree.parent_edge.assign(n, kInvalidEdge);
  // BFS over tree edges to set parent pointers.
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack = {root};
  seen[static_cast<std::size_t>(root)] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto vi = static_cast<std::size_t>(v);
    for (std::size_t i = offsets[vi]; i < offsets[vi + 1]; ++i) {
      const AdjEntry a = flat[i];
      if (!seen[static_cast<std::size_t>(a.to)]) {
        seen[static_cast<std::size_t>(a.to)] = 1;
        tree.parent[static_cast<std::size_t>(a.to)] = v;
        tree.parent_edge[static_cast<std::size_t>(a.to)] = a.edge;
        tree.parent_cap[static_cast<std::size_t>(a.to)] = g.capacity(a.edge);
        stack.push_back(a.to);
      }
    }
  }
  return tree;
}

std::vector<double> route_demand_on_spanning_tree(
    const CsrGraph& g, const RootedTree& tree, const std::vector<double>& b) {
  DMF_REQUIRE(b.size() == static_cast<std::size_t>(g.num_nodes()),
              "route_demand_on_spanning_tree: demand size mismatch");
  const std::vector<double> link_flow = route_demand_on_tree(tree, b);
  std::vector<double> flow(static_cast<std::size_t>(g.num_edges()), 0.0);
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e == kInvalidEdge) continue;
    const EdgeEndpoints ep = g.endpoints(e);
    // link_flow[v] flows from v toward parent(v); orient onto the edge.
    const double f = link_flow[static_cast<std::size_t>(v)];
    flow[static_cast<std::size_t>(e)] += (ep.u == v) ? f : -f;
  }
  return flow;
}

}  // namespace dmf
