#include "graph/tree.h"

#include <algorithm>
#include <queue>

#include "graph/algorithms.h"

namespace dmf {

void RootedTree::validate() const {
  const auto n = static_cast<std::size_t>(num_nodes());
  DMF_REQUIRE(root >= 0 && static_cast<std::size_t>(root) < n,
              "RootedTree: bad root");
  DMF_REQUIRE(parent.size() == n && parent_cap.size() == n &&
                  parent_edge.size() == n,
              "RootedTree: inconsistent array sizes");
  DMF_REQUIRE(parent[static_cast<std::size_t>(root)] == kInvalidNode,
              "RootedTree: root must have no parent");
  // tree_order throws on cycles / multiple roots.
  const TreeOrder order = tree_order(*this);
  DMF_REQUIRE(order.topdown.size() == n, "RootedTree: not connected");
}

RootedTree make_tree(NodeId root, std::vector<NodeId> parent) {
  RootedTree tree;
  tree.root = root;
  const std::size_t n = parent.size();
  tree.parent = std::move(parent);
  tree.parent_cap.assign(n, 1.0);
  tree.parent_edge.assign(n, kInvalidEdge);
  return tree;
}

TreeOrder tree_order(const RootedTree& tree) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  TreeOrder order;
  order.depth.assign(n, -1);
  order.topdown.reserve(n);

  std::vector<std::vector<NodeId>> children(n);
  std::size_t roots = 0;
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    if (p == kInvalidNode) {
      ++roots;
      DMF_REQUIRE(v == tree.root, "tree_order: stray parentless node");
    } else {
      DMF_REQUIRE(p >= 0 && static_cast<std::size_t>(p) < n,
                  "tree_order: parent out of range");
      children[static_cast<std::size_t>(p)].push_back(v);
    }
  }
  DMF_REQUIRE(roots == 1, "tree_order: must have exactly one root");

  std::queue<NodeId> frontier;
  order.depth[static_cast<std::size_t>(tree.root)] = 0;
  frontier.push(tree.root);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    order.topdown.push_back(v);
    order.height =
        std::max(order.height, order.depth[static_cast<std::size_t>(v)]);
    for (const NodeId c : children[static_cast<std::size_t>(v)]) {
      order.depth[static_cast<std::size_t>(c)] =
          order.depth[static_cast<std::size_t>(v)] + 1;
      frontier.push(c);
    }
  }
  DMF_REQUIRE(order.topdown.size() == n,
              "tree_order: parent structure is cyclic or disconnected");
  return order;
}

std::vector<std::vector<NodeId>> tree_children(const RootedTree& tree) {
  std::vector<std::vector<NodeId>> children(
      static_cast<std::size_t>(tree.num_nodes()));
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) children[static_cast<std::size_t>(p)].push_back(v);
  }
  return children;
}

std::vector<double> subtree_sums(const RootedTree& tree,
                                 const std::vector<double>& values) {
  DMF_REQUIRE(values.size() == static_cast<std::size_t>(tree.num_nodes()),
              "subtree_sums: size mismatch");
  const TreeOrder order = tree_order(tree);
  std::vector<double> sums = values;
  // Children precede parents when iterating top-down order in reverse.
  for (auto it = order.topdown.rbegin(); it != order.topdown.rend(); ++it) {
    const NodeId v = *it;
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) {
      sums[static_cast<std::size_t>(p)] += sums[static_cast<std::size_t>(v)];
    }
  }
  return sums;
}

std::vector<double> route_demand_on_tree(const RootedTree& tree,
                                         const std::vector<double>& demand) {
  std::vector<double> flow = subtree_sums(tree, demand);
  flow[static_cast<std::size_t>(tree.root)] = 0.0;
  return flow;
}

LcaIndex::LcaIndex(const RootedTree& tree) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  const TreeOrder order = tree_order(tree);
  depth_ = order.depth;
  while ((1 << levels_) <= order.height + 1) ++levels_;
  up_.assign(static_cast<std::size_t>(levels_),
             std::vector<NodeId>(n, kInvalidNode));
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    up_[0][static_cast<std::size_t>(v)] =
        tree.parent[static_cast<std::size_t>(v)];
  }
  for (int k = 1; k < levels_; ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId mid = up_[static_cast<std::size_t>(k - 1)][v];
      up_[static_cast<std::size_t>(k)][v] =
          mid == kInvalidNode
              ? kInvalidNode
              : up_[static_cast<std::size_t>(k - 1)]
                    [static_cast<std::size_t>(mid)];
    }
  }
}

NodeId LcaIndex::lca(NodeId u, NodeId v) const {
  DMF_ASSERT(u >= 0 && v >= 0, "lca: bad nodes");
  if (depth(u) < depth(v)) std::swap(u, v);
  int diff = depth(u) - depth(v);
  for (int k = 0; diff > 0; ++k, diff >>= 1) {
    if (diff & 1) {
      u = up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(u)];
    }
  }
  if (u == v) return u;
  for (int k = levels_ - 1; k >= 0; --k) {
    const NodeId nu =
        up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(u)];
    const NodeId nv =
        up_[static_cast<std::size_t>(k)][static_cast<std::size_t>(v)];
    if (nu != nv) {
      u = nu;
      v = nv;
    }
  }
  return up_[0][static_cast<std::size_t>(u)];
}

std::vector<double> tree_edge_loads(const Graph& g, const RootedTree& tree) {
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  DMF_REQUIRE(static_cast<std::size_t>(g.num_nodes()) == n,
              "tree_edge_loads: node count mismatch");
  const LcaIndex lca(tree);
  // For edge {u,v} with capacity c: +c at u, +c at v, -2c at lca(u,v).
  // Subtree sums then yield, for each node w, the capacity of graph edges
  // with exactly one endpoint inside subtree(w).
  std::vector<double> contribution(n, 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const double c = g.capacity(e);
    contribution[static_cast<std::size_t>(ep.u)] += c;
    contribution[static_cast<std::size_t>(ep.v)] += c;
    contribution[static_cast<std::size_t>(lca.lca(ep.u, ep.v))] -= 2.0 * c;
  }
  std::vector<double> loads = subtree_sums(tree, contribution);
  loads[static_cast<std::size_t>(tree.root)] = 0.0;
  // Clamp tiny negative values caused by floating-point cancellation.
  for (double& x : loads) {
    if (x < 0.0 && x > -1e-9) x = 0.0;
  }
  return loads;
}

double tree_path_length(const RootedTree& tree, const LcaIndex& lca,
                        const std::vector<double>& length, NodeId u,
                        NodeId v) {
  const NodeId meet = lca.lca(u, v);
  double total = 0.0;
  for (NodeId x = u; x != meet; x = tree.parent[static_cast<std::size_t>(x)]) {
    total += length[static_cast<std::size_t>(x)];
  }
  for (NodeId x = v; x != meet; x = tree.parent[static_cast<std::size_t>(x)]) {
    total += length[static_cast<std::size_t>(x)];
  }
  return total;
}

TreeDecomposition decompose_tree_random(const RootedTree& tree,
                                        double target_size, Rng& rng) {
  DMF_REQUIRE(target_size >= 1.0, "decompose_tree_random: bad target size");
  const auto n = static_cast<std::size_t>(tree.num_nodes());
  const TreeOrder order = tree_order(tree);
  TreeDecomposition dec;
  dec.link_cut.assign(n, 0);
  dec.component.assign(n, -1);
  const double p = std::min(1.0, 1.0 / target_size);
  for (NodeId v = 0; v < tree.num_nodes(); ++v) {
    if (tree.parent[static_cast<std::size_t>(v)] != kInvalidNode &&
        rng.next_bool(p)) {
      dec.link_cut[static_cast<std::size_t>(v)] = 1;
    }
  }
  // Label components top-down: a node starts a new component iff it is the
  // root or its parent link is cut.
  std::vector<int> comp_depth(n, 0);
  for (const NodeId v : order.topdown) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    if (p == kInvalidNode || dec.link_cut[static_cast<std::size_t>(v)]) {
      dec.component[static_cast<std::size_t>(v)] = dec.count++;
      dec.component_root.push_back(v);
      comp_depth[static_cast<std::size_t>(v)] = 0;
    } else {
      dec.component[static_cast<std::size_t>(v)] =
          dec.component[static_cast<std::size_t>(p)];
      comp_depth[static_cast<std::size_t>(v)] =
          comp_depth[static_cast<std::size_t>(p)] + 1;
      dec.max_depth =
          std::max(dec.max_depth, comp_depth[static_cast<std::size_t>(v)]);
    }
  }
  return dec;
}

RootedTree bfs_spanning_tree(const Graph& g, NodeId root) {
  const BfsTree bfs = build_bfs_tree(CsrGraph(g), root);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  RootedTree tree;
  tree.root = root;
  tree.parent = bfs.parent;
  tree.parent_edge = bfs.parent_edge;
  tree.parent_cap.assign(n, 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) {
      tree.parent_cap[static_cast<std::size_t>(v)] = g.capacity(e);
    }
    DMF_REQUIRE(v == root || e != kInvalidEdge,
                "bfs_spanning_tree: graph is disconnected");
  }
  return tree;
}

}  // namespace dmf
