// Rooted trees (real or virtual) and the tree computations the paper's
// congestion-approximator machinery rests on:
//
//  * routing a demand vector on a tree (unique, leaf-to-root subtree sums);
//  * tree edge loads: for every tree edge (v, parent(v)), the total
//    capacity of graph edges crossing the cut induced by subtree(v) — this
//    is exactly the multicommodity flow |f'| of Section 8.1 that turns a
//    spanning tree into a capacitated Räcke tree (G 1-embeds into it);
//  * LCA queries (binary lifting) used for loads and stretch;
//  * the random Õ(√n)-decomposition of a tree into O(√n) shallow
//    components (Lemma 8.2 / Lemma 9.1).
//
// A RootedTree is *virtual*: its node set matches a graph's node set, but
// its edges need not be graph edges (capacities live on the parent links).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dmf {

struct RootedTree {
  NodeId root = kInvalidNode;
  // parent[v] is v's parent; kInvalidNode at the root.
  std::vector<NodeId> parent;
  // Capacity of the (virtual) edge v -> parent[v]; unused at the root.
  std::vector<double> parent_cap;
  // The underlying graph edge represented by the link, or kInvalidEdge if
  // the link is purely virtual.
  std::vector<EdgeId> parent_edge;

  [[nodiscard]] NodeId num_nodes() const {
    return static_cast<NodeId>(parent.size());
  }

  // Validates shape: exactly one root, parent pointers acyclic and total.
  void validate() const;
};

// Construct a RootedTree from parent pointers with unit capacities.
RootedTree make_tree(NodeId root, std::vector<NodeId> parent);

// Nodes ordered root-first so that parents precede children (BFS order).
// Also the depth of every node. Throws if the parent structure is cyclic.
struct TreeOrder {
  std::vector<NodeId> topdown;  // parents before children
  std::vector<int> depth;
  int height = 0;
};

TreeOrder tree_order(const RootedTree& tree);

// Children adjacency of the tree.
std::vector<std::vector<NodeId>> tree_children(const RootedTree& tree);

// Sum of `values` over each node's subtree (including itself).
std::vector<double> subtree_sums(const RootedTree& tree,
                                 const std::vector<double>& values);

// Route a demand vector b (sum zero not required; any excess ends at the
// root) on the tree: flow[v] is the signed flow on link v->parent(v),
// positive toward the parent. flow[v] = sum of b over subtree(v).
std::vector<double> route_demand_on_tree(const RootedTree& tree,
                                         const std::vector<double>& demand);

// Binary-lifting LCA index over a rooted tree.
class LcaIndex {
 public:
  explicit LcaIndex(const RootedTree& tree);

  [[nodiscard]] NodeId lca(NodeId u, NodeId v) const;
  [[nodiscard]] int depth(NodeId v) const {
    return depth_[static_cast<std::size_t>(v)];
  }

 private:
  int levels_ = 1;
  std::vector<int> depth_;
  std::vector<std::vector<NodeId>> up_;  // up_[k][v] = 2^k-th ancestor
};

// For every non-root node v, the total capacity of graph edges with exactly
// one endpoint in subtree(v): the load placed on tree edge (v,parent(v)) by
// the canonical embedding of g into the tree. loads[root] == 0.
std::vector<double> tree_edge_loads(const Graph& g, const RootedTree& tree);

// Distance between u and v in the tree when link v->parent(v) has length
// `length[v]` (unused at root). Uses the LCA index.
double tree_path_length(const RootedTree& tree, const LcaIndex& lca,
                        const std::vector<double>& length, NodeId u, NodeId v);

// Lemma 8.2-style random decomposition: cut each parent link independently
// with probability min(1, 1/target_size) — callers pass target_size=√n —
// yielding (w.h.p.) O(√n) components of depth Õ(√n).
struct TreeDecomposition {
  std::vector<int> component;        // component label per node, in [0,count)
  std::vector<NodeId> component_root;  // the unique top node per component
  std::vector<char> link_cut;        // link_cut[v]: edge v->parent removed
  int count = 0;
  int max_depth = 0;  // max depth within any component
};

TreeDecomposition decompose_tree_random(const RootedTree& tree,
                                        double target_size, Rng& rng);

// Spanning tree of g rooted at `root` using BFS; parent capacities are the
// capacities of the underlying graph edges.
RootedTree bfs_spanning_tree(const Graph& g, NodeId root);

}  // namespace dmf
