// Maximum-weight spanning tree and tree-based demand routing.
//
// Algorithm 1 (steps 5-6) of the paper routes the residual demand left by
// the gradient descent through a maximum-capacity spanning tree. Routing a
// demand vector on a tree is unique: the flow on each tree edge is the
// total demand of the subtree below it (Lemma 9.1).
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "graph/tree.h"

namespace dmf {

// Maximum-weight (capacity) spanning tree via Kruskal. Requires a
// connected graph. Rooted at `root`.
RootedTree max_weight_spanning_tree(const Graph& g, NodeId root = 0);

// Route demand b through the given spanning tree of g; returns a flow
// vector over the *graph* edges (non-tree edges carry zero). The tree's
// parent_edge links must reference real graph edges. Balance is the
// caller's rule (demand_is_balanced): any excess sum(b) ends at the tree
// root, as in route_demand_on_tree.
std::vector<double> route_demand_on_spanning_tree(const CsrGraph& g,
                                                  const RootedTree& tree,
                                                  const std::vector<double>& b);

}  // namespace dmf
