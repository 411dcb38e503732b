// Tests for RootedTree utilities: orders, subtree sums, LCA, tree loads,
// demand routing, and the Lemma 8.2 random decomposition.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "util/rng.h"

namespace dmf {
namespace {

RootedTree small_tree() {
  // 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {5}
  RootedTree t = make_tree(0, {kInvalidNode, 0, 0, 1, 1, 2});
  return t;
}

TEST(RootedTree, ValidateAcceptsTree) {
  small_tree().validate();
}

TEST(RootedTree, ValidateRejectsCycle) {
  RootedTree t = make_tree(0, {kInvalidNode, 2, 1});  // 1 <-> 2 cycle
  EXPECT_THROW(t.validate(), RequirementError);
}

TEST(RootedTree, ValidateRejectsTwoRoots) {
  RootedTree t = make_tree(0, {kInvalidNode, kInvalidNode, 0});
  EXPECT_THROW(t.validate(), RequirementError);
}

TEST(TreeOrder, ParentsBeforeChildren) {
  const RootedTree t = small_tree();
  const TreeOrder order = tree_order(t);
  std::vector<int> position(6, -1);
  for (std::size_t i = 0; i < order.topdown.size(); ++i) {
    position[static_cast<std::size_t>(order.topdown[i])] =
        static_cast<int>(i);
  }
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_LT(position[static_cast<std::size_t>(
                  t.parent[static_cast<std::size_t>(v)])],
              position[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(order.height, 2);
  EXPECT_EQ(order.depth[3], 2);
}

TEST(SubtreeSums, SmallTree) {
  const RootedTree t = small_tree();
  const std::vector<double> values = {1, 1, 1, 1, 1, 1};
  const std::vector<double> sums = subtree_sums(t, values);
  EXPECT_DOUBLE_EQ(sums[0], 6.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(sums[2], 2.0);
  EXPECT_DOUBLE_EQ(sums[3], 1.0);
}

TEST(RouteDemandOnTree, FlowsTowardSink) {
  const RootedTree t = small_tree();
  std::vector<double> b(6, 0.0);
  b[3] = 2.0;   // source at leaf 3
  b[5] = -2.0;  // sink at leaf 5
  const std::vector<double> flow = route_demand_on_tree(t, b);
  EXPECT_DOUBLE_EQ(flow[3], 2.0);   // 3 -> 1
  EXPECT_DOUBLE_EQ(flow[1], 2.0);   // 1 -> 0
  EXPECT_DOUBLE_EQ(flow[2], -2.0);  // 0 -> 2 (negative: toward child)
  EXPECT_DOUBLE_EQ(flow[5], -2.0);  // 2 -> 5
  EXPECT_DOUBLE_EQ(flow[4], 0.0);
}

TEST(Lca, SmallTree) {
  const RootedTree t = small_tree();
  const LcaIndex lca(t);
  EXPECT_EQ(lca.lca(3, 4), 1);
  EXPECT_EQ(lca.lca(3, 5), 0);
  EXPECT_EQ(lca.lca(1, 3), 1);
  EXPECT_EQ(lca.lca(0, 5), 0);
  EXPECT_EQ(lca.lca(4, 4), 4);
}

TEST(Lca, MatchesBruteForceOnRandomTrees) {
  Rng rng(67);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_random_tree(60, {1, 1}, rng);
    const RootedTree t = bfs_spanning_tree(g, 0);
    const LcaIndex lca(t);
    const TreeOrder order = tree_order(t);
    for (int q = 0; q < 100; ++q) {
      const auto u = static_cast<NodeId>(rng.next_below(60));
      const auto v = static_cast<NodeId>(rng.next_below(60));
      // Brute force: climb ancestors of u, then of v.
      std::vector<char> anc(60, 0);
      for (NodeId x = u; x != kInvalidNode;
           x = t.parent[static_cast<std::size_t>(x)]) {
        anc[static_cast<std::size_t>(x)] = 1;
      }
      NodeId expected = v;
      while (!anc[static_cast<std::size_t>(expected)]) {
        expected = t.parent[static_cast<std::size_t>(expected)];
      }
      EXPECT_EQ(lca.lca(u, v), expected);
      (void)order;
    }
  }
}

// Brute-force cut capacity: edges with exactly one endpoint in subtree(v).
double brute_force_load(const Graph& g, const RootedTree& t, NodeId v) {
  // Mark subtree(v).
  const auto children = tree_children(t);
  std::vector<char> in(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<NodeId> stack = {v};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    in[static_cast<std::size_t>(x)] = 1;
    for (const NodeId c : children[static_cast<std::size_t>(x)]) {
      stack.push_back(c);
    }
  }
  double load = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    if (in[static_cast<std::size_t>(ep.u)] !=
        in[static_cast<std::size_t>(ep.v)]) {
      load += g.capacity(e);
    }
  }
  return load;
}

TEST(TreeEdgeLoads, MatchesBruteForce) {
  Rng rng(71);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = make_gnp_connected(30, 0.15, {1, 9}, rng);
    const RootedTree t = bfs_spanning_tree(g, 0);
    const std::vector<double> loads = tree_edge_loads(g, t);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t.root) {
        EXPECT_DOUBLE_EQ(loads[static_cast<std::size_t>(v)], 0.0);
      } else {
        EXPECT_NEAR(loads[static_cast<std::size_t>(v)],
                    brute_force_load(g, t, v), 1e-6)
            << "node " << v << " trial " << trial;
      }
    }
  }
}

TEST(TreePathLength, MatchesManualSum) {
  const RootedTree t = small_tree();
  const LcaIndex lca(t);
  // length of link v->parent: v itself as value for traceability.
  const std::vector<double> len = {0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(tree_path_length(t, lca, len, 3, 4), 3 + 4);
  EXPECT_DOUBLE_EQ(tree_path_length(t, lca, len, 3, 5), 3 + 1 + 2 + 5);
  EXPECT_DOUBLE_EQ(tree_path_length(t, lca, len, 0, 0), 0);
}

TEST(DecomposeTreeRandom, CoversAllNodesConsistently) {
  Rng rng(79);
  const Graph g = make_random_tree(200, {1, 1}, rng);
  const RootedTree t = bfs_spanning_tree(g, 0);
  const TreeDecomposition dec = decompose_tree_random(t, std::sqrt(200.0), rng);
  EXPECT_GT(dec.count, 0);
  EXPECT_EQ(dec.component_root.size(), static_cast<std::size_t>(dec.count));
  for (NodeId v = 0; v < 200; ++v) {
    const int c = dec.component[static_cast<std::size_t>(v)];
    ASSERT_GE(c, 0);
    ASSERT_LT(c, dec.count);
    // Component roots label their own component.
    EXPECT_EQ(dec.component[static_cast<std::size_t>(
                  dec.component_root[static_cast<std::size_t>(c)])],
              c);
    // Non-cut links keep parent in the same component.
    const NodeId p = t.parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode && !dec.link_cut[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(dec.component[static_cast<std::size_t>(p)], c);
    }
  }
}

TEST(DecomposeTreeRandom, PathStatistics) {
  // On a path of n nodes with target √n, expect ~√n components and
  // max depth near √n·log n (we allow generous slack; the property
  // experiment E9 measures this precisely).
  Rng rng(83);
  const int n = 400;
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, 1.0);
  const RootedTree t = bfs_spanning_tree(g, 0);
  const TreeDecomposition dec =
      decompose_tree_random(t, std::sqrt(static_cast<double>(n)), rng);
  EXPECT_GT(dec.count, 2);
  EXPECT_LT(dec.count, 4 * 20 + 20);  // ~4√n slack
  EXPECT_LT(dec.max_depth, 20 * 12);  // √n · log n slack
}

TEST(BfsSpanningTree, CapacitiesMatchGraph) {
  Rng rng(89);
  const Graph g = make_grid(5, 5, {2, 7}, rng);
  const RootedTree t = bfs_spanning_tree(g, 12);
  t.validate();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = t.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) {
      EXPECT_DOUBLE_EQ(t.parent_cap[static_cast<std::size_t>(v)],
                       g.capacity(e));
    }
  }
}

}  // namespace
}  // namespace dmf
