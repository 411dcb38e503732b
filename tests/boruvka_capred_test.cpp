// Tests for distributed Borůvka spanning trees.
#include <gtest/gtest.h>

#include "baselines/tree_routing.h"
#include "cluster/boruvka.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dmf {
namespace {

double tree_weight(const Graph& g, const std::vector<EdgeId>& edges) {
  double total = 0.0;
  for (const EdgeId e : edges) total += g.capacity(e);
  return total;
}

double kruskal_weight(const Graph& g, bool maximize) {
  // Reuse max_weight_spanning_tree for max; negate-compare for min by
  // brute force: sort edges and union-find.
  RootedTree tree = max_weight_spanning_tree(g, 0);
  if (maximize) {
    double total = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (tree.parent_edge[static_cast<std::size_t>(v)] != kInvalidEdge) {
        total += g.capacity(tree.parent_edge[static_cast<std::size_t>(v)]);
      }
    }
    return total;
  }
  // Min spanning tree: invert capacities on a copy.
  Graph inverted(g.num_nodes());
  const double big = g.max_capacity() + 1.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    inverted.add_edge(ep.u, ep.v, big - g.capacity(e));
  }
  const RootedTree min_tree = max_weight_spanning_tree(inverted, 0);
  double total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = min_tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) total += g.capacity(e);
  }
  return total;
}

TEST(Boruvka, MatchesKruskalMaxWeight) {
  Rng rng(1009);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = make_gnp_connected(40, 0.12, {1, 50}, rng);
    const BoruvkaResult result = distributed_boruvka(g, /*maximize=*/true);
    EXPECT_EQ(result.tree_edges.size(), 39u);
    EXPECT_NEAR(tree_weight(g, result.tree_edges), kruskal_weight(g, true),
                1e-9)
        << "trial " << trial;
  }
}

TEST(Boruvka, MatchesKruskalMinWeight) {
  Rng rng(1013);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = make_grid(6, 6, {1, 40}, rng);
    const BoruvkaResult result = distributed_boruvka(g, /*maximize=*/false);
    EXPECT_NEAR(tree_weight(g, result.tree_edges), kruskal_weight(g, false),
                1e-9)
        << "trial " << trial;
  }
}

TEST(Boruvka, LogarithmicPhases) {
  Rng rng(1019);
  const Graph g = make_gnp_connected(128, 0.05, {1, 99}, rng);
  const BoruvkaResult result = distributed_boruvka(g, true);
  EXPECT_LE(result.phases, static_cast<int>(std::ceil(std::log2(128.0))) + 1);
  EXPECT_GT(result.rounds, 0.0);
}

TEST(Boruvka, RootedTreeUsableForRouting) {
  Rng rng(1021);
  const Graph g = make_gnp_connected(30, 0.15, {1, 9}, rng);
  double rounds = 0.0;
  const RootedTree tree = boruvka_max_weight_tree(g, 0, &rounds);
  tree.validate();
  EXPECT_GT(rounds, 0.0);
  std::vector<double> b(30, 0.0);
  b[4] = 2.0;
  b[22] = -2.0;
  const std::vector<double> flow =
      route_demand_on_spanning_tree(CsrGraph(g), tree, b);
  const std::vector<double> div = flow_divergence(g, flow);
  EXPECT_NEAR(div[4], 2.0, 1e-9);
  EXPECT_NEAR(div[22], -2.0, 1e-9);
}

TEST(Boruvka, SingleNodeAndEdge) {
  Graph g1(1);
  const BoruvkaResult r1 = distributed_boruvka(g1, true);
  EXPECT_TRUE(r1.tree_edges.empty());
  Graph g2(2);
  g2.add_edge(0, 1, 3.0);
  const BoruvkaResult r2 = distributed_boruvka(g2, true);
  EXPECT_EQ(r2.tree_edges.size(), 1u);
}

}  // namespace
}  // namespace dmf
