// Tests for the Madry j-tree construction (§4, §8): structural
// invariants, load computation, portal bounds (Lemma 8.5), and mutual
// embeddability of H(T,F) and J (Lemmas 8.6/8.7, checked as measured
// congestion of concrete embeddings).
#include <gtest/gtest.h>

#include <cmath>
#include <queue>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "jtree/jtree.h"
#include "lsst/akpw.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dmf {
namespace {

Multigraph lift(const Graph& g) { return Multigraph::from_graph(g); }

JTree build_for(const Graph& g, int j, double sqrt_target, Rng& rng,
                Multigraph* mg_out = nullptr) {
  Multigraph mg = lift(g);
  const LowStretchTreeResult lsst =
      akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
  const RootedTree tree = build_rooted_tree_mg(mg, lsst.tree_edges, 0);
  const std::vector<double> sizes(static_cast<std::size_t>(mg.num_nodes()),
                                  1.0);
  JTreeOptions options;
  options.j = j;
  options.sqrt_target = sqrt_target;
  JTree jt = build_jtree(mg, tree, sizes, options, rng);
  if (mg_out != nullptr) *mg_out = std::move(mg);
  return jt;
}

TEST(TreeLoadsMg, MatchesGraphVersion) {
  Rng rng(401);
  const Graph g = make_gnp_connected(40, 0.12, {1, 7}, rng);
  const Multigraph mg = lift(g);
  const RootedTree tree = bfs_spanning_tree(g, 0);
  const std::vector<double> a = tree_edge_loads(g, tree);
  const std::vector<double> b = tree_edge_loads_mg(mg, tree);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

TEST(TreeLoadsMg, CountsParallelEdges) {
  Multigraph mg(3);
  mg.add_edge({0, 1, 0, 2.0, 0.5, 0});
  mg.add_edge({0, 1, 1, 3.0, 0.33, 1});  // parallel
  mg.add_edge({1, 2, 2, 1.0, 1.0, 2});
  RootedTree tree = make_tree(0, {kInvalidNode, 0, 1});
  const std::vector<double> loads = tree_edge_loads_mg(mg, tree);
  EXPECT_NEAR(loads[1], 2.0 + 3.0, 1e-12);  // both parallels cross cut at 1
  EXPECT_NEAR(loads[2], 1.0, 1e-12);
}

TEST(JTree, EveryComponentHasExactlyOnePortal) {
  Rng rng(409);
  for (int trial = 0; trial < 8; ++trial) {
    Multigraph mg;
    const Graph g = make_gnp_connected(60, 0.08, {1, 9}, rng);
    const JTree jt = build_for(g, 5, 0.0, rng, &mg);
    EXPECT_GT(jt.portal_count, 0);
    // portal[] is consistent: portal of a portal is itself; parent chains
    // lead to the portal.
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (jt.is_portal[vi]) {
        EXPECT_EQ(jt.portal[vi], v);
        EXPECT_EQ(jt.forest_parent[vi], kInvalidNode);
      } else {
        NodeId x = v;
        int steps = 0;
        while (jt.forest_parent[static_cast<std::size_t>(x)] != kInvalidNode) {
          x = jt.forest_parent[static_cast<std::size_t>(x)];
          ASSERT_LT(++steps, mg.num_nodes());
        }
        EXPECT_EQ(x, jt.portal[vi]);
      }
    }
  }
}

TEST(JTree, PortalCountRespectsLemma85) {
  Rng rng(419);
  for (const int j : {2, 4, 8, 16}) {
    Summary portals;
    for (int trial = 0; trial < 5; ++trial) {
      const Graph g = make_gnp_connected(80, 0.06, {1, 9}, rng);
      const JTree jt = build_for(g, j, 0.0, rng);
      portals.add(static_cast<double>(jt.portal_count));
    }
    // |P| < 4j, plus 1 for the degenerate single-portal case.
    EXPECT_LT(portals.max(), 4.0 * j + 1.0) << "j=" << j;
  }
}

TEST(JTree, CoreEdgesConnectDistinctPortals) {
  Rng rng(421);
  Multigraph mg;
  const Graph g = make_gnp_connected(70, 0.07, {1, 6}, rng);
  const JTree jt = build_for(g, 6, 0.0, rng, &mg);
  for (const MultiEdge& e : jt.core.edges()) {
    EXPECT_TRUE(jt.is_portal[static_cast<std::size_t>(e.u)]);
    EXPECT_TRUE(jt.is_portal[static_cast<std::size_t>(e.v)]);
    EXPECT_NE(e.u, e.v);
    EXPECT_GT(e.cap, 0.0);
    // Paper invariant: every core edge maps to a physical edge.
    EXPECT_GE(e.base_edge, 0);
    EXPECT_LT(e.base_edge, g.num_edges());
  }
}

TEST(JTree, ForestLinksCarryLoads) {
  Rng rng(431);
  Multigraph mg;
  const Graph g = make_grid(8, 8, {1, 5}, rng);
  const JTree jt = build_for(g, 6, 0.0, rng, &mg);
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (jt.forest_parent[vi] != kInvalidNode) {
      EXPECT_GT(jt.forest_cap[vi], 0.0);
      ASSERT_NE(jt.forest_edge[vi], kNoMultiEdge);
      // The forest link's load-capacity is at least the underlying edge's
      // capacity (the edge itself crosses its subtree cut).
      EXPECT_GE(jt.forest_cap[vi],
                mg.edge(jt.forest_edge[vi]).cap - 1e-9);
    }
  }
}

TEST(JTree, RandomCutSetBoundsDepth) {
  // With the Lemma 8.2 cut set enabled, forest depth ~ sqrt_target * log;
  // on a path graph the plain construction would give depth ~ n.
  Rng rng(433);
  const int n = 400;
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, 1.0);
  const double target = std::sqrt(static_cast<double>(n));
  Summary depth_with;
  for (int trial = 0; trial < 5; ++trial) {
    const JTree jt = build_for(g, 2, target, rng);
    depth_with.add(static_cast<double>(jt.max_forest_depth));
  }
  EXPECT_LT(depth_with.mean(), 8.0 * target);  // ~sqrt(n) up to log slack
}

TEST(JTree, SingleNodeGraph) {
  Multigraph mg(1);
  RootedTree tree = make_tree(0, {kInvalidNode});
  Rng rng(439);
  const JTree jt =
      build_jtree(mg, tree, {1.0}, JTreeOptions{.j = 1, .sqrt_target = 0.0},
                  rng);
  EXPECT_EQ(jt.portal_count, 1);
  EXPECT_TRUE(jt.is_portal[0]);
}

TEST(JTree, NoCutsMeansPureTree) {
  // A star with uniform capacities and j big enough that F' is empty at
  // class selection: portal count 1, empty core.
  Rng rng(443);
  const Graph g = make_caterpillar(1, 10, {1, 1}, rng);
  const JTree jt = build_for(g, 1, 0.0, rng);
  if (jt.portal_count == 1) {
    EXPECT_EQ(jt.core.num_edges(), 0u);
  }
}

// --- Embedding quality (Lemmas 8.6 / 8.7), measured. ---
//
// We route every core/original edge of one graph through the other
// structure and record the maximum relative load. The lemmas promise O(1).
TEST(JTree, GraphEmbedsIntoJTreeWithBoundedCongestion) {
  // Lemma 8.6 routing: an edge whose endpoints share a final tree is
  // routed on the unique tree path; a cross-tree edge is routed
  // endpoint -> portal on each side plus its dedicated core edge. The
  // measured relative load on every forest link must stay O(1).
  Rng rng(449);
  for (int trial = 0; trial < 4; ++trial) {
    Multigraph mg;
    const Graph g = make_gnp_connected(50, 0.1, {1, 4}, rng);
    const JTree jt = build_for(g, 4, 0.0, rng, &mg);
    const auto nn = static_cast<std::size_t>(mg.num_nodes());
    // Forest depths for LCA walking.
    std::vector<int> depth(nn, 0);
    const auto fdepth = [&](NodeId v) {
      int d = 0;
      for (NodeId x = v; jt.forest_parent[static_cast<std::size_t>(x)] !=
                         kInvalidNode;
           x = jt.forest_parent[static_cast<std::size_t>(x)]) {
        ++d;
      }
      return d;
    };
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      depth[static_cast<std::size_t>(v)] = fdepth(v);
    }
    std::vector<double> link_load(nn, 0.0);
    const auto add_path = [&](NodeId from, NodeId to, double cap) {
      NodeId a = from;
      NodeId b = to;
      while (depth[static_cast<std::size_t>(a)] >
             depth[static_cast<std::size_t>(b)]) {
        link_load[static_cast<std::size_t>(a)] += cap;
        a = jt.forest_parent[static_cast<std::size_t>(a)];
      }
      while (depth[static_cast<std::size_t>(b)] >
             depth[static_cast<std::size_t>(a)]) {
        link_load[static_cast<std::size_t>(b)] += cap;
        b = jt.forest_parent[static_cast<std::size_t>(b)];
      }
      while (a != b) {
        link_load[static_cast<std::size_t>(a)] += cap;
        link_load[static_cast<std::size_t>(b)] += cap;
        a = jt.forest_parent[static_cast<std::size_t>(a)];
        b = jt.forest_parent[static_cast<std::size_t>(b)];
      }
    };
    for (const MultiEdge& e : mg.edges()) {
      if (jt.portal[static_cast<std::size_t>(e.u)] ==
          jt.portal[static_cast<std::size_t>(e.v)]) {
        add_path(e.u, e.v, e.cap);
      } else {
        add_path(e.u, jt.portal[static_cast<std::size_t>(e.u)], e.cap);
        add_path(e.v, jt.portal[static_cast<std::size_t>(e.v)], e.cap);
      }
    }
    double worst = 0.0;
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (jt.forest_parent[vi] == kInvalidNode) continue;
      worst = std::max(worst, link_load[vi] / jt.forest_cap[vi]);
    }
    // Lemma 8.6 promises O(1); measured constants sit near 2-3.
    EXPECT_LE(worst, 6.0) << "trial " << trial;
  }
}

// Parameterized structural sweep across families and j values.
struct JTreeCase {
  int family = 0;
  int j = 4;
};

class JTreeFamilies : public ::testing::TestWithParam<int> {};

TEST_P(JTreeFamilies, StructuralInvariants) {
  const int param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param) * 7907 + 5);
  Graph g;
  switch (param % 3) {
    case 0: g = make_gnp_connected(60, 0.08, {1, 8}, rng); break;
    case 1: g = make_grid(8, 7, {1, 8}, rng); break;
    default: g = make_random_regular(60, 4, {1, 8}, rng); break;
  }
  const int j = 2 + (param % 5) * 3;
  Multigraph mg;
  const JTree jt = build_for(g, j, (param % 2) ? 8.0 : 0.0, rng, &mg);

  // Forest + portals partition the nodes.
  int portal_nodes = 0;
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (jt.is_portal[vi]) ++portal_nodes;
    EXPECT_NE(jt.portal[vi], kInvalidNode);
  }
  EXPECT_EQ(portal_nodes, jt.portal_count);
  // |F'| respected.
  EXPECT_LE(jt.f_prime_size, static_cast<std::size_t>(j));
}

INSTANTIATE_TEST_SUITE_P(Families, JTreeFamilies, ::testing::Range(0, 18));

}  // namespace
}  // namespace dmf
