// Tests for the low average-stretch spanning tree stack:
// SplitGraph (Fig. 4), Partition, and the AKPW outer loop (Thm 3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "lsst/akpw.h"
#include "lsst/partition.h"
#include "lsst/split_graph.h"
#include "util/stats.h"
#include "util/rng.h"

namespace dmf {
namespace {

Multigraph lift(const Graph& g) { return Multigraph::from_graph(g); }

std::vector<char> all_allowed(const Multigraph& g) {
  return std::vector<char>(g.num_edges(), 1);
}

TEST(SplitGraph, CoversEveryNode) {
  Rng rng(211);
  const Graph g = make_gnp_connected(80, 0.06, {1, 4}, rng);
  const Multigraph mg = lift(g);
  const SplitResult split = split_graph(mg, all_allowed(mg), 6.0, rng);
  EXPECT_GT(split.count, 0);
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    EXPECT_GE(split.cluster[static_cast<std::size_t>(v)], 0);
    EXPECT_LT(split.cluster[static_cast<std::size_t>(v)], split.count);
  }
}

TEST(SplitGraph, ClustersAreConnectedWithValidParents) {
  Rng rng(223);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = make_gnp_connected(60, 0.08, {1, 4}, rng);
    const Multigraph mg = lift(g);
    const SplitResult split = split_graph(mg, all_allowed(mg), 5.0, rng);
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      const NodeId p = split.parent[vi];
      if (p == kInvalidNode) continue;
      // Parent in same cluster, connected by the recorded edge.
      EXPECT_EQ(split.cluster[static_cast<std::size_t>(p)], split.cluster[vi]);
      const MultiEdge& e = mg.edge(split.parent_edge[vi]);
      EXPECT_TRUE((e.u == v && e.v == p) || (e.u == p && e.v == v));
    }
    // Parent pointers are acyclic (climb to a center from every node).
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      NodeId x = v;
      int steps = 0;
      while (split.parent[static_cast<std::size_t>(x)] != kInvalidNode) {
        x = split.parent[static_cast<std::size_t>(x)];
        ASSERT_LT(++steps, mg.num_nodes());
      }
      EXPECT_EQ(split.cluster[static_cast<std::size_t>(x)],
                split.cluster[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(SplitGraph, RadiusBoundedByRho) {
  Rng rng(227);
  const double rho = 4.0;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = make_grid(10, 10, {1, 1}, rng);
    const Multigraph mg = lift(g);
    const SplitResult split = split_graph(mg, all_allowed(mg), rho, rng);
    // Depth of the BFS forest inside each cluster is at most rho.
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      int depth = 0;
      NodeId x = v;
      while (split.parent[static_cast<std::size_t>(x)] != kInvalidNode) {
        x = split.parent[static_cast<std::size_t>(x)];
        ++depth;
      }
      EXPECT_LE(depth, static_cast<int>(rho));
    }
  }
}

TEST(SplitGraph, LargerRhoCutsFewerEdges) {
  Rng rng(229);
  const Graph g = make_torus(12, 12, {1, 1}, rng);
  const Multigraph mg = lift(g);
  double cut_small = 0.0;
  double cut_large = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const SplitResult a = split_graph(mg, all_allowed(mg), 2.0, rng);
    const SplitResult b = split_graph(mg, all_allowed(mg), 12.0, rng);
    const auto count_cut = [&mg](const SplitResult& s) {
      int cut = 0;
      for (const MultiEdge& e : mg.edges()) {
        if (s.cluster[static_cast<std::size_t>(e.u)] !=
            s.cluster[static_cast<std::size_t>(e.v)]) {
          ++cut;
        }
      }
      return cut;
    };
    cut_small += count_cut(a);
    cut_large += count_cut(b);
  }
  EXPECT_LT(cut_large, cut_small);
}

TEST(SplitGraph, RespectsAllowedMask) {
  Rng rng(233);
  const Graph g = make_path(20, {1, 1}, rng);
  const Multigraph mg = lift(g);
  // Forbid everything: every node is a singleton cluster.
  std::vector<char> none(mg.num_edges(), 0);
  const SplitResult split = split_graph(mg, none, 4.0, rng);
  EXPECT_EQ(split.count, 20);
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(split.parent[static_cast<std::size_t>(v)], kInvalidNode);
  }
}

TEST(Partition, AcceptsWithinBudget) {
  Rng rng(239);
  const Graph g = make_gnp_connected(70, 0.07, {1, 4}, rng);
  const Multigraph mg = lift(g);
  std::vector<int> cls(mg.num_edges(), 0);
  PartitionOptions options;
  options.rho = 6.0;
  const PartitionResult part =
      partition(mg, all_allowed(mg), cls, 1, options, rng);
  EXPECT_TRUE(part.within_budget);
  EXPECT_GE(part.attempts, 1);
}

TEST(Partition, MultiClassBudgets) {
  Rng rng(241);
  const Graph g = make_torus(10, 10, {1, 1}, rng);
  const Multigraph mg = lift(g);
  // Alternate classes by edge parity.
  std::vector<int> cls(mg.num_edges());
  for (std::size_t i = 0; i < cls.size(); ++i) cls[i] = static_cast<int>(i % 3);
  PartitionOptions options;
  options.rho = 8.0;
  const PartitionResult part =
      partition(mg, all_allowed(mg), cls, 3, options, rng);
  EXPECT_TRUE(part.within_budget);
}

TEST(Akpw, ProducesSpanningTree) {
  Rng rng(251);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp_connected(50, 0.1, {1, 9}, rng);
    const Multigraph mg = lift(g);
    const LowStretchTreeResult tree =
        akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
    EXPECT_EQ(tree.tree_edges.size(), 49u);
    // Distinct edges spanning all nodes.
    const std::set<std::size_t> distinct(tree.tree_edges.begin(),
                                         tree.tree_edges.end());
    EXPECT_EQ(distinct.size(), 49u);
    const RootedTree rooted =
        tree_from_multigraph_edges(mg, tree.tree_edges, 0);
    rooted.validate();
  }
}

TEST(Akpw, WorksOnMultigraphWithParallelEdges) {
  Rng rng(257);
  Multigraph mg(4);
  mg.add_edge({0, 1, 0, 1.0, 1.0, 0});
  mg.add_edge({0, 1, 1, 2.0, 0.5, 1});  // parallel
  mg.add_edge({1, 2, 2, 1.0, 1.0, 2});
  mg.add_edge({2, 3, 3, 1.0, 2.0, 3});
  mg.add_edge({3, 0, 4, 1.0, 2.0, 4});
  const LowStretchTreeResult tree =
      akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
  EXPECT_EQ(tree.tree_edges.size(), 3u);
}

TEST(Akpw, WorksAfterContraction) {
  // Simulates the recursive use: contract a region, then build an LSST
  // on the contracted multigraph.
  Rng rng(263);
  const Graph g = make_grid(6, 6, {1, 5}, rng);
  Multigraph mg = lift(g);
  // Contract each 2x1 horizontal pair.
  std::vector<NodeId> mapping(36);
  for (NodeId v = 0; v < 36; ++v) mapping[static_cast<std::size_t>(v)] = v / 2;
  mg = mg.contract(mapping, 18);
  EXPECT_TRUE(mg.is_connected());
  const LowStretchTreeResult tree =
      akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
  EXPECT_EQ(tree.tree_edges.size(), 17u);
}

TEST(Akpw, TreeStretchIsReasonable) {
  // Empirical check of Theorem 3.1's guarantee at small n: the average
  // stretch must be far below the trivial O(n) bound. (E3 measures the
  // scaling curve.)
  Rng rng(269);
  Summary stretches;
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_torus(8, 8, {1, 1}, rng);
    const Multigraph mg = lift(g);
    const LowStretchTreeResult tree =
        akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
    stretches.add(average_stretch(mg, tree.tree_edges));
  }
  EXPECT_LT(stretches.mean(), 16.0);  // n=64: far below n
  EXPECT_GE(stretches.mean(), 1.0);   // stretch is at least 1 on average
}

TEST(Akpw, UnitPathStretchIsOne) {
  Rng rng(271);
  const Graph g = make_path(30, {1, 1}, rng);
  const Multigraph mg = lift(g);
  const LowStretchTreeResult tree =
      akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
  // The only spanning tree of a path is the path itself.
  EXPECT_NEAR(average_stretch(mg, tree.tree_edges), 1.0, 1e-9);
}

TEST(Akpw, DefaultZFormula) {
  EXPECT_GE(akpw_default_z(10), 4.0);
  EXPECT_LE(akpw_default_z(1 << 30), 65536.0);
  EXPECT_GT(akpw_default_z(100000), akpw_default_z(100));
}

TEST(AverageStretch, ExactOnKnownTree) {
  // Triangle with unit lengths; tree = {0-1, 1-2}; the non-tree edge
  // {0,2} has tree distance 2 => average stretch (1 + 1 + 2) / 3.
  Multigraph mg(3);
  mg.add_edge({0, 1, 0, 1.0, 1.0, 0});
  mg.add_edge({1, 2, 1, 1.0, 1.0, 1});
  mg.add_edge({0, 2, 2, 1.0, 1.0, 2});
  const std::vector<std::size_t> tree = {0, 1};
  EXPECT_NEAR(average_stretch(mg, tree), (1.0 + 1.0 + 2.0) / 3.0, 1e-12);
}

TEST(TreeFromMultigraphEdges, RejectsNonSpanning) {
  Multigraph mg(3);
  mg.add_edge({0, 1, 0, 1.0, 1.0, 0});
  mg.add_edge({1, 2, 1, 1.0, 1.0, 1});
  EXPECT_THROW(tree_from_multigraph_edges(mg, {0}, 0), RequirementError);
}

// Parameterized sweep: AKPW yields spanning trees with sub-linear average
// stretch across graph families and seeds.
class AkpwFamilies : public ::testing::TestWithParam<int> {};

TEST_P(AkpwFamilies, SpanningAndLowStretch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  Graph g;
  switch (GetParam() % 4) {
    case 0: g = make_gnp_connected(64, 0.08, {1, 6}, rng); break;
    case 1: g = make_grid(8, 8, {1, 6}, rng); break;
    case 2: g = make_random_regular(64, 4, {1, 6}, rng); break;
    default: g = make_tree_plus_chords(64, 30, {1, 6}, rng); break;
  }
  const Multigraph mg = lift(g);
  const LowStretchTreeResult tree =
      akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
  EXPECT_EQ(tree.tree_edges.size(),
            static_cast<std::size_t>(g.num_nodes()) - 1);
  const double stretch = average_stretch(mg, tree.tree_edges);
  EXPECT_GE(stretch, 1.0 - 1e-9);
  EXPECT_LT(stretch, static_cast<double>(g.num_nodes()) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Families, AkpwFamilies, ::testing::Range(0, 16));

}  // namespace
}  // namespace dmf
