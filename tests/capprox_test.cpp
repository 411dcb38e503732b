// Tests for the recursive virtual-tree hierarchy (Theorem 8.10), the
// Räcke full-tree baseline, and the congestion approximator R
// (Lemma 3.3): structure, cut bounds, and operator correctness.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "capprox/racke.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dmf {
namespace {

TEST(Hierarchy, ProducesValidSpanningTree) {
  Rng rng(501);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = make_gnp_connected(60, 0.08, {1, 9}, rng);
    const VirtualTreeSample sample =
        sample_virtual_tree(g, HierarchyOptions{}, rng);
    sample.tree.validate();
    EXPECT_GE(sample.levels, 1);
    EXPECT_GT(sample.rounds, 0.0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v != sample.tree.root) {
        EXPECT_GT(sample.tree.parent_cap[static_cast<std::size_t>(v)], 0.0);
      }
    }
  }
}

TEST(Hierarchy, LevelSizesShrink) {
  Rng rng(503);
  const Graph g = make_torus(14, 14, {1, 5}, rng);  // n = 196
  const VirtualTreeSample sample =
      sample_virtual_tree(g, HierarchyOptions{}, rng);
  for (std::size_t i = 1; i < sample.level_sizes.size(); ++i) {
    EXPECT_LT(sample.level_sizes[i], sample.level_sizes[i - 1]);
  }
  EXPECT_EQ(sample.level_sizes.front(), 196);
}

TEST(Hierarchy, SmallGraphs) {
  Rng rng(509);
  for (const NodeId n : {2, 3, 5}) {
    const Graph g = make_complete(n, {1, 3}, rng);
    const VirtualTreeSample sample =
        sample_virtual_tree(g, HierarchyOptions{}, rng);
    sample.tree.validate();
  }
}

TEST(Hierarchy, TreeNeverUnderestimatesCutCongestionMuch) {
  // Theorem 8.10 lower-bound side: cut capacities in the tree are >= cut
  // capacities in G (up to the sparsifier slack at our scales). We verify
  // via s-t demands: tree congestion ||Rb|| must not exceed the true
  // optimal congestion by more than the documented slack.
  Rng rng(521);
  const Graph g = make_gnp_connected(50, 0.1, {1, 6}, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 6, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  const AlphaEstimate est = estimate_alpha(g, approx, 25, rng);
  EXPECT_GT(est.samples, 0);
  // Lower-bound side: ||Rb|| <= (1 + slack) * opt. Sparsification noise
  // is the only violation source; allow 60%.
  EXPECT_LT(est.lower_violation, 0.6);
  // Upper-bound side: alpha far below the trivial factor n.
  EXPECT_LT(est.alpha, 25.0);
}

TEST(Racke, TreesAreLoadCapacitated) {
  Rng rng(523);
  const Graph g = make_grid(7, 7, {1, 4}, rng);
  RackeOptions options;
  options.num_trees = 4;
  const RackeDistribution dist = build_racke_trees(g, options, rng);
  ASSERT_EQ(dist.trees.size(), 4u);
  for (const RootedTree& tree : dist.trees) {
    tree.validate();
    const std::vector<double> loads = tree_edge_loads(g, tree);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == tree.root) continue;
      EXPECT_NEAR(tree.parent_cap[static_cast<std::size_t>(v)],
                  std::max(loads[static_cast<std::size_t>(v)], 1e-12), 1e-9);
    }
  }
}

TEST(Racke, NeverUnderestimatesCongestion) {
  // With exact load capacities (no sparsifier in the loop), the Räcke
  // trees dominate G's cuts exactly: ||Rb||inf <= opt(b) always.
  Rng rng(541);
  const Graph g = make_gnp_connected(40, 0.12, {1, 8}, rng);
  RackeOptions options;
  options.num_trees = 6;
  const RackeDistribution dist = build_racke_trees(g, options, rng);
  const CongestionApproximator approx(dist.trees);
  const AlphaEstimate est = estimate_alpha(g, approx, 30, rng);
  EXPECT_LT(est.lower_violation, 1e-6);
  EXPECT_GE(est.alpha, 1.0);
}

TEST(Approximator, CongestionNormOnPath) {
  // Path 0-1-2 with caps 4, 2: tree = path itself (capacitated by loads:
  // load = cap on a path). Demand 1 at node 0, -1 at node 2: congestion
  // on link(1->2 side) = 1/2, on link(0->1) = 1/4.
  Graph g(3);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 2.0);
  RootedTree tree = make_tree(2, {1, 2, kInvalidNode});
  tree.parent_cap = {4.0, 2.0, 0.0};
  const CongestionApproximator approx({tree});
  const double norm = approx.congestion_norm({1.0, 0.0, -1.0});
  EXPECT_NEAR(norm, 0.5, 1e-12);
}

TEST(Approximator, ApplyMatchesCongestionNorm) {
  Rng rng(547);
  const Graph g = make_gnp_connected(30, 0.15, {1, 7}, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 4, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  std::vector<double> b(30, 0.0);
  b[2] = 3.0;
  b[17] = -1.0;
  b[29] = -2.0;
  std::vector<double> y;
  std::vector<double> sums;
  approx.apply_into(b, 1.0, y, sums);
  ASSERT_EQ(y.size(), 4u * 30u);
  double max_abs = 0.0;
  for (const double v : y) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_NEAR(max_abs, approx.congestion_norm(b), 1e-9);
}

TEST(Approximator, ApplyScales) {
  Rng rng(557);
  const Graph g = make_grid(5, 5, {1, 3}, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 2, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  const std::vector<double> b = st_demand(25, 0, 24, 1.0);
  std::vector<double> y1;
  std::vector<double> y3;
  std::vector<double> sums;
  approx.apply_into(b, 1.0, y1, sums);
  approx.apply_into(b, 3.0, y3, sums);
  ASSERT_EQ(y1.size(), 2u * 25u);
  ASSERT_EQ(y3.size(), y1.size());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y3[i], 3.0 * y1[i], 1e-9);
  }
}

TEST(Approximator, PotentialsAreRootPathSums) {
  // Hand-built tree: 0 is root; 1,2 children of 0; 3 child of 1.
  RootedTree tree = make_tree(0, {kInvalidNode, 0, 0, 1});
  tree.parent_cap = {0.0, 1.0, 1.0, 1.0};
  const CongestionApproximator approx({tree});
  // Price on links: link(1)=5, link(2)=7, link(3)=11.
  const std::vector<double> price = {0.0, 5.0, 7.0, 11.0};
  std::vector<double> pi;
  std::vector<double> acc;
  approx.potentials_into(price, pi, acc);
  ASSERT_EQ(pi.size(), 4u);
  EXPECT_DOUBLE_EQ(pi[0], 0.0);
  EXPECT_DOUBLE_EQ(pi[1], 5.0);
  EXPECT_DOUBLE_EQ(pi[2], 7.0);
  EXPECT_DOUBLE_EQ(pi[3], 5.0 + 11.0);
}

TEST(Approximator, PotentialsSumOverTrees) {
  RootedTree a = make_tree(0, {kInvalidNode, 0});
  a.parent_cap = {0.0, 1.0};
  RootedTree b = make_tree(1, {1, kInvalidNode});
  b.parent_cap = {1.0, 0.0};
  const CongestionApproximator approx({a, b});
  const std::vector<double> price = {0.0, 2.0, 3.0, 0.0};  // [t*n + v]
  std::vector<double> pi;
  std::vector<double> acc;
  approx.potentials_into(price, pi, acc);
  ASSERT_EQ(pi.size(), 2u);
  EXPECT_DOUBLE_EQ(pi[0], 0.0 + 3.0);
  EXPECT_DOUBLE_EQ(pi[1], 2.0 + 0.0);
}

TEST(Approximator, GradientIdentity) {
  // For any tree-cut i containing edge e=(u,v): the potential difference
  // formulation (Eq. 4) must match direct evaluation of sum_i w_i B_{i,e}.
  Rng rng(563);
  const Graph g = make_gnp_connected(25, 0.2, {1, 5}, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 3, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  // Random link prices, flat [t*n + v].
  const auto price_at = [](int t, NodeId v) {
    return static_cast<std::size_t>(t) * 25 + static_cast<std::size_t>(v);
  };
  std::vector<double> price(static_cast<std::size_t>(approx.num_trees()) * 25);
  for (int t = 0; t < approx.num_trees(); ++t) {
    for (NodeId v = 0; v < 25; ++v) {
      price[price_at(t, v)] = rng.next_double(-1.0, 1.0);
    }
    price[price_at(t, approx.tree(t).root)] = 0.0;
  }
  std::vector<double> pi;
  std::vector<double> acc;
  approx.potentials_into(price, pi, acc);
  // Direct: for edge (u,v), sum over trees of (sum of prices on the
  // u->lca path with sign -1... equivalently pi[v]-pi[u]) — evaluate via
  // brute-force root paths.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    double direct = 0.0;
    for (int t = 0; t < approx.num_trees(); ++t) {
      const RootedTree& tree = approx.tree(t);
      const auto root_path_sum = [&](NodeId x) {
        double s = 0.0;
        while (tree.parent[static_cast<std::size_t>(x)] != kInvalidNode) {
          s += price[price_at(t, x)];
          x = tree.parent[static_cast<std::size_t>(x)];
        }
        return s;
      };
      direct += root_path_sum(ep.v) - root_path_sum(ep.u);
    }
    EXPECT_NEAR(direct,
                pi[static_cast<std::size_t>(ep.v)] -
                    pi[static_cast<std::size_t>(ep.u)],
                1e-9);
  }
}

TEST(Approximator, AlphaEstimateSaneOnBarbell) {
  // The barbell's bridge is the bottleneck cut; the virtual trees must
  // represent it well (it is exactly the kind of cut Räcke trees catch).
  Rng rng(569);
  const Graph g = make_barbell(8, {4, 4}, 2.0, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 6, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  const AlphaEstimate est = estimate_alpha(g, approx, 20, rng);
  EXPECT_LT(est.alpha, 12.0);
}

TEST(Approximator, RoundsAccounting) {
  RootedTree tree = make_tree(0, {kInvalidNode, 0});
  tree.parent_cap = {0.0, 1.0};
  const CongestionApproximator approx({tree});
  EXPECT_GT(approx.rounds_per_application(10), 10.0);
}

// Parameterized: hierarchy samples are valid trees whose cuts dominate
// across families and seeds.
class HierarchyFamilies : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyFamilies, ValidAndCutDominating) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
  Graph g;
  switch (GetParam() % 3) {
    case 0: g = make_gnp_connected(48, 0.1, {1, 6}, rng); break;
    case 1: g = make_grid(7, 7, {1, 6}, rng); break;
    default: g = make_random_regular(48, 4, {1, 6}, rng); break;
  }
  const VirtualTreeSample sample =
      sample_virtual_tree(g, HierarchyOptions{}, rng);
  sample.tree.validate();
  // Every node's virtual link has capacity at least... at least positive;
  // the cut-domination statistics are asserted via estimate_alpha above
  // and measured precisely in E5.
  const CongestionApproximator approx({sample.tree});
  const double norm = approx.congestion_norm(
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0));
  EXPECT_GT(norm, 0.0);
  const double opt = 1.0 / dinic_max_flow_value(g, 0, g.num_nodes() - 1);
  // One tree can overestimate badly but should rarely underestimate:
  EXPECT_LT(norm, opt * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Families, HierarchyFamilies, ::testing::Range(0, 12));

TEST(Hierarchy, ParallelSamplingIsDeterministicAcrossThreadCounts) {
  Rng graph_rng(7001);
  const Graph g = make_gnp_connected(64, 0.09, {1, 8}, graph_rng);
  std::vector<std::vector<VirtualTreeSample>> runs;
  for (const int threads : {1, 2, 4}) {
    HierarchyOptions options;
    options.threads = threads;
    Rng rng(424242);
    runs.push_back(sample_virtual_trees(g, 6, options, rng));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[r][i].tree.root, runs[0][i].tree.root);
      EXPECT_EQ(runs[r][i].tree.parent, runs[0][i].tree.parent);
      EXPECT_EQ(runs[r][i].tree.parent_cap, runs[0][i].tree.parent_cap);
      EXPECT_EQ(runs[r][i].tree.parent_edge, runs[0][i].tree.parent_edge);
      EXPECT_EQ(runs[r][i].levels, runs[0][i].levels);
    }
  }
}

TEST(Hierarchy, SamplingAdvancesCallerRngByOneDrawPerTree) {
  Rng graph_rng(7003);
  const Graph g = make_gnp_connected(40, 0.12, {1, 6}, graph_rng);
  HierarchyOptions options;
  Rng a(99), b(99);
  (void)sample_virtual_trees(g, 5, options, a);
  for (int i = 0; i < 5; ++i) (void)b();
  EXPECT_EQ(a(), b());
}

}  // namespace
}  // namespace dmf
