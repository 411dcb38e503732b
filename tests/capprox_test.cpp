// Tests for the recursive virtual-tree hierarchy (Theorem 8.10), the
// Räcke full-tree baseline, and the congestion approximator R
// (Lemma 3.3): structure, cut bounds, and operator correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "capprox/racke.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/almost_route.h"
#include "maxflow/sherman.h"
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

// --- Distinct cuts: the slot grouping behind AlmostRoute's phi_2. ---

// Membership of subtree(v) in `tree`, marked explicitly by a DFS.
std::vector<char> subtree_members(const RootedTree& tree,
                                  const std::vector<std::vector<NodeId>>& kids,
                                  NodeId v) {
  std::vector<char> in(static_cast<std::size_t>(tree.num_nodes()), 0);
  std::vector<NodeId> stack = {v};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    in[static_cast<std::size_t>(x)] = 1;
    for (const NodeId c : kids[static_cast<std::size_t>(x)]) {
      stack.push_back(c);
    }
  }
  return in;
}

// Checks every slot's cut against brute force: the slot's subtree and
// its cut's representative subtree are the same node set, no two cuts
// are the same node set, multiplicities count the slots, and a leaf
// slot's cut is {v}.
void expect_exact_grouping(const CongestionApproximator& approx) {
  const auto nn = static_cast<std::size_t>(approx.num_nodes());
  const auto trees = static_cast<std::size_t>(approx.num_trees());
  const CongestionApproximator::CutGroups& cuts = approx.cut_groups();
  ASSERT_EQ(cuts.slot_cut.size(), trees * nn);
  ASSERT_EQ(cuts.multiplicity.size(), cuts.num_cuts());
  ASSERT_EQ(cuts.cap.size(), cuts.num_cuts());
  std::vector<std::vector<std::vector<NodeId>>> kids;
  for (std::size_t t = 0; t < trees; ++t) {
    kids.push_back(tree_children(approx.tree(static_cast<int>(t))));
  }
  const auto members = [&](std::size_t slot) {
    return subtree_members(approx.tree(static_cast<int>(slot / nn)),
                           kids[slot / nn], static_cast<NodeId>(slot % nn));
  };
  std::vector<std::int32_t> counted(cuts.num_cuts(), 0);
  for (std::size_t slot = 0; slot < trees * nn; ++slot) {
    const RootedTree& tree = approx.tree(static_cast<int>(slot / nn));
    const auto v = static_cast<NodeId>(slot % nn);
    const std::int32_t c = cuts.slot_cut[slot];
    if (v == tree.root) {
      EXPECT_EQ(c, -1);
      continue;
    }
    ASSERT_GE(c, 0);
    ASSERT_LT(static_cast<std::size_t>(c), cuts.num_cuts());
    ++counted[static_cast<std::size_t>(c)];
    const std::size_t rep = cuts.rep_slot[static_cast<std::size_t>(c)];
    EXPECT_LE(rep, slot);
    const std::vector<char> mine = members(slot);
    EXPECT_EQ(members(rep), mine) << "slot " << slot << " rep " << rep;
    if (kids[slot / nn][static_cast<std::size_t>(v)].empty()) {
      std::vector<char> single(nn, 0);
      single[static_cast<std::size_t>(v)] = 1;
      EXPECT_EQ(mine, single) << "leaf slot " << slot;
    }
  }
  std::int64_t total = 0;
  std::map<std::vector<char>, std::size_t> seen;
  for (std::size_t c = 0; c < cuts.num_cuts(); ++c) {
    const std::size_t rep = cuts.rep_slot[c];
    EXPECT_EQ(cuts.slot_cut[rep], static_cast<std::int32_t>(c));
    EXPECT_EQ(cuts.multiplicity[c], counted[c]);
    EXPECT_EQ(cuts.cap[c],
              approx.tree(static_cast<int>(rep / nn)).parent_cap[rep % nn]);
    total += cuts.multiplicity[c];
    const auto [it, fresh] = seen.emplace(members(rep), c);
    EXPECT_TRUE(fresh) << "cuts " << it->second << " and " << c
                       << " are one node set";
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(trees * (nn - 1)));
}

TEST(CutGroups, RepresentativesAreExactOnFamilies) {
  Rng rng(8101);
  const std::vector<Graph> graphs = {
      make_path(64, {1, 8}, rng), make_random_tree(96, {1, 8}, rng),
      make_grid(16, 16, {1, 8}, rng),
      make_gnp_connected(256, 4.0 / 256, {1, 8}, rng)};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.num_nodes());
    const CongestionApproximator approx = CongestionApproximator::from_samples(
        sample_virtual_trees(g, 12, HierarchyOptions{}, rng));
    expect_exact_grouping(approx);
  }
}

// The same node set with a different link capacity is a different row
// of R, so it stays a separate cut.
TEST(CutGroups, EqualSetsWithOtherCapacitiesStayApart) {
  Rng rng(8103);
  const Graph g = make_random_tree(40, {1, 8}, rng);
  const RootedTree tree = bfs_spanning_tree(g, 0);
  RootedTree doubled = tree;
  for (double& c : doubled.parent_cap) c *= 2.0;
  const CongestionApproximator same({tree, tree});
  const CongestionApproximator apart({tree, doubled});
  EXPECT_EQ(same.cut_groups().num_cuts(), 39u);
  EXPECT_EQ(apart.cut_groups().num_cuts(), 78u);
  for (const std::int32_t w : same.cut_groups().multiplicity) EXPECT_EQ(w, 2);
  expect_exact_grouping(same);
}

// The GoldenBuild instance (maxflow_test): gnp n=256 with 24 trees.
TEST(CutGroups, GoldenBuildDistinctCutCount) {
  Rng graph_rng(1);
  const Graph g = make_gnp_connected(256, 1.0 / 64, {1, 8}, graph_rng);
  ShermanOptions options;
  options.num_trees = 24;
  Rng rng(1);
  const ShermanHierarchy h(g, options, rng);
  const CongestionApproximator& approx = h.approximator();
  const std::size_t slots = 24u * 255u;
  constexpr std::size_t kDistinctCuts = 1995;
  EXPECT_EQ(approx.cut_groups().num_cuts(), kDistinctCuts);
  EXPECT_LE(2 * approx.cut_groups().num_cuts(), slots);
  expect_exact_grouping(approx);
}

// The grouping is computed on first use; eight threads racing to be
// first must all see one grouping and get the sequential answer bitwise.
TEST(CongestionApproximator, ConcurrentFirstUseGroupsOnce) {
  Rng graph_rng(8107);
  const Graph g = make_gnp_connected(128, 4.0 / 128, {1, 8}, graph_rng);
  Rng rng(8109);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 12, HierarchyOptions{}, rng);
  const CongestionApproximator shared =
      CongestionApproximator::from_samples(samples);
  const CongestionApproximator sequential =
      CongestionApproximator::from_samples(samples);
  const CsrGraph csr(g);
  const std::vector<double> b = st_demand(128, 0, 127, 1.0);
  const AlmostRouteResult expected =
      almost_route(csr, sequential, b, AlmostRouteOptions{});
  constexpr int kThreads = 8;
  std::vector<AlmostRouteResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<std::size_t>(i)] =
          almost_route(csr, shared, b, AlmostRouteOptions{});
    });
  }
  for (std::thread& t : threads) t.join();
  for (const AlmostRouteResult& r : results) {
    EXPECT_EQ(r.iterations, expected.iterations);
    EXPECT_EQ(std::memcmp(&r.potential, &expected.potential, sizeof(double)),
              0);
    ASSERT_EQ(r.flow.size(), expected.flow.size());
    EXPECT_EQ(std::memcmp(r.flow.data(), expected.flow.data(),
                          r.flow.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(shared.cut_groups().slot_cut, sequential.cut_groups().slot_cut);
}

}  // namespace
}  // namespace dmf
