// Cross-module property tests: end-to-end invariants of the pipeline
// that must hold on *every* instance, swept over families, seeds, and
// demand shapes with parameterized suites.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

Graph family_graph(int id, NodeId n, Rng& rng) {
  switch (id % 5) {
    case 0: return make_gnp_connected(n, 4.0 / n, {1, 9}, rng);
    case 1: return make_grid(6, static_cast<int>(n) / 6, {1, 9}, rng);
    case 2: return make_tree_plus_chords(n, n / 3, {1, 9}, rng);
    case 3: return make_random_regular((n % 2) ? n + 1 : n, 4, {1, 9}, rng);
    default: return make_caterpillar(static_cast<int>(n) / 4, 3, {1, 9}, rng);
  }
}

// --- Property: virtual tree link capacities equal their cut loads. ---
// After exact-load recapacitation, parent_cap[v] must equal the total
// capacity of graph edges crossing subtree(v) — verified by brute force.
class TreeCutCapacities : public ::testing::TestWithParam<int> {};

TEST_P(TreeCutCapacities, LinkCapEqualsCutCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 71);
  const Graph g = family_graph(GetParam(), 36, rng);
  const VirtualTreeSample sample =
      sample_virtual_tree(g, HierarchyOptions{}, rng);
  const RootedTree& tree = sample.tree;
  const auto children = tree_children(tree);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == tree.root) continue;
    // Collect subtree(v).
    std::vector<char> inside(static_cast<std::size_t>(g.num_nodes()), 0);
    std::vector<NodeId> stack = {v};
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      inside[static_cast<std::size_t>(x)] = 1;
      for (const NodeId c : children[static_cast<std::size_t>(x)]) {
        stack.push_back(c);
      }
    }
    double cut = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const EdgeEndpoints ep = g.endpoints(e);
      if (inside[static_cast<std::size_t>(ep.u)] !=
          inside[static_cast<std::size_t>(ep.v)]) {
        cut += g.capacity(e);
      }
    }
    EXPECT_NEAR(tree.parent_cap[static_cast<std::size_t>(v)],
                std::max(cut, 1e-12), 1e-6 * (1.0 + cut))
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, TreeCutCapacities, ::testing::Range(0, 10));

// --- Property: ||Rb|| is a true lower bound on optimal congestion. ---
// For s-t demands opt is exact via Dinic; with exact tree-cut
// capacities the inequality must hold with no slack in either direction
// of the sandwich: norm <= opt.
class NormLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(NormLowerBound, NeverOverestimatesCongestion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1117 + 5);
  const Graph g = family_graph(GetParam(), 40, rng);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 5, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  for (int q = 0; q < 6; ++q) {
    const auto s = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    auto t = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    if (s == t) t = (t + 1) % g.num_nodes();
    const double opt = 1.0 / dinic_max_flow_value(g, s, t);
    const double norm =
        approx.congestion_norm(st_demand(g.num_nodes(), s, t, 1.0));
    EXPECT_LE(norm, opt * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Families, NormLowerBound, ::testing::Range(0, 10));

// --- Property: route() conserves arbitrary multi-terminal demands. ---
class RouteConservation : public ::testing::TestWithParam<int> {};

TEST_P(RouteConservation, ExactForRandomDemands) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2129 + 13);
  const Graph g = family_graph(GetParam(), 30, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  // Random zero-sum demand over a random subset of terminals.
  std::vector<double> b(static_cast<std::size_t>(g.num_nodes()), 0.0);
  const int terminals = 2 + static_cast<int>(rng.next_below(5));
  double sum = 0.0;
  for (int i = 0; i < terminals; ++i) {
    const auto v = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    const double d = rng.next_double(-3.0, 3.0);
    b[static_cast<std::size_t>(v)] += d;
    sum += d;
  }
  b[0] -= sum;  // make it zero-sum
  const RouteResult result = solver.route(b);
  const std::vector<double> div = flow_divergence(g, result.flow);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(div[static_cast<std::size_t>(v)],
                b[static_cast<std::size_t>(v)], 1e-6)
        << "node " << v;
  }
  // The congestion must be at least the approximator's lower bound.
  EXPECT_GE(result.congestion * (1.0 + 1e-9),
            solver.approximator().congestion_norm(b));
}

INSTANTIATE_TEST_SUITE_P(Families, RouteConservation, ::testing::Range(0, 10));

// --- Property: max-flow value sandwich. ---
// value <= OPT always (feasible flow), value >= (1-2eps)·OPT with our
// small-scale slack.
class ValueSandwich : public ::testing::TestWithParam<int> {};

TEST_P(ValueSandwich, Holds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3331 + 7);
  const Graph g = family_graph(GetParam(), 24, rng);
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  const double exact = dinic_max_flow_value(g, s, t);
  const MaxFlowApproxResult result = approx_max_flow(g, s, t, 0.3, rng);
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
  EXPECT_GE(result.value, 0.5 * exact);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Families, ValueSandwich, ::testing::Range(0, 10));

// --- Failure injection: malformed inputs must throw, not corrupt. ---
TEST(FailureInjection, ApproximatorSizeMismatches) {
  RootedTree tree = make_tree(0, {kInvalidNode, 0});
  tree.parent_cap = {0.0, 1.0};
  const CongestionApproximator approx({tree});
  EXPECT_THROW((void)approx.congestion_norm({1.0}), RequirementError);
  std::vector<double> out;
  std::vector<double> workspace;
  EXPECT_THROW(approx.apply_into({1.0, -1.0, 0.0}, 1.0, out, workspace),
               RequirementError);
  EXPECT_THROW(approx.potentials_into({}, out, workspace), RequirementError);
}

TEST(FailureInjection, NonPositiveTreeCapacityRejected) {
  RootedTree tree = make_tree(0, {kInvalidNode, 0});
  tree.parent_cap = {0.0, 0.0};  // zero capacity on a link
  EXPECT_THROW(CongestionApproximator({tree}), RequirementError);
}

TEST(FailureInjection, HierarchyRejectsDisconnected) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  Rng rng(1);
  EXPECT_THROW(sample_virtual_tree(g, HierarchyOptions{}, rng),
               RequirementError);
}

TEST(FailureInjection, AlmostRouteBadEpsilon) {
  Rng rng(2);
  const Graph g = make_path(3, {1, 1}, rng);
  const VirtualTreeSample sample =
      sample_virtual_tree(g, HierarchyOptions{}, rng);
  const CongestionApproximator approx({sample.tree});
  const CsrGraph csr(g);
  AlmostRouteOptions options;
  options.epsilon = 0.0;
  EXPECT_THROW(almost_route(csr, approx, {1.0, 0.0, -1.0}, options),
               RequirementError);
  options.epsilon = 2.0;
  EXPECT_THROW(almost_route(csr, approx, {1.0, 0.0, -1.0}, options),
               RequirementError);
}

// A non-finite alpha is rejected, not clamped. Unchecked, a NaN became
// 1.0 and +inf scaled b to 0, so the descent spun through every rescale
// iteration and returned converged = false.
TEST(FailureInjection, AlmostRouteNonFiniteAlpha) {
  Rng rng(2);
  const Graph g = make_path(3, {1, 1}, rng);
  const VirtualTreeSample sample =
      sample_virtual_tree(g, HierarchyOptions{}, rng);
  const CongestionApproximator approx({sample.tree});
  const CsrGraph csr(g);
  for (const double alpha : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    AlmostRouteOptions options;
    options.alpha = alpha;
    EXPECT_THROW(almost_route(csr, approx, {1.0, 0.0, -1.0}, options),
                 RequirementError);
    ShermanOptions sherman;
    sherman.alpha = alpha;
    EXPECT_THROW(ShermanSolver(g, sherman, rng), RequirementError);
  }
}

TEST(FailureInjection, DemandSizeMismatch) {
  Rng rng(3);
  const Graph g = make_path(4, {1, 1}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  EXPECT_THROW(solver.route({1.0, -1.0}), RequirementError);
}

// --- Determinism: the whole pipeline is seed-reproducible. ---
TEST(Determinism, SameSeedSameFlow) {
  const auto run = [] {
    Rng rng(424242);
    const Graph g = make_gnp_connected(24, 0.2, {1, 7}, rng);
    return approx_max_flow(g, 0, 23, 0.3, rng);
  };
  const MaxFlowApproxResult a = run();
  const MaxFlowApproxResult b = run();
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.gradient_iterations, b.gradient_iterations);
  EXPECT_EQ(a.flow, b.flow);
}

TEST(Determinism, DifferentSeedsUsuallyDiffer) {
  Rng rng1(1);
  Rng rng2(2);
  const Graph g = [] {
    Rng rng(5);
    return make_gnp_connected(24, 0.2, {1, 7}, rng);
  }();
  const VirtualTreeSample a = sample_virtual_tree(g, HierarchyOptions{}, rng1);
  const VirtualTreeSample b = sample_virtual_tree(g, HierarchyOptions{}, rng2);
  EXPECT_NE(a.tree.parent, b.tree.parent);
}

}  // namespace
}  // namespace dmf
