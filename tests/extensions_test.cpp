// Tests for the extension features: the paper's binary-search max-flow
// formulation (§2), approximate min cut from the congestion
// approximator, and the accelerated gradient option (footnote 3).
#include <gtest/gtest.h>

#include "baselines/dinic.h"
#include "capprox/racke.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/almost_route.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

TEST(BinarySearchMaxFlow, AgreesWithHomogeneityMethod) {
  Rng rng(901);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = make_gnp_connected(20, 0.25, {1, 8}, rng);
    const NodeId s = 0;
    const NodeId t = 19;
    ShermanOptions options;
    options.epsilon = 0.25;
    const ShermanSolver solver(g, options, rng);
    const MaxFlowApproxResult direct = solver.max_flow(s, t);
    const MaxFlowApproxResult search = solver.max_flow_binary_search(s, t);
    const double exact = dinic_max_flow_value(g, s, t);
    EXPECT_TRUE(is_feasible(g, search.flow, 1e-6));
    EXPECT_GE(search.value, 0.6 * exact);
    EXPECT_LE(search.value, exact * (1.0 + 1e-6));
    // The two formulations agree within the epsilon band.
    EXPECT_NEAR(search.value, direct.value, 0.5 * exact);
  }
}

TEST(BinarySearchMaxFlow, PathBottleneck) {
  Rng rng(907);
  Graph g(4);
  g.add_edge(0, 1, 9.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 9.0);
  ShermanOptions options;
  options.epsilon = 0.2;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult result = solver.max_flow_binary_search(0, 3);
  EXPECT_GE(result.value, 0.75 * 3.0);
  EXPECT_LE(result.value, 3.0 + 1e-9);
}

TEST(ApproxMinCut, IsAValidSeparatingCut) {
  Rng rng(911);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp_connected(30, 0.15, {1, 9}, rng);
    const NodeId s = 0;
    const NodeId t = 29;
    const ShermanSolver solver(g, ShermanOptions{}, rng);
    const ShermanSolver::ApproxMinCut cut = solver.approx_min_cut(s, t);
    EXPECT_TRUE(cut.source_side[static_cast<std::size_t>(s)]);
    EXPECT_FALSE(cut.source_side[static_cast<std::size_t>(t)]);
    // Any separating cut upper-bounds the max flow; the approximator's
    // best cut should be within a modest factor of the true min cut.
    const double exact = dinic_max_flow_value(g, s, t);
    EXPECT_GE(cut.capacity, exact * (1.0 - 1e-9));
    EXPECT_LE(cut.capacity, 6.0 * exact) << "trial " << trial;
  }
}

TEST(ApproxMinCut, FindsTheBarbellBridge) {
  Rng rng(919);
  const Graph g = make_barbell(7, {8, 8}, 2.0, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  const ShermanSolver::ApproxMinCut cut = solver.approx_min_cut(0, 13);
  // The bridge (capacity 2) is the unique min cut; the oracle should
  // find exactly it.
  EXPECT_NEAR(cut.capacity, 2.0, 1e-9);
}

TEST(Acceleration, ConvergesAndRoutesComparably) {
  Rng rng(929);
  const Graph g = make_gnp_connected(40, 0.12, {1, 8}, rng);
  RackeOptions ropt;
  ropt.num_trees = 6;
  const CongestionApproximator approx(
      build_racke_trees(g, ropt, rng).trees);
  const std::vector<double> b =
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0);

  const CsrGraph csr(g);

  AlmostRouteOptions plain;
  plain.epsilon = 0.25;
  plain.alpha = 2.0;
  const AlmostRouteResult slow = almost_route(csr, approx, b, plain);

  AlmostRouteOptions fast = plain;
  fast.accelerate = true;
  const AlmostRouteResult quick = almost_route(csr, approx, b, fast);

  EXPECT_TRUE(slow.converged);
  EXPECT_TRUE(quick.converged);
  // Both must route the bulk of the demand.
  for (const AlmostRouteResult* r : {&slow, &quick}) {
    const std::vector<double> div = flow_divergence(g, r->flow);
    double residual = 0.0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      residual += std::abs(b[static_cast<std::size_t>(v)] -
                           div[static_cast<std::size_t>(v)]);
    }
    EXPECT_LT(residual, 1.0);
  }
  // Momentum should not be slower by more than a small factor (it is
  // usually faster; E7 reports the measured speedup).
  EXPECT_LE(quick.iterations, 2 * slow.iterations);
}

TEST(Acceleration, EndToEndMaxFlowStillCorrect) {
  Rng rng(937);
  const Graph g = make_grid(5, 5, {1, 7}, rng);
  ShermanOptions options;
  options.epsilon = 0.25;
  options.almost_route.accelerate = true;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult result = solver.max_flow(0, 24);
  const double exact = dinic_max_flow_value(g, 0, 24);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
}

}  // namespace
}  // namespace dmf
