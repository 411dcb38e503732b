// Tests for the extension features: the paper's binary-search max-flow
// formulation (§2) and approximate min cut from the congestion
// approximator.
#include <gtest/gtest.h>

#include "baselines/dinic.h"
#include "graph/flow.h"
#include "graph/generators.h"
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

}  // namespace
}  // namespace dmf
