// Tests for the extension features: approximate min cut from the
// congestion approximator.
#include <gtest/gtest.h>

#include "baselines/dinic.h"
#include "graph/generators.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

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
