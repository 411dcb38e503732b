// Tests for the exact max-flow baselines (Dinic, push-relabel), flow
// utilities, and max-weight spanning-tree routing.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/adapters.h"
#include "baselines/dinic.h"
#include "baselines/push_relabel.h"
#include "baselines/tree_routing.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dmf {
namespace {

TEST(Dinic, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  const MaxFlowResult r = dinic_max_flow(CsrGraph(g), 0, 1);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  EXPECT_DOUBLE_EQ(r.edge_flow[0], 5.0);
}

TEST(Dinic, PathBottleneck) {
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(2, 3, 10.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 3.0);
}

TEST(Dinic, ParallelPaths) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(0, 2, 3.0);
  g.add_edge(2, 3, 3.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 5.0);
}

TEST(Dinic, UndirectedEdgeBidirectional) {
  // In an undirected graph, flow can use {1,2} in either direction.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 1, 1.0);  // created "backwards" on purpose
  g.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 3, 0), 1.0);
}

TEST(Dinic, FlowIsConservedAndFeasible) {
  Rng rng(31);
  const Graph g = make_gnp_connected(40, 0.15, {1, 9}, rng);
  const CsrGraph csr(g);
  const MaxFlowResult r = dinic_max_flow(csr, 0, 39);
  EXPECT_TRUE(is_feasible(g, r.edge_flow));
  EXPECT_NEAR(max_conservation_violation(g, r.edge_flow, 0, 39), 0.0, 1e-9);
  EXPECT_NEAR(flow_value(csr, r.edge_flow, 0), r.value, 1e-9);
}

TEST(Dinic, MinCutMatchesFlow) {
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp_connected(30, 0.2, {1, 7}, rng);
    const MinCutResult cut = dinic_min_cut(CsrGraph(g), 0, 29);
    EXPECT_TRUE(cut.source_side[0]);
    EXPECT_FALSE(cut.source_side[29]);
    // Capacity of edges crossing the cut equals the flow value.
    double crossing = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const EdgeEndpoints ep = g.endpoints(e);
      if (cut.source_side[static_cast<std::size_t>(ep.u)] !=
          cut.source_side[static_cast<std::size_t>(ep.v)]) {
        crossing += g.capacity(e);
      }
    }
    EXPECT_NEAR(crossing, cut.capacity, 1e-6);
  }
}

TEST(Dinic, BarbellBridgeLimitsFlow) {
  Rng rng(41);
  const Graph g = make_barbell(8, {10, 10}, 3.0, rng);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(g, 0, 15), 3.0);
}

TEST(Dinic, LayeredBottleneckValue) {
  Rng rng(43);
  NodeId s = 0;
  NodeId t = 0;
  const Graph g = make_layered_bottleneck(6, 5, 1000.0, 12.0, rng, &s, &t);
  EXPECT_NEAR(dinic_max_flow_value(g, s, t), 12.0, 1e-6);
}

TEST(PushRelabel, AgreesWithDinicOnRandomGraphs) {
  Rng rng(47);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = make_gnp_connected(25, 0.2, {1, 10}, rng);
    const NodeId s = 0;
    const NodeId t = g.num_nodes() - 1;
    const double dinic = dinic_max_flow_value(g, s, t);
    const MaxFlowResult pr = push_relabel_max_flow(CsrGraph(g), s, t);
    EXPECT_NEAR(pr.value, dinic, 1e-6) << "trial " << trial;
    EXPECT_TRUE(is_feasible(g, pr.edge_flow, 1e-9));
    EXPECT_NEAR(max_conservation_violation(g, pr.edge_flow, s, t), 0.0, 1e-9);
  }
}

TEST(PushRelabel, AgreesOnGridAndRegular) {
  Rng rng(53);
  const Graph grid = make_grid(6, 6, {1, 5}, rng);
  EXPECT_NEAR(push_relabel_max_flow(CsrGraph(grid), 0, 35).value,
              dinic_max_flow_value(grid, 0, 35), 1e-6);
  const Graph reg = make_random_regular(24, 3, {1, 6}, rng);
  EXPECT_NEAR(push_relabel_max_flow(CsrGraph(reg), 0, 23).value,
              dinic_max_flow_value(reg, 0, 23), 1e-6);
}

TEST(ExactAdapter, AnswersWithTheRequestedBaseline) {
  Rng rng(57);
  const Graph g = make_gnp_connected(30, 0.2, {1, 7}, rng);
  const CsrGraph csr(g);
  const int height = build_bfs_tree(csr, 0).height;
  const double want = dinic_max_flow_value(g, 0, 29);
  for (const SolverKind kind : {SolverKind::kDinic, SolverKind::kPushRelabel}) {
    const MaxFlowApproxResult r = exact_max_flow_adapter(kind, csr, 0, 29,
                                                         height);
    EXPECT_NEAR(r.value, want, 1e-6);
    EXPECT_TRUE(r.converged);
  }
}

TEST(ExactAdapter, RejectsKindsThatAreNotExactBaselines) {
  Rng rng(59);
  const Graph g = make_gnp_connected(20, 0.3, {1, 7}, rng);
  const CsrGraph csr(g);
  // Not an exact s-t solver: an answer of 0 here would be a lie.
  EXPECT_THROW((void)exact_max_flow_adapter(SolverKind::kSherman, csr, 0, 19,
                                            build_bfs_tree(csr, 0).height),
               RequirementError);
}

TEST(FlowUtils, DivergenceSignsAndValue) {
  Graph g(3);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 4.0);
  const std::vector<double> f = {2.0, 2.0};
  const std::vector<double> div = flow_divergence(g, f);
  EXPECT_DOUBLE_EQ(div[0], 2.0);   // source sends 2
  EXPECT_DOUBLE_EQ(div[1], 0.0);   // conserved
  EXPECT_DOUBLE_EQ(div[2], -2.0);  // sink receives 2
  EXPECT_DOUBLE_EQ(flow_value(CsrGraph(g), f, 0), 2.0);
}

TEST(FlowUtils, CongestionAndScaling) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 8.0);
  std::vector<double> f = {4.0, -4.0};
  EXPECT_DOUBLE_EQ(max_congestion(g, f), 2.0);
  EXPECT_FALSE(is_feasible(g, f));
  const double factor = scale_to_feasible(g, f);
  EXPECT_DOUBLE_EQ(factor, 0.5);
  EXPECT_TRUE(is_feasible(g, f));
}

TEST(TreeRouting, MaxWeightTreePrefersHeavyEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 10.0);
  g.add_edge(0, 2, 10.0);
  const RootedTree tree = max_weight_spanning_tree(g, 0);
  // The capacity-1 edge must be excluded.
  for (NodeId v = 0; v < 3; ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) {
      EXPECT_GT(g.capacity(e), 1.0);
    }
  }
}

TEST(TreeRouting, RoutesDemandExactly) {
  Rng rng(59);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp_connected(30, 0.15, {1, 9}, rng);
    const RootedTree tree = max_weight_spanning_tree(g, 0);
    std::vector<double> b(30, 0.0);
    b[3] = 5.0;
    b[17] = -2.0;
    b[29] = -3.0;
    const std::vector<double> flow =
        route_demand_on_spanning_tree(CsrGraph(g), tree, b);
    const std::vector<double> div = flow_divergence(g, flow);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(div[static_cast<std::size_t>(v)],
                  b[static_cast<std::size_t>(v)], 1e-9);
    }
  }
}

TEST(TreeRouting, NonTreeEdgesCarryNoFlow) {
  Rng rng(61);
  const Graph g = make_complete(8, {1, 5}, rng);
  const RootedTree tree = max_weight_spanning_tree(g, 0);
  std::vector<double> b(8, 0.0);
  b[1] = 1.0;
  b[6] = -1.0;
  const std::vector<double> flow =
      route_demand_on_spanning_tree(CsrGraph(g), tree, b);
  std::vector<char> is_tree_edge(static_cast<std::size_t>(g.num_edges()), 0);
  for (NodeId v = 0; v < 8; ++v) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (e != kInvalidEdge) is_tree_edge[static_cast<std::size_t>(e)] = 1;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!is_tree_edge[static_cast<std::size_t>(e)]) {
      EXPECT_DOUBLE_EQ(flow[static_cast<std::size_t>(e)], 0.0);
    }
  }
}

// Property sweep: Dinic value equals push-relabel value across families.
class ExactSolverAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ExactSolverAgreement, ValuesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  Graph g;
  switch (GetParam() % 4) {
    case 0: g = make_gnp_connected(20, 0.25, {1, 8}, rng); break;
    case 1: g = make_grid(5, 4, {1, 8}, rng); break;
    case 2: g = make_tree_plus_chords(20, 8, {1, 8}, rng); break;
    default: g = make_random_regular(20, 4, {1, 8}, rng); break;
  }
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  EXPECT_NEAR(push_relabel_max_flow(CsrGraph(g), s, t).value,
              dinic_max_flow_value(g, s, t), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Families, ExactSolverAgreement,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace dmf
