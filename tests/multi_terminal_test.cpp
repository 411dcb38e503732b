// Tests for the multi-source / multi-sink wrapper.
#include <gtest/gtest.h>

#include <string>

#include "baselines/dinic.h"
#include "engine/result.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/multi_terminal.h"
#include "util/rng.h"

namespace dmf {
namespace {

// Exact multi-terminal reference via the same reduction + Dinic.
double exact_multi(const Graph& g, const std::vector<NodeId>& sources,
                   const std::vector<NodeId>& sinks) {
  Graph augmented(g.num_nodes() + 2);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    augmented.add_edge(ep.u, ep.v, g.capacity(e));
  }
  const NodeId super_s = g.num_nodes();
  const NodeId super_t = g.num_nodes() + 1;
  const CsrGraph csr(g);
  for (const NodeId s : sources) {
    augmented.add_edge(super_s, s, std::max(1e-9, csr.weighted_degree(s)));
  }
  for (const NodeId t : sinks) {
    augmented.add_edge(t, super_t, std::max(1e-9, csr.weighted_degree(t)));
  }
  return dinic_max_flow_value(augmented, super_s, super_t);
}

TEST(MultiTerminal, SingleSourceSinkMatchesPlain) {
  Rng rng(1103);
  const Graph g = make_gnp_connected(20, 0.25, {1, 8}, rng);
  const double exact = dinic_max_flow_value(g, 0, 19);
  const MultiTerminalMaxFlowResult result =
      approx_max_flow_multi(g, {0}, {19}, 0.25, rng);
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
}

TEST(MultiTerminal, TwoSourcesTwoSinks) {
  Rng rng(1109);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = make_gnp_connected(24, 0.2, {1, 8}, rng);
    const std::vector<NodeId> sources = {0, 1};
    const std::vector<NodeId> sinks = {22, 23};
    const double exact = exact_multi(g, sources, sinks);
    const MultiTerminalMaxFlowResult result =
        approx_max_flow_multi(g, sources, sinks, 0.25, rng);
    EXPECT_GE(result.value, 0.55 * exact) << "trial " << trial;
    EXPECT_LE(result.value, exact * (1.0 + 1e-6));
    // The projected flow stays feasible on the original edges and the
    // divergence is nonzero only at terminals.
    EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
    const std::vector<double> div = flow_divergence(g, result.flow);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const bool terminal = (v == 0 || v == 1 || v == 22 || v == 23);
      if (!terminal) {
        EXPECT_NEAR(div[static_cast<std::size_t>(v)], 0.0, 1e-6)
            << "node " << v;
      }
    }
    // Net out of the sources equals net into the sinks equals the value.
    const double out_total = div[0] + div[1];
    EXPECT_NEAR(out_total, result.value, 1e-6);
    EXPECT_NEAR(div[22] + div[23], -result.value, 1e-6);
  }
}

TEST(MultiTerminal, MoreTerminalsMoreFlow) {
  Rng rng(1117);
  const Graph g = make_grid(6, 6, {1, 5}, rng);
  const MultiTerminalMaxFlowResult one =
      approx_max_flow_multi(g, {0}, {35}, 0.3, rng);
  const MultiTerminalMaxFlowResult many =
      approx_max_flow_multi(g, {0, 5}, {30, 35}, 0.3, rng);
  // Adding terminals cannot reduce the achievable throughput (up to
  // approximation noise).
  EXPECT_GE(many.value, one.value * 0.8);
}

TEST(MultiTerminal, RejectsBadTerminalSets) {
  Rng rng(1123);
  const Graph g = make_path(5, {1, 1}, rng);
  EXPECT_THROW(approx_max_flow_multi(g, {}, {4}, 0.3, rng),
               RequirementError);
  EXPECT_THROW(approx_max_flow_multi(g, {1}, {1, 4}, 0.3, rng),
               RequirementError);
  EXPECT_THROW(approx_max_flow_multi(g, {9}, {4}, 0.3, rng),
               RequirementError);
}

TEST(MultiTerminal, RejectsIsolatedTerminals) {
  // Node 3 has no incident edges: the old code gave its virtual edge a
  // 1e-9 capacity and reported a meaningless near-zero flow; now it is
  // rejected with a classifiable error.
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  try {
    build_super_terminal_graph(g, {0}, {3});
    FAIL() << "isolated sink was accepted";
  } catch (const RequirementError& e) {
    EXPECT_NE(std::string(e.what()).find("isolated terminal"),
              std::string::npos);
    EXPECT_EQ(classify_error(e), ErrorCode::kIsolatedTerminal);
  }
  EXPECT_THROW(build_super_terminal_graph(g, {3}, {2}), RequirementError);
  // Non-isolated terminals still work, with full-weighted-degree virtual
  // edges.
  const SuperTerminalGraph st = build_super_terminal_graph(g, {0}, {2});
  EXPECT_EQ(st.graph.num_edges(), g.num_edges() + 2);
  EXPECT_DOUBLE_EQ(st.graph.capacity(g.num_edges()), 2.0);      // deg(0)
  EXPECT_DOUBLE_EQ(st.graph.capacity(g.num_edges() + 1), 3.0);  // deg(2)
}

TEST(MultiTerminal, CanonicalTerminalsSortAndDeduplicate) {
  EXPECT_EQ(canonical_terminals({3, 1, 2, 1, 3}),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(canonical_terminals({}), std::vector<NodeId>{});
}

TEST(MultiTerminal, TerminalOrderDoesNotChangeResult) {
  Rng graph_rng(1129);
  const Graph g = make_gnp_connected(24, 0.2, {1, 8}, graph_rng);
  Rng rng_forward(777);
  Rng rng_permuted(777);
  const MultiTerminalMaxFlowResult forward =
      approx_max_flow_multi(g, {0, 1}, {22, 23}, 0.25, rng_forward);
  const MultiTerminalMaxFlowResult permuted =
      approx_max_flow_multi(g, {1, 0}, {23, 22}, 0.25, rng_permuted);
  EXPECT_EQ(forward.value, permuted.value);
  EXPECT_EQ(forward.flow, permuted.flow);
}

}  // namespace
}  // namespace dmf
