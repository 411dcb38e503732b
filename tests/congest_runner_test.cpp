// CongestRunner through the FlowEngine: round-complexity queries ride
// the same submit()/Ticket session API as every other workload, carry
// RunStats + a RoundLedger breakdown in the outcome, report the solver
// "congest-push-relabel", and cap the simulator's threads at the
// hardware count.
#include <gtest/gtest.h>

#include "baselines/dinic.h"
#include "engine/engine.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dmf {
namespace {

Graph test_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return make_gnp_connected(n, 0.15, {1, 6}, rng);
}

TEST(CongestRunner, SubmitReturnsRunStatsAndLedger) {
  const Graph g = test_graph(20, 191);
  const NodeId sink = g.num_nodes() - 1;
  const double exact = dinic_max_flow_value(g, 0, sink);
  FlowEngine engine(g);
  CongestTicket ticket = engine.submit(CongestQuery{0, sink});
  const Result<CongestRunResult> result = ticket.get();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.solver, "congest-push-relabel");
  EXPECT_NEAR(result->flow_value, exact, 1e-4);
  EXPECT_GT(result->stats.rounds, 0);
  EXPECT_GT(result->stats.messages, 0);
  // Ledger breakdown: the three pulse phases plus termination detection.
  const auto& breakdown = result->ledger.breakdown();
  EXPECT_EQ(breakdown.count("pushrel/phase_a_announce"), 1u);
  EXPECT_EQ(breakdown.count("pushrel/phase_b_push"), 1u);
  EXPECT_EQ(breakdown.count("pushrel/phase_c_apply_relabel"), 1u);
  EXPECT_EQ(breakdown.count("termination/convergecast"), 1u);
  // Phase rounds sum to the simulated rounds.
  const double phase_total = breakdown.at("pushrel/phase_a_announce") +
                             breakdown.at("pushrel/phase_b_push") +
                             breakdown.at("pushrel/phase_c_apply_relabel");
  EXPECT_DOUBLE_EQ(phase_total, static_cast<double>(result->stats.rounds));
  EXPECT_GT(result->ledger.total(), phase_total);
}

TEST(CongestRunner, EngineServesCongestBesideMaxFlow) {
  const Graph g = test_graph(18, 193);
  const NodeId sink = g.num_nodes() - 1;
  FlowEngine engine(g);
  CongestTicket congest_ticket = engine.submit(CongestQuery{0, sink});
  MaxFlowTicket max_flow_ticket = engine.submit(MaxFlowQuery{0, sink});
  const Result<CongestRunResult> congest = congest_ticket.get();
  const Result<MaxFlowApproxResult> max_flow = max_flow_ticket.get();
  ASSERT_TRUE(congest.ok()) << congest.message;
  EXPECT_EQ(congest.solver, "congest-push-relabel");
  ASSERT_TRUE(max_flow.ok()) << max_flow.message;
  // The simulator measures the strawman's rounds; the engine's exact
  // baselines answer small instances with trivial collect-all rounds.
  EXPECT_NEAR(congest.value().flow_value, max_flow.value().value, 1e-4);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_by_solver.at("congest-push-relabel"), 1);
  EXPECT_GE(stats.query_rounds_total, congest.value().stats.rounds);
}

TEST(CongestRunner, InvalidQueriesResolveWithErrorCode) {
  const Graph g = test_graph(12, 197);
  FlowEngine engine(g);
  {
    CongestTicket t = engine.submit(CongestQuery{0, 0});
    const auto r = t.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code, ErrorCode::kInvalidQuery);
  }
  {
    CongestTicket t = engine.submit(CongestQuery{0, g.num_nodes()});
    const auto r = t.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code, ErrorCode::kInvalidQuery);
  }
  {
    CongestQuery q{0, 1};
    q.max_rounds = -1;
    CongestTicket t = engine.submit(q);
    const auto r = t.get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.code, ErrorCode::kInvalidQuery);
  }
}

TEST(CongestRunner, DeterministicAcrossSubmissionAndRepeats) {
  const Graph g = test_graph(16, 199);
  const NodeId sink = g.num_nodes() - 1;
  FlowEngine engine(g);
  CongestTicket a = engine.submit(CongestQuery{0, sink});
  CongestTicket b = engine.submit(CongestQuery{0, sink}, SubmitOptions{5, 0});
  const auto ra = a.get();
  const auto rb = b.get();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->stats.rounds, rb->stats.rounds);
  EXPECT_EQ(ra->stats.messages, rb->stats.messages);
  EXPECT_EQ(ra->stats.transcript_hash, rb->stats.transcript_hash);
  EXPECT_EQ(ra->flow_value, rb->flow_value);
}

TEST(CongestRunner, ServesFromTheCurrentSnapshotAfterMutation) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  FlowEngine engine(std::move(g));
  const auto before = engine.submit(CongestQuery{0, 3}).get();
  ASSERT_TRUE(before.ok());
  EXPECT_NEAR(before->flow_value, 3.0, 1e-4);

  MutationBatch batch;
  batch.set_capacity(0, 5.0);  // widen 0->1
  const GraphVersion v = engine.apply(batch).version;
  ASSERT_TRUE(engine.wait_for_version(v, 30.0));
  const auto after = engine.submit(CongestQuery{0, 3}).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.served_version, v);
  EXPECT_NEAR(after->flow_value, 3.0, 1e-4);  // 1->3 still caps at 2
}

// A thread request far past the hardware is clamped, not handed to
// OpenMP (a huge team crashes libgomp); the run is thread-invariant, so
// the answer matches a sequential one bitwise.
TEST(CongestRunner, HugeThreadRequestIsClampedAndBitwiseEqual) {
  Rng rng(211);
  const Graph g = make_gnp_connected(3000, 0.01, {1, 6}, rng);
  const CsrGraph csr(g);
  CongestQuery query{0, g.num_nodes() - 1};
  query.threads = 1 << 20;
  const CongestRunResult huge = CongestRunner::run(csr, query);
  query.threads = 1;
  const CongestRunResult one = CongestRunner::run(csr, query);
  EXPECT_EQ(huge.stats.transcript_hash, one.stats.transcript_hash);
  EXPECT_EQ(huge.stats.rounds, one.stats.rounds);
  EXPECT_EQ(huge.flow_value, one.flow_value);
}

}  // namespace
}  // namespace dmf
