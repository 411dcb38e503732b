// Tests for the FlowEngine: a batch submitted all at once matches the
// same queries issued one at a time bitwise, thread count never changes
// results, select_solver sends tiny/exact instances to the exact
// baselines, exact answers charge the trivial rounds on the graph they
// solved, failures resolve with typed ErrorCodes, and engine stats
// account the work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <variant>
#include <vector>

#include "baselines/dinic.h"
#include "congest/ledger.h"
#include "engine/engine.h"
#include "engine/solver_select.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/multi_terminal.h"
#include "util/rng.h"

namespace dmf {
namespace {

EngineOptions small_options(int threads) {
  EngineOptions options;
  options.threads = threads;
  options.sherman.num_trees = 4;  // keep hierarchy builds fast in tests
  options.seed = 20260725;
  return options;
}

std::vector<EngineQuery> mixed_batch(const Graph& g, int pairs, Rng& rng) {
  std::vector<EngineQuery> queries;
  for (int i = 0; i < pairs; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(g.num_nodes())));
    NodeId t = s;
    while (t == s) {
      t = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    }
    queries.push_back(MaxFlowQuery{s, t});
  }
  // One route query: a circulation-free 3-terminal demand.
  std::vector<double> demand(static_cast<std::size_t>(g.num_nodes()), 0.0);
  demand[0] = 2.0;
  demand[static_cast<std::size_t>(g.num_nodes() - 1)] = -1.5;
  demand[static_cast<std::size_t>(g.num_nodes() / 2)] = -0.5;
  queries.push_back(RouteQuery{demand});
  // One multi-terminal query.
  queries.push_back(MultiTerminalQuery{
      {0, 1}, {g.num_nodes() - 1, g.num_nodes() - 2}, 0.0, false});
  return queries;
}

// A resolved query of any kind.
using AnyResult =
    std::variant<Result<MaxFlowApproxResult>, Result<RouteResult>,
                 Result<MultiTerminalMaxFlowResult>, Result<CongestRunResult>>;
using AnyTicket = std::variant<MaxFlowTicket, RouteTicket, MultiTerminalTicket,
                               CongestTicket>;

// Submits every query before resolving any, then resolves them in order.
std::vector<AnyResult> submit_all(FlowEngine& engine,
                                  const std::vector<EngineQuery>& queries) {
  std::vector<AnyTicket> tickets;
  for (const EngineQuery& query : queries) {
    std::visit([&](const auto& q) { tickets.emplace_back(engine.submit(q)); },
               query);
  }
  std::vector<AnyResult> results;
  for (AnyTicket& ticket : tickets) {
    std::visit([&](auto& t) { results.emplace_back(t.get()); }, ticket);
  }
  return results;
}

void expect_same_payload(const MaxFlowApproxResult& a,
                         const MaxFlowApproxResult& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.flow, b.flow);
}
void expect_same_payload(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.flow, b.flow);
}
void expect_same_payload(const MultiTerminalMaxFlowResult& a,
                         const MultiTerminalMaxFlowResult& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.flow, b.flow);
}
void expect_same_payload(const CongestRunResult& a, const CongestRunResult& b) {
  EXPECT_EQ(a.flow_value, b.flow_value);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

// Both results succeeded and agree bitwise (not merely near).
void expect_same(const AnyResult& a, const AnyResult& b) {
  ASSERT_EQ(a.index(), b.index());
  std::visit(
      [&](const auto& x) {
        const auto& y = std::get<std::decay_t<decltype(x)>>(b);
        ASSERT_TRUE(x.ok()) << x.message;
        ASSERT_TRUE(y.ok()) << y.message;
        EXPECT_EQ(x.solver, y.solver);
        expect_same_payload(x.value(), y.value());
      },
      a);
}

TEST(FlowEngine, SubmitAllMatchesOneAtATimeBitwise) {
  Rng rng(11);
  const Graph g = make_gnp_connected(90, 0.07, {1, 9}, rng);
  const std::vector<EngineQuery> queries = mixed_batch(g, 6, rng);

  FlowEngine batch_engine(g, small_options(/*threads=*/1));
  const std::vector<AnyResult> batched = submit_all(batch_engine, queries);

  FlowEngine single_engine(g, small_options(/*threads=*/1));
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same(batched[i], submit_all(single_engine, {queries[i]}).front());
  }
}

TEST(FlowEngine, ThreadCountDoesNotChangeResults) {
  Rng rng(13);
  const Graph g = make_gnp_connected(80, 0.08, {1, 9}, rng);
  const std::vector<EngineQuery> queries = mixed_batch(g, 8, rng);

  FlowEngine one(g, small_options(/*threads=*/1));
  FlowEngine four(g, small_options(/*threads=*/4));
  const std::vector<AnyResult> a = submit_all(one, queries);
  const std::vector<AnyResult> b = submit_all(four, queries);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_same(a[i], b[i]);
}

TEST(FlowEngine, RegistryPicksExactBaselineForTinyInstances) {
  Rng rng(17);
  const Graph g = make_gnp_connected(24, 0.3, {1, 7}, rng);  // n <= cutoff
  FlowEngine engine(g, small_options(1));
  MaxFlowTicket ticket = engine.submit(MaxFlowQuery{0, 23});
  const Result<MaxFlowApproxResult> result = ticket.get();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_NE(result.solver.find("exact"), std::string::npos);
  EXPECT_DOUBLE_EQ(result.value().value, dinic_max_flow_value(g, 0, 23));
  EXPECT_DOUBLE_EQ(result.value().alpha, 1.0);
}

TEST(FlowEngine, ExactFlagForcesBaselineOnLargeInstances) {
  Rng rng(19);
  const Graph g = make_gnp_connected(120, 0.06, {1, 9}, rng);
  FlowEngine engine(g, small_options(1));
  const Result<MaxFlowApproxResult> exact =
      engine.submit(MaxFlowQuery{0, 119, 0.0, true}).get();
  ASSERT_TRUE(exact.ok()) << exact.message;
  EXPECT_NE(exact.solver.find("exact"), std::string::npos);
  const Result<MaxFlowApproxResult> approx =
      engine.submit(MaxFlowQuery{0, 119}).get();
  ASSERT_TRUE(approx.ok()) << approx.message;
  EXPECT_EQ(approx.solver, "sherman-approx");
  // Theorem 1.1 quality: approx within (1 +- slack) of exact.
  EXPECT_GT(approx.value().value, 0.5 * exact.value().value);
  EXPECT_LE(approx.value().value, exact.value().value * (1.0 + 1e-9));
}

TEST(FlowEngine, SelectSolverStandardPolicy) {
  const auto name = [](NodeId n, EdgeId m, double epsilon, bool exact) {
    return std::string(
        solver_name(select_solver(n, m, epsilon, exact, /*cutoff=*/64)));
  };
  EXPECT_EQ(name(2000, 8000, 0.25, false), "sherman-approx");
  EXPECT_EQ(name(50, 200, 0.25, false), "dinic-exact");
  EXPECT_EQ(name(50, 600, 0.25, false), "push-relabel-exact");
  EXPECT_EQ(name(2000, 8000, 0.25, true), "dinic-exact");
  EXPECT_EQ(name(2000, 8000, 1e-9, false), "dinic-exact");
  EXPECT_EQ(select_solver(2000, 8000, 0.25, false, 64), SolverKind::kSherman);
}

// The trivial CONGEST accounting of an exact answer: collect the m edges
// at a leader over a BFS tree from node 0, broadcast m flow values back.
double collect_and_broadcast_rounds(const Graph& g) {
  const CsrGraph csr(g);
  const congest::CostModel cost{.n = static_cast<int>(g.num_nodes()),
                                .diameter = build_bfs_tree(csr, 0).height};
  return 2.0 * cost.pipelined(static_cast<double>(g.num_edges()));
}

// Exact replies charge those rounds on the graph they solved: the
// serving snapshot for s-t max flow (also after a capacity repair and a
// topology rebuild), the super-terminal graph for multi-terminal.
TEST(FlowEngine, ExactRoundsAreCollectAndBroadcastOnTheSolvedGraph) {
  Rng rng(31);
  const Graph g = make_gnp_connected(90, 0.05, {1, 8}, rng);
  FlowEngine engine(g, small_options(1));
  const std::vector<NodeId> sources{0, 1, 2};
  const std::vector<NodeId> sinks{87, 88, 89};
  const auto check_version = [&](GraphVersion version) {
    ASSERT_TRUE(engine.wait_for_version(version, 120.0));
    const Graph& served = *engine.snapshot().graph;
    const Result<MaxFlowApproxResult> st =
        engine.submit(MaxFlowQuery{0, 89, 0.0, true}).get();
    ASSERT_TRUE(st.ok()) << st.message;
    EXPECT_EQ(st.served_version, version);
    EXPECT_EQ(st.value().rounds, collect_and_broadcast_rounds(served));
    const Result<MultiTerminalMaxFlowResult> multi =
        engine.submit(MultiTerminalQuery{sources, sinks, 0.0, true}).get();
    ASSERT_TRUE(multi.ok()) << multi.message;
    EXPECT_EQ(multi.served_version, version);
    EXPECT_EQ(multi.value().rounds,
              collect_and_broadcast_rounds(
                  build_super_terminal_graph(served, sources, sinks).graph));
  };
  check_version(0);

  MutationBatch capacities;
  capacities.set_capacity(0, 11.0);
  check_version(engine.apply(capacities).version);

  // A new leaf hung off the farthest node from 0 deepens the BFS tree,
  // so a height left over from the previous snapshot would show.
  const BfsTree bfs = build_bfs_tree(CsrGraph(g), 0);
  const auto far = static_cast<NodeId>(
      std::max_element(bfs.depth.begin(), bfs.depth.end()) -
      bfs.depth.begin());
  MutationBatch topology;
  topology.add_nodes(1);
  topology.add_edge(far, g.num_nodes(), 3.0);
  check_version(engine.apply(topology).version);
  EXPECT_EQ(build_bfs_tree(*engine.snapshot().csr, 0).height,
            bfs.height + 1);
}

TEST(FlowEngine, RouteQueryRoutesDemandExactly) {
  Rng rng(23);
  const Graph g = make_gnp_connected(70, 0.09, {1, 9}, rng);
  FlowEngine engine(g, small_options(1));
  std::vector<double> demand(70, 0.0);
  demand[3] = 4.0;
  demand[60] = -4.0;
  const Result<RouteResult> result = engine.submit(RouteQuery{demand}).get();
  ASSERT_TRUE(result.ok()) << result.message;
  const std::vector<double> div = flow_divergence(g, result.value().flow);
  for (std::size_t v = 0; v < div.size(); ++v) {
    EXPECT_NEAR(div[v], demand[v], 1e-6);
  }
}

TEST(FlowEngine, FailuresAreTypedNotThrown) {
  Rng rng(29);
  const Graph g = make_gnp_connected(40, 0.15, {1, 5}, rng);
  FlowEngine engine(g, small_options(2));
  // Demand that does not sum to zero must fail that query only.
  std::vector<double> bad(40, 0.0);
  bad[0] = 1.0;
  RouteTicket bad_ticket = engine.submit(RouteQuery{bad});
  MaxFlowTicket good_ticket = engine.submit(MaxFlowQuery{0, 39});
  const Result<RouteResult> failed = bad_ticket.get();
  const Result<MaxFlowApproxResult> served = good_ticket.get();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code, ErrorCode::kInvalidQuery);
  EXPECT_FALSE(failed.message.empty());
  EXPECT_TRUE(served.ok()) << served.message;
  EXPECT_EQ(served.code, ErrorCode::kOk);
  EXPECT_EQ(engine.stats().queries_failed, 1);
  EXPECT_EQ(engine.stats().queries_served, 1);

  // The typed API reports the same taxonomy.
  EXPECT_EQ(engine.submit(MaxFlowQuery{0, 0}).get().code,
            ErrorCode::kInvalidQuery);
  EXPECT_EQ(engine.submit(MaxFlowQuery{0, 999}).get().code,
            ErrorCode::kInvalidQuery);
  EXPECT_EQ(engine.submit(MultiTerminalQuery{{0, 1}, {1, 2}}).get().code,
            ErrorCode::kInvalidQuery);
  EXPECT_EQ(engine.submit(MultiTerminalQuery{{}, {2}}).get().code,
            ErrorCode::kInvalidQuery);
}

// The engine admits a route demand with |sum d| <= 1e-6 * (1 + max |d|)
// and must route every demand it admits, the excess ending at the MWST
// root. The tree stage once scaled its own balance check by |d[0]| and
// answered these with kPreconditionFailed.
TEST(FlowEngine, RoutesEveryDemandItAdmits) {
  Rng rng(1);
  const Graph g = make_grid(12, 12, {1, 64}, rng);  // dmf-serve --grid 12x12
  EngineOptions options;
  options.sherman.num_trees = 6;
  options.seed = 1;
  FlowEngine engine(g, options);
  struct Case {
    double magnitude;
    double imbalance;
    ErrorCode want;
  };
  for (const Case& c : {Case{1e6, 1e-3, ErrorCode::kOk},
                        Case{1e3, 1e-5, ErrorCode::kOk},
                        Case{1e9, 1.0, ErrorCode::kOk},
                        Case{1e6, 10.0, ErrorCode::kInvalidQuery}}) {
    std::vector<double> demand(144, 0.0);
    demand[5] = c.magnitude;
    demand[7] = -c.magnitude + c.imbalance;
    const Result<RouteResult> r = engine.submit(RouteQuery{demand}).get();
    ASSERT_EQ(r.code, c.want) << c.magnitude << " " << r.message;
    if (!r.ok()) continue;
    // Every node but the root receives its demand.
    const std::vector<double> div = flow_divergence(g, r.value().flow);
    int off = 0;
    for (std::size_t v = 0; v < div.size(); ++v) {
      if (std::abs(div[v] - demand[v]) > 1e-6 * c.magnitude) ++off;
    }
    EXPECT_LE(off, 1) << c.magnitude;
    EXPECT_TRUE(std::isfinite(r.value().congestion));
  }
}

// Accuracy and demand values come from outside the process (JSON parses
// 1e999 to +inf). A non-finite or >= 1 epsilon, or a non-finite demand
// entry, is the caller's error — never a silently wrong answer, and never
// a solver-internal message.
TEST(FlowEngine, RejectsNonFiniteOrOutOfRangeEpsilonAndDemand) {
  Rng rng(41);
  const Graph g = make_grid(10, 10, {1, 1}, rng);  // 100 nodes: Sherman
  FlowEngine engine(g, small_options(2));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double epsilon : {inf, -inf, nan, 1.0, 1e300}) {
    const Result<MaxFlowApproxResult> r =
        engine.submit(MaxFlowQuery{0, 99, epsilon}).get();
    EXPECT_EQ(r.code, ErrorCode::kInvalidQuery) << "epsilon=" << epsilon;
    EXPECT_EQ(
        engine.submit(MultiTerminalQuery{{0, 1}, {98, 99}, epsilon}).get().code,
        ErrorCode::kInvalidQuery)
        << "epsilon=" << epsilon;
  }
  // <= 0 still means the engine default, and a valid accuracy serves.
  for (const double epsilon : {0.0, -1.0, 0.5}) {
    const Result<MaxFlowApproxResult> r =
        engine.submit(MaxFlowQuery{0, 99, epsilon}).get();
    ASSERT_TRUE(r.ok()) << "epsilon=" << epsilon << ": " << r.message;
    EXPECT_EQ(r.solver, "sherman-approx");
    EXPECT_GT(r.value().value, 0.0);
  }
  EXPECT_TRUE(
      engine.submit(MultiTerminalQuery{{0, 1}, {98, 99}, -1.0}).get().ok());

  for (const double bad : {inf, -inf, nan}) {
    std::vector<double> demand(100, 0.0);
    demand[0] = bad;
    demand[99] = -bad;
    const Result<RouteResult> r = engine.submit(RouteQuery{demand}).get();
    EXPECT_EQ(r.code, ErrorCode::kInvalidQuery) << "entry=" << bad;
    EXPECT_EQ(r.message, "route query: demand entries must be finite");
  }
}

TEST(FlowEngine, StatsAmortizeBuildOverQueries) {
  Rng rng(31);
  const Graph g = make_gnp_connected(60, 0.1, {1, 9}, rng);
  FlowEngine engine(g, small_options(1));
  EXPECT_GT(engine.stats().build_rounds, 0.0);
  EXPECT_EQ(engine.stats().num_trees, 4);
  std::vector<EngineQuery> queries;
  for (int i = 1; i <= 10; ++i) {
    queries.push_back(MaxFlowQuery{0, static_cast<NodeId>(59 - i % 7)});
  }
  (void)submit_all(engine, queries);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries_served, 10);
  EXPECT_LE(stats.amortized_build_seconds_per_query(),
            stats.build_seconds + 1e-12);
  EXPECT_GT(stats.query_seconds_total, 0.0);
}

TEST(FlowEngine, EngineIsMovable) {
  Rng rng(37);
  const Graph g = make_gnp_connected(50, 0.12, {1, 9}, rng);
  FlowEngine original(g, small_options(1));
  const Result<MaxFlowApproxResult> before =
      original.submit(MaxFlowQuery{0, 49}).get();
  ASSERT_TRUE(before.ok()) << before.message;

  FlowEngine moved(std::move(original));
  const Result<MaxFlowApproxResult> after =
      moved.submit(MaxFlowQuery{0, 49}).get();
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_EQ(before.value().value, after.value().value);
  EXPECT_EQ(before.value().flow, after.value().flow);

  FlowEngine assigned(make_path(5, {1, 1}, rng), small_options(1));
  assigned = std::move(moved);
  const Result<MaxFlowApproxResult> reassigned =
      assigned.submit(MaxFlowQuery{0, 49}).get();
  ASSERT_TRUE(reassigned.ok()) << reassigned.message;
  EXPECT_EQ(before.value().value, reassigned.value().value);
}

}  // namespace
}  // namespace dmf
