// Tests for the sharded execution path: the engine-level contract —
// results bitwise identical at every shard count, across every kind of
// snapshot swap, replay-store hit accounting for every query kind,
// min_version parking on the sharded backend. The lane mechanics
// themselves are WorkerPool cases in session_test.
#include <gtest/gtest.h>

#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "util/rng.h"

namespace dmf {
namespace {

// --- engine-level sharding ---------------------------------------------------

EngineOptions shard_options(int shards) {
  EngineOptions options;
  options.shards = shards;
  options.threads = 2;
  options.sherman.num_trees = 4;
  options.seed = 42424242;
  options.exact_cutoff_nodes = 16;
  return options;
}

struct CollectedResults {
  std::vector<Result<MaxFlowApproxResult>> max_flows;
  Result<RouteResult> route;
  Result<MultiTerminalMaxFlowResult> multi;
  Result<CongestRunResult> congest;
};

// One route, one multi-terminal and one CONGEST query on `g`.
struct MixedQueries {
  RouteQuery route;
  MultiTerminalQuery multi;
  CongestQuery congest;
};

MixedQueries mixed_queries(const Graph& g) {
  const NodeId last = g.num_nodes() - 1;
  MixedQueries out;
  out.route.demand.assign(static_cast<std::size_t>(g.num_nodes()), 0.0);
  out.route.demand.front() = 2.0;
  out.route.demand.back() = -2.0;
  out.multi = MultiTerminalQuery{{0, 1, 2}, {last - 1, last}, 0.0, false};
  out.congest = CongestQuery{0, last, 0, 1};
  return out;
}

CollectedResults run_workload(FlowEngine& engine, const Graph& g,
                              const std::vector<MaxFlowQuery>& queries,
                              const std::vector<std::size_t>& order) {
  const MixedQueries mixed = mixed_queries(g);
  CollectedResults out;
  std::vector<MaxFlowTicket> tickets(queries.size());
  RouteTicket route_ticket = engine.submit(mixed.route);
  MultiTerminalTicket multi_ticket = engine.submit(mixed.multi);
  CongestTicket congest_ticket = engine.submit(mixed.congest);
  for (const std::size_t i : order) {
    tickets[i] = engine.submit(queries[i]);
  }
  for (MaxFlowTicket& t : tickets) out.max_flows.push_back(t.get());
  out.route = route_ticket.get();
  out.multi = multi_ticket.get();
  out.congest = congest_ticket.get();
  return out;
}

// The acceptance-criterion property: results are bitwise identical at
// every shard count (0 = the classic pool) under submission-order
// permutation, including repeated queries that the sharded backend
// serves from its replay store.
TEST(FlowEngineSharded, ShardCountAndPermutationBitwiseDeterminism) {
  Rng rng(909);
  const Graph g = make_gnp_connected(70, 0.09, {1, 9}, rng);
  std::vector<MaxFlowQuery> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(
        MaxFlowQuery{static_cast<NodeId>(i), static_cast<NodeId>(69 - i)});
  }
  // Repeats: the sharded backend replays these from the result store —
  // the replay must be indistinguishable from recomputation.
  for (int i = 0; i < 3; ++i) {
    queries.push_back(queries[static_cast<std::size_t>(i)]);
  }

  std::vector<std::size_t> natural(queries.size());
  for (std::size_t i = 0; i < natural.size(); ++i) natural[i] = i;

  CollectedResults reference;
  {
    FlowEngine engine(g, shard_options(0));
    reference = run_workload(engine, g, queries, natural);
  }
  for (const auto& r : reference.max_flows) ASSERT_TRUE(r.ok()) << r.message;
  ASSERT_TRUE(reference.route.ok()) << reference.route.message;
  ASSERT_TRUE(reference.multi.ok()) << reference.multi.message;
  ASSERT_TRUE(reference.congest.ok()) << reference.congest.message;

  Rng shuffle_rng(345);
  for (const int shards : {1, 2, 3, 4}) {
    for (int round = 0; round < 2; ++round) {
      std::vector<std::size_t> perm = natural;
      if (round > 0) shuffle_rng.shuffle(perm);
      FlowEngine engine(g, shard_options(shards));
      const CollectedResults got = run_workload(engine, g, queries, perm);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_TRUE(got.max_flows[i].ok()) << got.max_flows[i].message;
        EXPECT_EQ(got.max_flows[i].solver, reference.max_flows[i].solver);
        EXPECT_EQ(got.max_flows[i].value().value,
                  reference.max_flows[i].value().value)
            << "shards=" << shards << " round=" << round << " query=" << i;
        EXPECT_EQ(got.max_flows[i].value().flow,
                  reference.max_flows[i].value().flow);
      }
      ASSERT_TRUE(got.route.ok()) << got.route.message;
      EXPECT_EQ(got.route.value().flow, reference.route.value().flow);
      EXPECT_EQ(got.route.value().congestion,
                reference.route.value().congestion);
      ASSERT_TRUE(got.multi.ok()) << got.multi.message;
      EXPECT_EQ(got.multi.value().value, reference.multi.value().value);
      EXPECT_EQ(got.multi.value().flow, reference.multi.value().flow);
      ASSERT_TRUE(got.congest.ok()) << got.congest.message;
      EXPECT_EQ(got.congest.value().flow_value,
                reference.congest.value().flow_value);
      EXPECT_EQ(got.congest.value().stats.rounds,
                reference.congest.value().stats.rounds);
    }
  }
}

// Across a capacity-only swap (incremental repair), a node-only publish
// that cannot serve, and a topology swap (full rebuild), the sharded
// engine answers bitwise like an unsharded one on the same store.
TEST(FlowEngineSharded, AssignmentFollowsCapacityNodeAndTopologySwaps) {
  Rng rng(11);
  auto store =
      std::make_shared<GraphStore>(make_gnp_connected(60, 0.1, {1, 8}, rng));
  FlowEngine sharded(store, shard_options(2));
  FlowEngine unsharded(store, shard_options(0));

  const auto check_serving = [&](GraphVersion expected) {
    ASSERT_EQ(sharded.serving_version(), expected);
    ASSERT_EQ(unsharded.serving_version(), expected);
    const Graph& g = *sharded.snapshot().graph;

    std::vector<MaxFlowQuery> queries;
    for (NodeId i = 0; i < 4; ++i) {
      queries.push_back(MaxFlowQuery{i, g.num_nodes() - 1 - i});
    }
    std::vector<std::size_t> order(queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const CollectedResults want = run_workload(unsharded, g, queries, order);
    const CollectedResults got = run_workload(sharded, g, queries, order);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(got.max_flows[i].ok()) << got.max_flows[i].message;
      ASSERT_TRUE(want.max_flows[i].ok()) << want.max_flows[i].message;
      EXPECT_EQ(got.max_flows[i].served_version, expected);
      EXPECT_EQ(got.max_flows[i].value().value,
                want.max_flows[i].value().value);
      EXPECT_EQ(got.max_flows[i].value().flow,
                want.max_flows[i].value().flow);
    }
    ASSERT_TRUE(got.route.ok() && want.route.ok()) << got.route.message;
    EXPECT_EQ(got.route.value().flow, want.route.value().flow);
    ASSERT_TRUE(got.multi.ok() && want.multi.ok()) << got.multi.message;
    EXPECT_EQ(got.multi.value().value, want.multi.value().value);
    EXPECT_EQ(got.multi.value().flow, want.multi.value().flow);
    ASSERT_TRUE(got.congest.ok() && want.congest.ok());
    EXPECT_EQ(got.congest.value().flow_value,
              want.congest.value().flow_value);
  };
  // Publish through the sharded engine; the unsharded one picks the
  // same version up from the shared store.
  const auto apply = [&](const MutationBatch& batch) {
    const GraphVersion v = sharded.apply(batch).version;
    unsharded.refresh();
    const bool a = sharded.wait_for_version(v, 60.0);
    const bool b = unsharded.wait_for_version(v, 60.0);
    EXPECT_EQ(a, b);
    return a;
  };
  check_serving(0);

  // Capacity-only: the refresh repairs the serving hierarchy.
  ASSERT_TRUE(apply(MutationBatch{}.set_capacity(0, 5.0).set_capacity(7, 0.5)));
  EXPECT_EQ(sharded.stats().rebuild.repairs_completed, 1);
  check_serving(1);

  // Node-only: the new nodes are isolated, so the full rebuild cannot
  // serve the snapshot. Both engines keep serving version 1.
  EXPECT_FALSE(apply(MutationBatch{}.add_nodes(3)));
  check_serving(1);

  // Topology: wiring the new nodes in makes the snapshot servable.
  ASSERT_TRUE(apply(MutationBatch{}
                        .add_edge(60, 0, 2.0)
                        .add_edge(61, 60, 1.5)
                        .add_edge(62, 61, 3.0)
                        .add_edge(62, 30, 1.0)));
  EXPECT_EQ(sharded.snapshot().graph->num_nodes(), 63);
  check_serving(3);
}

TEST(FlowEngineSharded, ReplayStoreHitAccountingAndBitwiseReplay) {
  Rng rng(505);
  const Graph g = make_gnp_connected(60, 0.1, {1, 9}, rng);
  FlowEngine engine(g, shard_options(2));
  const MaxFlowQuery q{3, 57};
  // Sequential resolution guarantees each later submission sees the
  // earlier result in the shard's store (same content -> same lane).
  std::vector<Result<MaxFlowApproxResult>> results;
  for (int i = 0; i < 5; ++i) {
    results.push_back(engine.submit(q).get());
    ASSERT_TRUE(results.back().ok()) << results.back().message;
  }
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].value().value,
              results[0].value().value);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].value().flow,
              results[0].value().flow);
    EXPECT_EQ(results[static_cast<std::size_t>(i)].solver,
              results[0].solver);
  }
  engine.wait_all();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.num_shards, 2);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.result_store_misses, 1);
  EXPECT_EQ(stats.result_store_hits, 4);
  EXPECT_EQ(stats.queries_served, 5);  // replayed queries count as served
}

// Content routing sends every repeat of a route, multi-terminal or
// CONGEST query to the lane that stored its first answer, so each repeat
// replays — bitwise equal to what an unsharded engine computes.
TEST(FlowEngineSharded, RouteMultiTerminalAndCongestRepeatsReplay) {
  Rng rng(606);
  const Graph g = make_gnp_connected(80, 0.08, {1, 9}, rng);
  const MixedQueries mixed = mixed_queries(g);
  FlowEngine reference(g, shard_options(0));
  const Result<RouteResult> want_route = reference.submit(mixed.route).get();
  const Result<MultiTerminalMaxFlowResult> want_multi =
      reference.submit(mixed.multi).get();
  const Result<CongestRunResult> want_congest =
      reference.submit(mixed.congest).get();
  ASSERT_TRUE(want_route.ok()) << want_route.message;
  ASSERT_TRUE(want_multi.ok()) << want_multi.message;
  ASSERT_TRUE(want_congest.ok()) << want_congest.message;

  FlowEngine engine(g, shard_options(3));
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    // Sequential resolution: each repeat sees the first answer stored.
    const Result<RouteResult> route = engine.submit(mixed.route).get();
    const Result<MultiTerminalMaxFlowResult> multi =
        engine.submit(mixed.multi).get();
    const Result<CongestRunResult> congest = engine.submit(mixed.congest).get();
    ASSERT_TRUE(route.ok()) << route.message;
    ASSERT_TRUE(multi.ok()) << multi.message;
    ASSERT_TRUE(congest.ok()) << congest.message;
    EXPECT_EQ(route.value().flow, want_route.value().flow);
    EXPECT_EQ(route.value().congestion, want_route.value().congestion);
    EXPECT_EQ(multi.value().value, want_multi.value().value);
    EXPECT_EQ(multi.value().flow, want_multi.value().flow);
    EXPECT_EQ(congest.value().flow_value, want_congest.value().flow_value);
    EXPECT_EQ(congest.value().stats.rounds, want_congest.value().stats.rounds);
  }
  // get() returns at result delivery; the lane's executed counter lands
  // just after. wait_all() orders the sample behind it.
  engine.wait_all();
  const EngineStats stats = engine.stats();
  ASSERT_EQ(stats.shards.size(), 3u);
  EXPECT_EQ(stats.result_store_misses, 3);
  EXPECT_EQ(stats.result_store_hits, 3 * (kRounds - 1));
  std::int64_t executed = 0;
  for (const ShardStats& shard : stats.shards) executed += shard.executed;
  EXPECT_EQ(executed, 3 * kRounds);
}

TEST(FlowEngineSharded, MinVersionParkingAndMutationOnShardedBackend) {
  Rng rng(707);
  FlowEngine engine(
      std::make_shared<GraphStore>(make_gnp_connected(50, 0.12, {1, 9}, rng)),
      shard_options(2));
  const Result<MaxFlowApproxResult> before =
      engine.submit(MaxFlowQuery{0, 49}).get();
  ASSERT_TRUE(before.ok()) << before.message;
  EXPECT_EQ(before.served_version, 0u);

  MutationBatch update;
  update.set_capacity(0, 7.0);
  const GraphVersion v = engine.apply(update).version;
  SubmitOptions fresh_only;
  fresh_only.min_version = v;
  MaxFlowTicket probe = engine.submit(MaxFlowQuery{0, 49}, fresh_only);
  ASSERT_TRUE(engine.wait_for_version(v, 30.0));
  const Result<MaxFlowApproxResult> after = probe.get();
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_GE(after.served_version, v);
  const EngineStats stats = engine.stats();
  // The probe parks only if it outran the rebuild — timing-dependent on
  // a loaded box — so assert the bound, not the exact count.
  EXPECT_LE(stats.queries_parked, 1);
  EXPECT_GE(stats.rebuild.completed, 1);
}

TEST(FlowEngineSharded, ShutdownResolvesOutstandingTickets) {
  Rng rng(808);
  const Graph g = make_gnp_connected(50, 0.12, {1, 9}, rng);
  std::vector<MaxFlowTicket> tickets;
  {
    FlowEngine engine(g, shard_options(2));
    for (int i = 0; i < 32; ++i) {
      tickets.push_back(engine.submit(MaxFlowQuery{0, 49}));
    }
    // Engine destroyed with work possibly still queued.
  }
  int resolved_ok = 0;
  int resolved_shutdown = 0;
  for (MaxFlowTicket& t : tickets) {
    const Result<MaxFlowApproxResult> r = t.get();
    if (r.ok()) {
      ++resolved_ok;
    } else {
      EXPECT_EQ(r.code, ErrorCode::kShutdown);
      ++resolved_shutdown;
    }
  }
  EXPECT_EQ(resolved_ok + resolved_shutdown, 32);
}

}  // namespace
}  // namespace dmf
