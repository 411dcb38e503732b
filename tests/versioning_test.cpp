// Tests for the FlowEngine versioned mutation path: apply() publishes a
// snapshot and rebuilds the hierarchy in the background while queries
// keep being served from the previous snapshot; results are bitwise
// deterministic PER VERSION no matter whether a rebuild is idle, in
// flight, or completed; min_version parks queries until a fresh-enough
// hierarchy lands (and resolves kVersionUnavailable when it never can);
// per-version hierarchy caches never mix graph generations.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "util/rng.h"

namespace dmf {
namespace {

EngineOptions version_options(int threads) {
  EngineOptions options;
  options.threads = threads;
  options.sherman.num_trees = 4;  // keep hierarchy builds fast in tests
  options.seed = 777000111;
  options.exact_cutoff_nodes = 16;  // multi-terminal rides sherman + cache
  return options;
}

Graph test_graph(std::uint64_t seed = 909) {
  Rng rng(seed);
  return make_gnp_connected(72, 0.08, {1, 9}, rng);
}

// A deterministic capacity-only batch: keeps the topology (and thus
// connectivity and terminal degrees) intact while changing the flow
// landscape.
MutationBatch capacity_batch(const Graph& g) {
  MutationBatch batch;
  const EdgeId count = std::min<EdgeId>(10, g.num_edges());
  for (EdgeId e = 0; e < count; ++e) {
    batch.set_capacity(e, 1.5 + static_cast<double>(e % 5));
  }
  return batch;
}

struct Reference {
  Result<MaxFlowApproxResult> max_flow;
  Result<RouteResult> route;
  Result<MultiTerminalMaxFlowResult> multi;
};

// The three reference queries, answered by `engine`.
Reference answers_of(FlowEngine& engine, const Graph& g) {
  Reference ref;
  ref.max_flow = engine.submit(MaxFlowQuery{0, 71}).get();
  std::vector<double> demand(static_cast<std::size_t>(g.num_nodes()), 0.0);
  demand[0] = 2.0;
  demand[35] = -0.5;
  demand[71] = -1.5;
  ref.route = engine.submit(RouteQuery{demand}).get();
  ref.multi = engine.submit(MultiTerminalQuery{{0, 1, 2}, {69, 70, 71}}).get();
  EXPECT_TRUE(ref.max_flow.ok()) << ref.max_flow.message;
  EXPECT_TRUE(ref.route.ok()) << ref.route.message;
  EXPECT_TRUE(ref.multi.ok()) << ref.multi.message;
  return ref;
}

Reference reference_on(const Graph& g, int threads) {
  FlowEngine engine(g, version_options(threads));
  return answers_of(engine, g);
}

TEST(FlowEngineVersioning, ApplyServesStaleThenSwapsIn) {
  const Graph g = test_graph();
  FlowEngine engine(g, version_options(2));
  EXPECT_EQ(engine.serving_version(), 0u);
  EXPECT_EQ(engine.latest_version(), 0u);

  const ApplyResult applied = engine.apply(capacity_batch(g));
  EXPECT_EQ(applied.version, 1u);
  EXPECT_EQ(applied.plan, RebuildPlan::kTreeRepair);
  EXPECT_EQ(engine.latest_version(), 1u);

  // Queries submitted while the rebuild may still be in flight resolve
  // fine, each reporting which snapshot served it.
  std::vector<MaxFlowTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(engine.submit(
        MaxFlowQuery{static_cast<NodeId>(i), static_cast<NodeId>(71 - i)}));
  }
  for (MaxFlowTicket& t : tickets) {
    const Result<MaxFlowApproxResult> r = t.get();
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_LE(r.served_version, 1u);
  }

  ASSERT_TRUE(engine.wait_for_version(1, 120.0));
  EXPECT_EQ(engine.serving_version(), 1u);
  EXPECT_EQ(engine.snapshot().version, 1u);
  // The serving snapshot now reflects the mutation.
  EXPECT_DOUBLE_EQ(engine.snapshot().graph->capacity(0), 1.5);
  EXPECT_EQ(engine.hierarchy().graph_version(), 1u);

  const Result<MaxFlowApproxResult> post =
      engine.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(post.ok()) << post.message;
  EXPECT_EQ(post.served_version, 1u);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.serving_version, 1u);
  EXPECT_EQ(stats.latest_version, 1u);
  EXPECT_EQ(stats.rebuild.started, 1);
  EXPECT_EQ(stats.rebuild.completed, 1);
  EXPECT_EQ(stats.rebuild.failed, 0);
  EXPECT_GT(stats.rebuild.seconds_total, 0.0);

  // Waiting for a version no pending rebuild can reach reports failure
  // immediately instead of blocking.
  EXPECT_FALSE(engine.wait_for_version(99, 60.0));
}

// The acceptance property: with one seed, a result depends only on the
// snapshot that served it — engine A (never mutated, version 0), engine
// C (built directly on the mutated graph), and engine B (mutated
// mid-flight, racing a background rebuild) must agree bitwise wherever
// their served versions coincide, no matter when B's rebuild lands.
TEST(FlowEngineVersioning, PerVersionDeterminismRegardlessOfRebuildTiming) {
  const Graph g = test_graph();
  const Reference r0 = reference_on(g, 1);

  FlowEngine engine_b(g, version_options(2));

  // Rebuild idle: bitwise match with the untouched engine A.
  {
    const Result<MaxFlowApproxResult> idle =
        engine_b.submit(MaxFlowQuery{0, 71}).get();
    ASSERT_TRUE(idle.ok()) << idle.message;
    EXPECT_EQ(idle.served_version, 0u);
    EXPECT_EQ(idle.value().value, r0.max_flow.value().value);
    EXPECT_EQ(idle.value().flow, r0.max_flow.value().flow);
  }

  const GraphVersion v1 = engine_b.apply(capacity_batch(g)).version;
  ASSERT_EQ(v1, 1u);
  const GraphSnapshot s1 = engine_b.store()->snapshot();
  ASSERT_EQ(s1.version, v1);
  const Reference r1 = reference_on(*s1.graph, 1);

  // Rebuild possibly in flight: every result must match the reference
  // of whichever snapshot served it — there is no third possibility.
  std::vector<double> demand(static_cast<std::size_t>(g.num_nodes()), 0.0);
  demand[0] = 2.0;
  demand[35] = -0.5;
  demand[71] = -1.5;
  std::vector<MaxFlowTicket> inflight;
  for (int i = 0; i < 8; ++i) {
    inflight.push_back(engine_b.submit(MaxFlowQuery{0, 71}));
  }
  RouteTicket route_ticket = engine_b.submit(RouteQuery{demand});
  MultiTerminalTicket multi_ticket =
      engine_b.submit(MultiTerminalQuery{{0, 1, 2}, {69, 70, 71}});

  int stale_ok = 0;
  for (MaxFlowTicket& t : inflight) {
    const Result<MaxFlowApproxResult> r = t.get();
    ASSERT_TRUE(r.ok()) << r.message;
    const Reference& want = r.served_version == 0 ? r0 : r1;
    if (r.served_version == 0) ++stale_ok;
    EXPECT_EQ(r.value().value, want.max_flow.value().value)
        << "served_version=" << r.served_version;
    EXPECT_EQ(r.value().flow, want.max_flow.value().flow);
  }
  {
    const Result<RouteResult> r = route_ticket.get();
    ASSERT_TRUE(r.ok()) << r.message;
    const Reference& want = r.served_version == 0 ? r0 : r1;
    if (r.served_version == 0) ++stale_ok;
    EXPECT_EQ(r.value().congestion, want.route.value().congestion);
    EXPECT_EQ(r.value().flow, want.route.value().flow);
  }
  {
    const Result<MultiTerminalMaxFlowResult> r = multi_ticket.get();
    ASSERT_TRUE(r.ok()) << r.message;
    const Reference& want = r.served_version == 0 ? r0 : r1;
    if (r.served_version == 0) ++stale_ok;
    EXPECT_EQ(r.value().value, want.multi.value().value);
    EXPECT_EQ(r.value().flow, want.multi.value().flow);
  }
  // Whatever was served from the old snapshot after the apply is
  // exactly what the stale counter accounted.
  EXPECT_EQ(engine_b.stats().queries_served_stale, stale_ok);

  // Rebuild completed: post-swap results match a fresh engine built
  // directly on the mutated graph, bitwise.
  ASSERT_TRUE(engine_b.wait_for_version(1, 120.0));
  const Result<MaxFlowApproxResult> post =
      engine_b.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(post.ok()) << post.message;
  EXPECT_EQ(post.served_version, 1u);
  EXPECT_EQ(post.value().value, r1.max_flow.value().value);
  EXPECT_EQ(post.value().flow, r1.max_flow.value().flow);
  const Result<MultiTerminalMaxFlowResult> post_multi =
      engine_b.submit(MultiTerminalQuery{{0, 1, 2}, {69, 70, 71}}).get();
  ASSERT_TRUE(post_multi.ok()) << post_multi.message;
  EXPECT_EQ(post_multi.value().value, r1.multi.value().value);
  EXPECT_EQ(post_multi.value().flow, r1.multi.value().flow);
}

// The store keeps only the latest snapshot. The engine never reads a
// past version, so after each swap, capacity-only and topology alike,
// it still answers bitwise like a fresh engine on that graph.
TEST(FlowEngineVersioning, LatestOnlyStoreServesLikeAFreshEngine) {
  auto store = std::make_shared<GraphStore>(test_graph());
  FlowEngine engine(store, version_options(2));
  MutationBatch topology;
  topology.add_nodes(1).add_edge(72, 0, 2.0).add_edge(72, 71, 3.0);
  const std::vector<MutationBatch> batches = {
      capacity_batch(*store->snapshot().graph), topology};
  for (const MutationBatch& batch : batches) {
    const GraphVersion v = engine.apply(batch).version;
    ASSERT_TRUE(engine.wait_for_version(v, 120.0));
    const GraphSnapshot snap = store->snapshot();
    const Graph& g = *snap.graph;
    const Reference got = answers_of(engine, g);
    const Reference want = reference_on(g, 1);
    EXPECT_EQ(got.max_flow.served_version, v);
    EXPECT_EQ(got.max_flow.value().value, want.max_flow.value().value);
    EXPECT_EQ(got.max_flow.value().flow, want.max_flow.value().flow);
    EXPECT_EQ(got.route.value().congestion, want.route.value().congestion);
    EXPECT_EQ(got.route.value().flow, want.route.value().flow);
    EXPECT_EQ(got.multi.value().value, want.multi.value().value);
    EXPECT_EQ(got.multi.value().flow, want.multi.value().flow);
  }
}

TEST(FlowEngineVersioning, MinVersionParksUntilRebuildLands) {
  const Graph g = test_graph();
  FlowEngine engine(g, version_options(1));

  SubmitOptions fresh_only;
  fresh_only.min_version = 1;
  MaxFlowTicket parked = engine.submit(MaxFlowQuery{0, 71}, fresh_only);
  // Nothing can release it before the first apply: it is parked, not
  // merely queued behind work.
  EXPECT_FALSE(parked.ready());
  EXPECT_EQ(engine.stats().queries_parked, 1);

  engine.apply(capacity_batch(g));
  const Result<MaxFlowApproxResult> r = parked.get();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.served_version, 1u);

  // A min_version at-or-below the serving version submits normally.
  SubmitOptions already_fresh;
  already_fresh.min_version = 1;
  const Result<MaxFlowApproxResult> direct =
      engine.submit(MaxFlowQuery{0, 71}, already_fresh).get();
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.served_version, 1u);
  EXPECT_EQ(engine.stats().queries_parked, 1);  // it never parked
}

TEST(FlowEngineVersioning, MinVersionResolvesVersionUnavailableOnShutdown) {
  const Graph g = test_graph();
  MaxFlowTicket orphan;
  {
    FlowEngine engine(g, version_options(1));
    SubmitOptions opts;
    opts.min_version = 99;  // never published
    orphan = engine.submit(MaxFlowQuery{0, 71}, opts);
    // Engine destroyed with the query still parked.
  }
  const Result<MaxFlowApproxResult> r = orphan.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, ErrorCode::kVersionUnavailable);
}

TEST(FlowEngineVersioning, FailedRebuildKeepsServingAndFailsParkedWaiters) {
  const Graph g = test_graph();
  FlowEngine engine(g, version_options(2));

  SubmitOptions opts;
  opts.min_version = 1;
  MaxFlowTicket parked = engine.submit(MaxFlowQuery{0, 71}, opts);

  // An isolated node disconnects the snapshot: the hierarchy for v1
  // cannot be built, so v1 is published but never becomes servable.
  MutationBatch bad;
  bad.add_nodes(1);
  const ApplyResult bad_applied = engine.apply(bad);
  EXPECT_EQ(bad_applied.version, 1u);
  EXPECT_EQ(bad_applied.plan, RebuildPlan::kFullRebuild);

  const Result<MaxFlowApproxResult> r = parked.get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, ErrorCode::kVersionUnavailable);

  // A version wait must report the failure, not hang: nothing pending
  // can serve v1 anymore.
  EXPECT_FALSE(engine.wait_for_version(1, 60.0));

  // The engine keeps serving the last good snapshot...
  const Result<MaxFlowApproxResult> still =
      engine.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(still.ok()) << still.message;
  EXPECT_EQ(still.served_version, 0u);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rebuild.failed, 1);
  EXPECT_EQ(stats.rebuild.completed, 0);
  EXPECT_EQ(stats.rebuild.repairs_started, 0);
  EXPECT_EQ(stats.serving_version, 0u);
  EXPECT_EQ(stats.latest_version, 1u);

  // ...and a batch that restores connectivity becomes servable again.
  MutationBatch fix;
  fix.add_edge(72, 0, 1.0);  // the isolated node got id 72
  EXPECT_EQ(engine.apply(fix).version, 2u);
  ASSERT_TRUE(engine.wait_for_version(2, 120.0));
  const Result<MaxFlowApproxResult> healed =
      engine.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(healed.ok()) << healed.message;
  EXPECT_EQ(healed.served_version, 2u);
}

// A timeout too large for the clock (1e300 seconds, +inf) means no
// deadline: the wait blocks until the rebuild lands. The engine's only
// worker is held inside a query callback, so the rebuild is still
// pending when each wait starts; a helper thread lets it go.
TEST(FlowEngineVersioning, HugeTimeoutsWaitUntilTheVersionLands) {
  const Graph g = test_graph();
  FlowEngine engine(g, version_options(1));
  for (const double timeout :
       {1e300, std::numeric_limits<double>::infinity()}) {
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    MaxFlowTicket blocker = engine.submit(
        MaxFlowQuery{0, 71},
        [&entered, released](const Result<MaxFlowApproxResult>&) {
          entered.set_value();
          released.wait();
        });
    entered.get_future().wait();
    const GraphVersion version = engine.apply(capacity_batch(g)).version;
    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      release.set_value();
    });
    EXPECT_TRUE(engine.wait_for_version(version, timeout)) << timeout;
    releaser.join();
    EXPECT_TRUE(blocker.get().ok());
    EXPECT_EQ(engine.serving_version(), version);
  }
}

// The per-snapshot HierarchyCache: the same terminal sets queried
// before and after a swap must be rebuilt on (and answered from) their
// own generation — a cross-generation cache hit would silently answer
// from the wrong graph.
TEST(FlowEngineVersioning, MultiTerminalCacheNeverMixesGenerations) {
  const Graph g = test_graph();
  const MultiTerminalQuery query{{0, 1, 2}, {69, 70, 71}, 0.0, false};
  FlowEngine engine(g, version_options(2));

  const Result<MultiTerminalMaxFlowResult> before =
      engine.submit(query).get();
  ASSERT_TRUE(before.ok()) << before.message;
  EXPECT_EQ(before.served_version, 0u);

  engine.apply(capacity_batch(g));
  ASSERT_TRUE(engine.wait_for_version(1, 120.0));

  const Result<MultiTerminalMaxFlowResult> after = engine.submit(query).get();
  ASSERT_TRUE(after.ok()) << after.message;
  EXPECT_EQ(after.served_version, 1u);

  // One build per generation: a shared cache would have reported one
  // miss and one (wrong-graph) hit.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.hierarchy_cache_misses, 2);
  EXPECT_EQ(stats.hierarchy_cache_hits, 0);

  // And the post-swap answer equals a fresh engine's on the mutated
  // graph, bitwise.
  const GraphSnapshot served = engine.snapshot();
  ASSERT_EQ(served.version, 1u);
  FlowEngine fresh(*served.graph, version_options(1));
  const Result<MultiTerminalMaxFlowResult> want = fresh.submit(query).get();
  ASSERT_TRUE(want.ok()) << want.message;
  EXPECT_EQ(after.value().value, want.value().value);
  EXPECT_EQ(after.value().flow, want.value().flow);
}

TEST(FlowEngineVersioning, SharedStoreWithRefresh) {
  auto store = std::make_shared<GraphStore>(test_graph());
  FlowEngine engine(store, version_options(2));
  EXPECT_EQ(engine.serving_version(), 0u);

  // A writer publishes through the store directly (no engine.apply):
  // the engine picks it up on refresh().
  store->apply(capacity_batch(*store->snapshot().graph));
  EXPECT_EQ(engine.latest_version(), 1u);
  EXPECT_EQ(engine.serving_version(), 0u);

  EXPECT_EQ(engine.refresh(), 1u);
  ASSERT_TRUE(engine.wait_for_version(1, 120.0));
  const Result<MaxFlowApproxResult> outcome =
      engine.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(outcome.ok()) << outcome.message;
  EXPECT_EQ(outcome.served_version, 1u);
}

// Back-to-back applies coalesce: the rebuild always targets the newest
// snapshot, so the engine converges to the latest version without
// necessarily serving the intermediates.
TEST(FlowEngineVersioning, RollingAppliesConverge) {
  const Graph g = test_graph();
  FlowEngine engine(g, version_options(2));
  GraphVersion last = 0;
  for (int round = 0; round < 5; ++round) {
    MutationBatch batch;
    batch.set_capacity(round, 2.0 + round);
    last = engine.apply(batch).version;
    (void)engine.submit(MaxFlowQuery{0, 71}).get();
  }
  EXPECT_EQ(last, 5u);
  ASSERT_TRUE(engine.wait_for_version(5, 120.0));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.serving_version, 5u);
  EXPECT_GE(stats.rebuild.started, 1);
  EXPECT_LE(stats.rebuild.completed, stats.rebuild.started);
  // Converged: a fresh engine on the final snapshot agrees bitwise.
  const Result<MaxFlowApproxResult> got =
      engine.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(got.ok()) << got.message;
  const GraphSnapshot served = engine.snapshot();
  ASSERT_EQ(served.version, 5u);
  FlowEngine fresh(*served.graph, version_options(1));
  const Result<MaxFlowApproxResult> want =
      fresh.submit(MaxFlowQuery{0, 71}).get();
  ASSERT_TRUE(want.ok()) << want.message;
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().flow, want.value().flow);
}

}  // namespace
}  // namespace dmf
