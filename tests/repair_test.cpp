// Tests for incremental hierarchy repair on capacity-only mutations:
// MutationBatch::classify(), the ApplyResult plan the engine reports,
// and the core contract — a hierarchy built with a `previous` one to
// reuse trees from (a repair) is BITWISE identical to the hierarchy a
// from-scratch build on the same snapshot produces, at any thread count
// and across repair-then-repair chains. Batches that change the
// topology must take the full-rebuild path (and say so in the stats).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

Graph repair_graph(std::uint64_t seed = 4242) {
  Rng rng(seed);
  return make_gnp_connected(72, 0.08, {1, 9}, rng);
}

EngineOptions repair_options(int threads) {
  EngineOptions options;
  options.threads = threads;
  options.sherman.num_trees = 6;
  options.seed = 20250807;
  return options;
}

// Bitwise comparison of everything a hierarchy serves queries from.
void expect_bitwise_equal(const ShermanHierarchy& got,
                          const ShermanHierarchy& want) {
  ASSERT_EQ(got.approximator().num_trees(), want.approximator().num_trees());
  EXPECT_EQ(got.alpha(), want.alpha());
  EXPECT_EQ(got.build_rounds(), want.build_rounds());
  EXPECT_EQ(got.bfs_height(), want.bfs_height());
  for (int t = 0; t < got.approximator().num_trees(); ++t) {
    const RootedTree& a = got.approximator().tree(t);
    const RootedTree& b = want.approximator().tree(t);
    EXPECT_EQ(a.root, b.root) << "tree " << t;
    EXPECT_EQ(a.parent, b.parent) << "tree " << t;
    EXPECT_EQ(a.parent_edge, b.parent_edge) << "tree " << t;
    EXPECT_EQ(a.parent_cap, b.parent_cap) << "tree " << t;
  }
  EXPECT_EQ(got.mwst().root, want.mwst().root);
  EXPECT_EQ(got.mwst().parent, want.mwst().parent);
  EXPECT_EQ(got.mwst().parent_cap, want.mwst().parent_cap);
  ASSERT_EQ(got.tree_records().size(), want.tree_records().size());
  for (std::size_t i = 0; i < got.tree_records().size(); ++i) {
    EXPECT_EQ(got.tree_records()[i].seed, want.tree_records()[i].seed);
    EXPECT_EQ(got.tree_records()[i].rounds, want.tree_records()[i].rounds);
  }
}

TEST(MutationBatchClassify, KindReflectsStrongestOp) {
  EXPECT_EQ(MutationBatch{}.classify(), BatchKind::kCapacityOnly);

  MutationBatch caps;
  caps.set_capacity(0, 2.0).set_capacity(3, 0.5);
  EXPECT_EQ(caps.classify(), BatchKind::kCapacityOnly);

  MutationBatch nodes;
  nodes.set_capacity(0, 2.0).add_nodes(2);
  EXPECT_EQ(nodes.classify(), BatchKind::kNodeOnly);

  MutationBatch edges;
  edges.add_nodes(1).add_edge(0, 1, 3.0);
  EXPECT_EQ(edges.classify(), BatchKind::kTopology);
}

TEST(ApplyResult, PlanAndImplicitVersionConversion) {
  const Graph g = repair_graph();
  FlowEngine engine(g, repair_options(2));

  // A x8 capacity change crosses >= 3 octave-wide buckets no matter the
  // dither, so every tree goes dirty: deterministic kTreeRepair. The
  // plan compares against the hierarchy serving at apply time, so each
  // step waits for its refresh before the next batch lands.
  MutationBatch big;
  big.set_capacity(0, g.capacity(0) * 8.0);
  const ApplyResult r1 = engine.apply(big);
  EXPECT_EQ(r1.version, 1u);
  EXPECT_EQ(r1.plan, RebuildPlan::kTreeRepair);
  EXPECT_GT(r1.trees_total, 0);
  EXPECT_EQ(r1.trees_dirty, r1.trees_total);
  ASSERT_TRUE(engine.wait_for_version(r1.version, 120.0));

  // Rewriting a capacity to its current value changes nothing: kNoOp.
  MutationBatch same;
  same.set_capacity(1, g.capacity(1));
  const ApplyResult r2 = engine.apply(same);
  EXPECT_EQ(r2.plan, RebuildPlan::kNoOp);
  EXPECT_EQ(r2.trees_dirty, 0);
  ASSERT_TRUE(engine.wait_for_version(r2.version, 120.0));

  // Topology batches always plan a full rebuild.
  MutationBatch grow;
  grow.add_nodes(1).add_edge(72, 0, 1.0);
  const ApplyResult r3 = engine.apply(grow);
  EXPECT_EQ(r3.plan, RebuildPlan::kFullRebuild);
  ASSERT_TRUE(engine.wait_for_version(r3.version, 120.0));

  const GraphVersion v =
      engine.apply(MutationBatch{}.set_capacity(0, 2.0)).version;
  EXPECT_EQ(v, 4u);
  ASSERT_TRUE(engine.wait_for_version(4, 120.0));
}

// The acceptance property: after every capacity-only batch — small
// jitters, bucket-crossing jumps, and no-op rewrites mixed — the
// repaired serving hierarchy must equal, bitwise, what a fresh engine
// builds from scratch on the same snapshot. Running the mutating
// engines at 1 and 3 threads (against a single-threaded reference)
// also pins thread-count independence, and chaining the batches makes
// every step a repair-of-a-repair.
TEST(HierarchyRepair, RepairChainsMatchFullRebuildBitwise) {
  const Graph g = repair_graph();
  FlowEngine serial(g, repair_options(1));
  FlowEngine parallel(g, repair_options(3));

  Rng batch_rng(99);
  for (int round = 0; round < 6; ++round) {
    const Graph& cur = *serial.store()->snapshot().graph;
    // Small jitters (rarely cross a bucket) plus a no-op rewrite every
    // round; every third round adds a guaranteed bucket-crossing jump.
    // The mix makes most refreshes reuse trees while still exercising
    // the everything-dirty extreme.
    MutationBatch batch;
    for (int k = 0; k < 6; ++k) {
      const EdgeId e = static_cast<EdgeId>(
          batch_rng.next_below(static_cast<std::uint64_t>(cur.num_edges())));
      const double cap = cur.capacity(e);
      batch.set_capacity(e, cap * (0.99 + 0.02 * batch_rng.next_double()));
    }
    batch.set_capacity(0, cur.capacity(0));  // no-op rewrite
    if (round % 3 == 2) {
      const EdgeId e = static_cast<EdgeId>(
          batch_rng.next_below(static_cast<std::uint64_t>(cur.num_edges())));
      batch.set_capacity(e, cur.capacity(e) * 4.0);
    }
    const ApplyResult rs = serial.apply(batch);
    const ApplyResult rp = parallel.apply(batch);
    EXPECT_EQ(rs.plan, rp.plan);
    EXPECT_EQ(rs.trees_dirty, rp.trees_dirty);
    ASSERT_TRUE(serial.wait_for_version(rs.version, 120.0));
    ASSERT_TRUE(parallel.wait_for_version(rp.version, 120.0));

    const GraphSnapshot served = serial.snapshot();
    ASSERT_EQ(served.version, rs.version);
    FlowEngine fresh(*served.graph, repair_options(1));
    expect_bitwise_equal(serial.hierarchy(), fresh.hierarchy());
    expect_bitwise_equal(parallel.hierarchy(), fresh.hierarchy());

    // And the hierarchies answer identically, not just compare equal.
    const Result<MaxFlowApproxResult> got =
        parallel.submit(MaxFlowQuery{0, 71}).get();
    const Result<MaxFlowApproxResult> want =
        fresh.submit(MaxFlowQuery{0, 71}).get();
    ASSERT_TRUE(got.ok()) << got.message;
    ASSERT_TRUE(want.ok()) << want.message;
    EXPECT_EQ(got.value().value, want.value().value);
    EXPECT_EQ(got.value().flow, want.value().flow);
  }

  // The chain actually exercised the repair path.
  const EngineStats stats = parallel.stats();
  EXPECT_GT(stats.rebuild.repairs_started, 0);
  EXPECT_GT(stats.rebuild.repairs_completed, 0);
  EXPECT_EQ(stats.rebuild.repairs_started, stats.rebuild.repairs_completed);
  EXPECT_GT(stats.rebuild.trees_reused, 0);
}

// Direct unit coverage of a build given a `previous` hierarchy,
// including the report accounting and the kNoOp content-sharing path.
TEST(HierarchyRepair, BuildWithPreviousReportsAndSharesOnNoOp) {
  const auto graph = std::make_shared<Graph>(repair_graph());
  ShermanOptions options;
  options.num_trees = 6;
  options.hierarchy.capacity_bucket_octaves = 1.0;

  Rng build_rng(555);
  const auto prev =
      std::make_shared<ShermanHierarchy>(graph, options, build_rng, 0);
  const int total = prev->approximator().num_trees();

  // Identical capacities: everything is shared, nothing resampled.
  {
    const auto same = std::make_shared<Graph>(*graph);
    Rng rng(555);
    HierarchyRepairReport report;
    const ShermanHierarchy repaired(same, options, rng, 1, nullptr,
                                    prev.get(), &report);
    EXPECT_TRUE(report.attempted);
    EXPECT_EQ(report.trees_total, total);
    EXPECT_EQ(report.trees_repaired, 0);
    EXPECT_EQ(report.trees_reused, total);
    EXPECT_EQ(&repaired.approximator(), &prev->approximator());
    EXPECT_EQ(repaired.graph_version(), 1u);
  }

  // A capacity change: the result must match a from-scratch build and
  // the report must account every tree exactly once.
  {
    auto next = std::make_shared<Graph>(*graph);
    next->set_capacity(0, next->capacity(0) * 1.01);
    next->set_capacity(5, next->capacity(5) * 16.0);
    Rng repair_rng(555);
    HierarchyRepairReport report;
    const ShermanHierarchy repaired(next, options, repair_rng, 2, nullptr,
                                    prev.get(), &report);
    EXPECT_TRUE(report.attempted);
    EXPECT_EQ(report.trees_repaired + report.trees_reused, total);
    EXPECT_GT(report.trees_repaired, 0);  // the x16 edge dirties all trees

    Rng scratch_rng(555);
    const ShermanHierarchy scratch(next, options, scratch_rng, 2);
    expect_bitwise_equal(repaired, scratch);
    EXPECT_EQ(repair_rng(), scratch_rng());
  }

  // Inapplicable inputs (another topology, another quantization width)
  // reuse nothing: the build is a from-scratch build in every bit, and
  // leaves the caller's rng where that build does.
  const auto expect_from_scratch = [&](const std::shared_ptr<Graph>& g,
                                       const ShermanOptions& opts) {
    Rng rng(555);
    HierarchyRepairReport report;
    const ShermanHierarchy built(g, opts, rng, 3, nullptr, prev.get(),
                                 &report);
    EXPECT_FALSE(report.attempted);
    Rng scratch_rng(555);
    const ShermanHierarchy scratch(g, opts, scratch_rng, 3);
    expect_bitwise_equal(built, scratch);
    EXPECT_EQ(rng(), scratch_rng());
  };
  {
    Rng local(7);
    expect_from_scratch(std::make_shared<Graph>(make_gnp_connected(
                            80, 0.08, {1, 9}, local)),
                        options);
  }
  {
    ShermanOptions wrong = options;
    wrong.hierarchy.capacity_bucket_octaves = 2.0;
    expect_from_scratch(graph, wrong);
  }
}

// Batches that add nodes or edges must take the full-rebuild path: the
// engine plans kFullRebuild, never attempts a repair, and still lands
// on a hierarchy bitwise equal to a fresh build.
TEST(HierarchyRepair, TopologyBatchesFallBackToFullRebuild) {
  const Graph g = repair_graph();
  FlowEngine engine(g, repair_options(2));

  MutationBatch grow;
  grow.add_nodes(1).add_edge(72, 0, 2.0).add_edge(72, 36, 1.0);
  const ApplyResult r = engine.apply(grow);
  EXPECT_EQ(r.plan, RebuildPlan::kFullRebuild);
  EXPECT_EQ(r.trees_dirty, 0);
  ASSERT_TRUE(engine.wait_for_version(r.version, 120.0));

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rebuild.repairs_started, 0);
  EXPECT_EQ(stats.rebuild.completed, 1);

  const GraphSnapshot served = engine.snapshot();
  ASSERT_EQ(served.version, r.version);
  FlowEngine fresh(*served.graph, repair_options(1));
  expect_bitwise_equal(engine.hierarchy(), fresh.hierarchy());

  // A capacity-only batch on the growed graph repairs again as usual.
  MutationBatch caps;
  caps.set_capacity(0, 3.25);
  const ApplyResult r2 = engine.apply(caps);
  EXPECT_EQ(r2.plan, RebuildPlan::kTreeRepair);
  ASSERT_TRUE(engine.wait_for_version(r2.version, 120.0));
  stats = engine.stats();
  EXPECT_EQ(stats.rebuild.repairs_completed, 1);
}

// stats() is a coherent snapshot: once the engine is quiescent at a
// version, a single snapshot must be internally consistent — refresh
// counters balance and the version fields agree with what was awaited.
TEST(HierarchyRepair, StatsSnapshotIsCoherent) {
  const Graph g = repair_graph();
  FlowEngine engine(g, repair_options(2));
  engine.apply(MutationBatch{}.set_capacity(0, 4.5));
  ASSERT_TRUE(engine.wait_for_version(1, 120.0));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rebuild.started, 1);
  EXPECT_EQ(stats.rebuild.completed, 1);
  EXPECT_EQ(stats.rebuild.failed, 0);
  EXPECT_EQ(stats.rebuild.started,
            stats.rebuild.completed + stats.rebuild.failed);
  EXPECT_EQ(stats.rebuild.repairs_started, stats.rebuild.repairs_completed);
  EXPECT_EQ(stats.serving_version, 1u);
  EXPECT_EQ(stats.latest_version, 1u);
  EXPECT_GE(stats.rebuild.seconds_total, 0.0);
}

}  // namespace
}  // namespace dmf
