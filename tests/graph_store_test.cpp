// Tests for GraphStore / MutationBatch: copy-on-write snapshot
// isolation, monotone versioning, atomic (all-or-nothing) batches,
// deterministic id assignment, and release of superseded snapshots.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "graph/graph_store.h"

namespace dmf {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 0, 3.0);
  return g;
}

TEST(GraphStore, InitialGraphIsVersionZero) {
  GraphStore store(triangle());
  const GraphSnapshot snap = store.snapshot();
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(store.latest_version(), 0u);
  EXPECT_EQ(snap.graph->num_nodes(), 3);
}

TEST(GraphStore, CopyOnWriteLeavesReadersUntouched) {
  GraphStore store(triangle());
  const GraphSnapshot before = store.snapshot();

  MutationBatch batch;
  batch.set_capacity(0, 9.0).add_edge(0, 2, 4.0);
  const GraphSnapshot after = store.apply(batch);

  EXPECT_EQ(after.version, 1u);
  // The reader's snapshot is the exact pre-mutation state...
  EXPECT_DOUBLE_EQ(before.graph->capacity(0), 1.0);
  EXPECT_EQ(before.graph->num_edges(), 3);
  // ...and the two versions are distinct objects, not views.
  EXPECT_NE(before.graph.get(), after.graph.get());
  EXPECT_DOUBLE_EQ(after.graph->capacity(0), 9.0);
  EXPECT_EQ(after.graph->num_edges(), 4);
  EXPECT_DOUBLE_EQ(after.graph->capacity(3), 4.0);
}

TEST(GraphStore, VersionsIncreaseMonotonically) {
  GraphStore store(triangle());
  for (GraphVersion expected = 1; expected <= 5; ++expected) {
    MutationBatch batch;
    batch.set_capacity(0, static_cast<double>(expected));
    EXPECT_EQ(store.apply(batch).version, expected);
  }
  EXPECT_EQ(store.latest_version(), 5u);
}

TEST(GraphStore, EmptyBatchPublishesIdenticalSnapshot) {
  GraphStore store(triangle());
  const GraphSnapshot next = store.apply(MutationBatch{});
  EXPECT_EQ(next.version, 1u);
  EXPECT_EQ(next.graph->num_edges(), 3);
  EXPECT_DOUBLE_EQ(next.graph->capacity(2), 3.0);
}

TEST(GraphStore, BatchOpsSeeNodesCreatedEarlierInTheBatch) {
  GraphStore store(triangle());
  MutationBatch batch;
  // New node gets id 3 (deterministic: base has 3 nodes); the edge to
  // it is recorded before the node exists and must still apply.
  batch.add_nodes(1).add_edge(3, 0, 2.5);
  const GraphSnapshot snap = store.apply(batch);
  EXPECT_EQ(snap.graph->num_nodes(), 4);
  EXPECT_EQ(snap.graph->num_edges(), 4);
  EXPECT_DOUBLE_EQ(snap.graph->capacity(3), 2.5);
  EXPECT_EQ(snap.graph->other_endpoint(3, 3), 0);
}

TEST(GraphStore, InvalidOpRejectsWholeBatchAtomically) {
  GraphStore store(triangle());
  MutationBatch batch;
  batch.set_capacity(0, 7.0);       // valid
  batch.set_capacity(99, 1.0);      // invalid edge id
  EXPECT_THROW(store.apply(batch), RequirementError);
  // Nothing landed: no new version, no partial mutation.
  EXPECT_EQ(store.latest_version(), 0u);
  EXPECT_DOUBLE_EQ(store.snapshot().graph->capacity(0), 1.0);
}

// Two add_nodes ops of 2^30 would carry the count past the NodeId
// range: the batch throws and publishes nothing.
TEST(GraphStore, NodeCountOverflowRejectsWholeBatch) {
  GraphStore store(triangle());
  MutationBatch batch;
  batch.add_nodes(NodeId{1} << 30).add_nodes(NodeId{1} << 30);
  EXPECT_THROW(store.apply(batch), RequirementError);
  EXPECT_EQ(store.latest_version(), 0u);
  EXPECT_EQ(store.snapshot().graph->num_nodes(), 3);
}

TEST(MutationBatch, RejectsNonFiniteCapacityAtRecordTime) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MutationBatch batch;
  EXPECT_THROW(batch.set_capacity(0, inf), RequirementError);
  EXPECT_THROW(batch.set_capacity(0, 0.0), RequirementError);
  EXPECT_THROW(batch.add_edge(0, 1, nan), RequirementError);
  EXPECT_THROW(batch.add_edge(0, 1, -2.0), RequirementError);
  EXPECT_THROW(batch.add_nodes(0), RequirementError);
  EXPECT_TRUE(batch.empty());  // every rejected op left no trace
}

// The store holds only the latest snapshot: once no reader holds v0,
// a single apply releases its graph and its CSR.
TEST(GraphStore, SupersededSnapshotIsReleased) {
  GraphStore store(triangle());
  std::weak_ptr<const Graph> v0_graph;
  std::weak_ptr<const CsrGraph> v0_csr;
  {
    const GraphSnapshot v0 = store.snapshot();
    v0_graph = v0.graph;
    v0_csr = v0.csr;
  }
  MutationBatch batch;
  batch.set_capacity(0, 2.0);
  const GraphSnapshot v1 = store.apply(batch);
  EXPECT_TRUE(v0_graph.expired());
  EXPECT_TRUE(v0_csr.expired());
  EXPECT_EQ(store.snapshot().graph, v1.graph);
}

TEST(GraphStore, ConcurrentAppliesNeverLoseAnUpdate) {
  GraphStore store(triangle());
  constexpr int kThreads = 4;
  constexpr int kAppliesEach = 25;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    writers.emplace_back([&store] {
      for (int j = 0; j < kAppliesEach; ++j) {
        MutationBatch batch;
        batch.add_edge(0, 1, 1.0);
        (void)store.apply(batch);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  // Every apply produced exactly one version and exactly one edge.
  EXPECT_EQ(store.latest_version(),
            static_cast<GraphVersion>(kThreads * kAppliesEach));
  EXPECT_EQ(store.snapshot().graph->num_edges(),
            3 + kThreads * kAppliesEach);
}

}  // namespace
}  // namespace dmf
