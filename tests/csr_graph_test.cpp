// CsrGraph: parity with a reference adjacency built from the edge list
// (order, degrees, edge ids), traversal equivalence, storage reuse
// across GraphStore versions, and the always-on Graph accessor bounds
// checks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/dinic.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "graph/multigraph.h"
#include "util/rng.h"

namespace dmf {
namespace {

// A random connected multigraph: a spanning chain plus random extra
// edges, duplicates (parallel edges) included on purpose.
Graph random_multigraph(NodeId n, int extra_edges, Rng& rng) {
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(v - 1, v, rng.next_double(0.5, 4.0));
  }
  for (int i = 0; i < extra_edges; ++i) {
    const auto u = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    auto v = u;
    while (v == u) {
      v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    }
    g.add_edge(u, v, rng.next_double(0.5, 4.0));
  }
  return g;
}

// Reference adjacency straight from the edge list: both half-edges of
// every edge appended in edge-id order.
std::vector<std::vector<AdjEntry>> edge_list_adjacency(const Graph& g) {
  std::vector<std::vector<AdjEntry>> adj(
      static_cast<std::size_t>(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    adj[static_cast<std::size_t>(ep.u)].push_back({ep.v, e});
    adj[static_cast<std::size_t>(ep.v)].push_back({ep.u, e});
  }
  return adj;
}

TEST(CsrGraph, MatchesAdjacencyOnRandomMultigraphs) {
  Rng rng(0xc5a11);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(2 + rng.next_below(40));
    const int extra = static_cast<int>(rng.next_below(80));
    const Graph g = random_multigraph(n, extra, rng);
    const CsrGraph csr(g);
    const std::vector<std::vector<AdjEntry>> adj = edge_list_adjacency(g);

    ASSERT_EQ(csr.num_nodes(), g.num_nodes());
    ASSERT_EQ(csr.num_edges(), g.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::vector<AdjEntry>& expected = adj[static_cast<std::size_t>(v)];
      const CsrRow row = csr.neighbors(v);
      ASSERT_EQ(row.size(), expected.size()) << "node " << v;
      ASSERT_EQ(csr.degree(v), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        // Same neighbor, same edge, same position: traversal order is
        // identical, not merely the same set.
        EXPECT_EQ(row.to(i), expected[i].to) << "node " << v << " pos " << i;
        EXPECT_EQ(row.edge(i), expected[i].edge)
            << "node " << v << " pos " << i;
      }
      double weighted = 0.0;
      for (const AdjEntry& a : expected) weighted += g.capacity(a.edge);
      EXPECT_DOUBLE_EQ(csr.weighted_degree(v), weighted);
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(csr.endpoints(e).u, g.endpoints(e).u);
      EXPECT_EQ(csr.endpoints(e).v, g.endpoints(e).v);
      EXPECT_EQ(csr.capacity(e), g.capacity(e));
    }
  }
}

TEST(CsrGraph, ExactBaselinesMatchGraphOverloads) {
  Rng rng(0xd1);
  const Graph g = make_gnp_connected(48, 0.12, {1, 8}, rng);
  const CsrGraph csr(g);
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  // bitwise: the Graph form packs the same CSR and runs the same arcs
  EXPECT_EQ(dinic_max_flow_value(g, s, t), dinic_max_flow_value(csr, s, t));
}

TEST(CsrGraph, FlowHelpersMatchGraphOverloads) {
  Rng rng(0x77);
  const Graph g = random_multigraph(30, 50, rng);
  const CsrGraph csr(g);
  std::vector<double> flow(static_cast<std::size_t>(g.num_edges()));
  for (double& f : flow) f = rng.next_double(-2.0, 2.0);

  EXPECT_EQ(flow_divergence(csr, flow), flow_divergence(g, flow));
  EXPECT_EQ(max_congestion(csr, flow), max_congestion(g, flow));
}

TEST(CsrGraph, MultiAdjacencyMatchesPerNodeVectors) {
  Rng rng(0x3a);
  const Graph base = random_multigraph(25, 60, rng);
  const Multigraph g = Multigraph::from_graph(base);

  // Reference: the per-node push_back construction the flat form
  // replaced.
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> expected(
      static_cast<std::size_t>(g.num_nodes()));
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const MultiEdge& e = g.edge(i);
    expected[static_cast<std::size_t>(e.u)].emplace_back(e.v, i);
    expected[static_cast<std::size_t>(e.v)].emplace_back(e.u, i);
  }

  const MultiAdjacency adj(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& want = expected[static_cast<std::size_t>(v)];
    const MultiAdjacency::Row row = adj.row(v);
    ASSERT_EQ(row.size(), want.size());
    std::size_t i = 0;
    for (const MultiAdjacency::Entry& entry : row) {
      EXPECT_EQ(entry.to, want[i].first);
      EXPECT_EQ(entry.edge, want[i].second);
      ++i;
    }
  }

  // Masked form: only even edges.
  std::vector<char> mask(g.num_edges(), 0);
  for (std::size_t i = 0; i < g.num_edges(); i += 2) mask[i] = 1;
  const MultiAdjacency masked(g, mask);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<std::size_t> want;
    for (const auto& [to, idx] : expected[static_cast<std::size_t>(v)]) {
      (void)to;
      if (mask[idx]) want.push_back(idx);
    }
    const MultiAdjacency::Row row = masked.row(v);
    ASSERT_EQ(row.size(), want.size());
    std::size_t i = 0;
    for (const MultiAdjacency::Entry& entry : row) {
      EXPECT_EQ(entry.edge, want[i++]);
    }
  }
}

// --- GraphStore versioning of the CSR view ----------------------------------

Graph square() {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 0, 4.0);
  return g;
}

TEST(CsrGraphStore, SnapshotsCarryMatchingCsr) {
  GraphStore store(square());
  const GraphSnapshot snap = store.snapshot();
  ASSERT_NE(snap.csr, nullptr);
  EXPECT_EQ(&snap.csr->graph(), snap.graph.get());
  EXPECT_EQ(snap.csr->num_edges(), 4);
}

TEST(CsrGraphStore, CapacityOnlyBatchSharesStructureArrays) {
  GraphStore store(square());
  const GraphSnapshot v0 = store.snapshot();
  MutationBatch batch;
  batch.set_capacity(1, 9.0);
  const GraphSnapshot v1 = store.apply(batch);

  ASSERT_NE(v1.csr, nullptr);
  // The adjacency structure did not change: the packed arrays are the
  // very same allocations, only the borrowed capacities differ.
  EXPECT_EQ(v1.csr->offsets().data(), v0.csr->offsets().data());
  EXPECT_EQ(v1.csr->neighbor_array().data(), v0.csr->neighbor_array().data());
  EXPECT_EQ(v1.csr->edge_id_array().data(), v0.csr->edge_id_array().data());
  EXPECT_DOUBLE_EQ(v1.csr->capacity(1), 9.0);
  EXPECT_DOUBLE_EQ(v0.csr->capacity(1), 2.0);
}

TEST(CsrGraphStore, NodeOnlyBatchSharesHalfEdgeArrays) {
  GraphStore store(square());
  const GraphSnapshot v0 = store.snapshot();
  MutationBatch batch;
  batch.add_nodes(2);
  const GraphSnapshot v1 = store.apply(batch);

  EXPECT_EQ(v1.csr->num_nodes(), 6);
  // Packed half-edges shared; offsets re-derived with empty new rows.
  EXPECT_EQ(v1.csr->neighbor_array().data(), v0.csr->neighbor_array().data());
  EXPECT_NE(v1.csr->offsets().data(), v0.csr->offsets().data());
  EXPECT_EQ(v1.csr->degree(4), 0u);
  EXPECT_EQ(v1.csr->degree(5), 0u);
  EXPECT_EQ(v1.csr->degree(0), 2u);
}

TEST(CsrGraphStore, EdgeBatchRebuildsWithoutDisturbingOldVersions) {
  GraphStore store(square());
  const GraphSnapshot v0 = store.snapshot();

  // Record v0's packed state (pointers AND contents).
  const std::size_t* v0_offsets = v0.csr->offsets().data();
  const NodeId* v0_neighbors = v0.csr->neighbor_array().data();
  const std::vector<std::size_t> v0_offsets_copy = v0.csr->offsets();
  const std::vector<NodeId> v0_neighbors_copy = v0.csr->neighbor_array();
  const std::vector<EdgeId> v0_edges_copy = v0.csr->edge_id_array();

  MutationBatch batch;
  batch.add_edge(0, 2, 5.0);
  const GraphSnapshot v1 = store.apply(batch);

  // The new version repacked (structure changed)...
  EXPECT_EQ(v1.csr->num_edges(), 5);
  EXPECT_NE(v1.csr->neighbor_array().data(), v0_neighbors);
  EXPECT_EQ(v1.csr->degree(0), 3u);
  // ...and v0's arrays are exactly where and what they were.
  EXPECT_EQ(v0.csr->offsets().data(), v0_offsets);
  EXPECT_EQ(v0.csr->neighbor_array().data(), v0_neighbors);
  EXPECT_EQ(v0.csr->offsets(), v0_offsets_copy);
  EXPECT_EQ(v0.csr->neighbor_array(), v0_neighbors_copy);
  EXPECT_EQ(v0.csr->edge_id_array(), v0_edges_copy);
  EXPECT_EQ(v0.csr->degree(0), 2u);

  // A CSR built from scratch on the mutated graph agrees with the
  // incrementally published one entry for entry.
  const CsrGraph fresh(*v1.graph);
  EXPECT_EQ(v1.csr->offsets(), fresh.offsets());
  EXPECT_EQ(v1.csr->neighbor_array(), fresh.neighbor_array());
  EXPECT_EQ(v1.csr->edge_id_array(), fresh.edge_id_array());
}

TEST(CsrGraphStore, ChainedBatchesKeepEveryVersionConsistent) {
  GraphStore store(square());
  std::vector<GraphSnapshot> versions{store.snapshot()};
  MutationBatch caps;
  caps.set_capacity(0, 7.0);
  versions.push_back(store.apply(caps));
  MutationBatch nodes;
  nodes.add_nodes(1);
  versions.push_back(store.apply(nodes));
  MutationBatch edges;
  edges.add_edge(4, 0, 2.0);
  versions.push_back(store.apply(edges));

  for (GraphVersion v = 0; v <= 3; ++v) {
    const GraphSnapshot& snap = versions[static_cast<std::size_t>(v)];
    ASSERT_EQ(snap.version, v);
    ASSERT_NE(snap.csr, nullptr) << "version " << v;
    const CsrGraph fresh(*snap.graph);
    EXPECT_EQ(snap.csr->offsets(), fresh.offsets()) << "version " << v;
    EXPECT_EQ(snap.csr->neighbor_array(), fresh.neighbor_array())
        << "version " << v;
    EXPECT_EQ(snap.csr->edge_id_array(), fresh.edge_id_array())
        << "version " << v;
  }
}

// --- Graph accessor bounds checks (always on, Release included) -------------

TEST(GraphBoundsChecks, EndpointAndCapacityAccessorsRequireValidEdge) {
  const Graph g = square();
  EXPECT_THROW((void)g.endpoints(-1), RequirementError);
  EXPECT_THROW((void)g.endpoints(4), RequirementError);
  EXPECT_THROW((void)g.capacity(99), RequirementError);
  // Node 3 is not an endpoint of edge 0.
  EXPECT_THROW((void)g.other_endpoint(0, 3), RequirementError);
  EXPECT_NO_THROW((void)g.capacity(3));
}

}  // namespace
}  // namespace dmf
