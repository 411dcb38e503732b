// Unit tests for the core Graph structure and basic algorithms.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace dmf {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_DOUBLE_EQ(g.total_capacity(), 0.0);
}

TEST(Graph, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.num_nodes(), 3);
  const EdgeId e0 = g.add_edge(0, 1, 5.0);
  const EdgeId e1 = g.add_edge(1, 2, 3.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.capacity(e0), 5.0);
  EXPECT_DOUBLE_EQ(g.capacity(e1), 3.0);
  EXPECT_EQ(g.endpoints(e0).u, 0);
  EXPECT_EQ(g.endpoints(e0).v, 1);
  EXPECT_EQ(g.other_endpoint(e0, 0), 1);
  EXPECT_EQ(g.other_endpoint(e0, 1), 0);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.degree(1), 2u);
  EXPECT_DOUBLE_EQ(csr.weighted_degree(1), 8.0);
  EXPECT_DOUBLE_EQ(g.total_capacity(), 8.0);
}

TEST(Graph, ParallelEdgesAllowed) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(CsrGraph(g).degree(0), 2u);
}

TEST(Graph, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1, 1.0), RequirementError);
}

TEST(Graph, RejectsNonPositiveCapacity) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), RequirementError);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), RequirementError);
}

// Regression: +inf used to pass the `capacity > 0` check and poison
// every downstream total/congestion computation; NaN passed nothing
// but produced NaN comparisons instead of an error.
TEST(Graph, RejectsNonFiniteCapacity) {
  Graph g(2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(g.add_edge(0, 1, inf), RequirementError);
  EXPECT_THROW(g.add_edge(0, 1, nan), RequirementError);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.set_capacity(e, inf), RequirementError);
  EXPECT_THROW(g.set_capacity(e, -inf), RequirementError);
  EXPECT_THROW(g.set_capacity(e, nan), RequirementError);
  EXPECT_DOUBLE_EQ(g.capacity(e), 1.0);  // failed sets left it untouched
}

TEST(Graph, RejectsBadNodes) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2, 1.0), RequirementError);
  EXPECT_THROW(g.add_edge(-1, 0, 1.0), RequirementError);
}

// Node counts past the NodeId range throw before anything changes
// (a wrapped count would be signed overflow).
TEST(Graph, AddNodesRejectsNodeIdOverflow) {
  constexpr NodeId kMax = std::numeric_limits<NodeId>::max();
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  EXPECT_THROW(g.add_nodes(kMax), RequirementError);
  EXPECT_EQ(g.num_nodes(), 3);
  g.add_nodes(kMax - 4);
  EXPECT_EQ(g.num_nodes(), kMax - 1);
  EXPECT_EQ(g.add_node(), kMax - 1);
  EXPECT_THROW(g.add_node(), RequirementError);
  EXPECT_THROW(g.add_nodes(1), RequirementError);
  EXPECT_EQ(g.num_nodes(), kMax);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, SetCapacity) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_capacity(e, 7.0);
  EXPECT_DOUBLE_EQ(g.capacity(e), 7.0);
  EXPECT_THROW(g.set_capacity(e, 0.0), RequirementError);
}

TEST(BfsDistances, Path) {
  Rng rng(1);
  const Graph g = make_path(5, {1, 1}, rng);
  const std::vector<int> d = bfs_distances(CsrGraph(g), 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
}

TEST(BfsDistances, Disconnected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const std::vector<int> d = bfs_distances(CsrGraph(g), 0);
  EXPECT_EQ(d[2], kUnreached);
}

TEST(BfsTree, ParentsAndHeight) {
  Rng rng(1);
  const Graph g = make_grid(4, 4, {1, 1}, rng);
  const BfsTree tree = build_bfs_tree(CsrGraph(g), 0);
  EXPECT_EQ(tree.parent[0], kInvalidNode);
  EXPECT_EQ(tree.height, 6);  // corner-to-corner in a 4x4 grid
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    ASSERT_NE(p, kInvalidNode);
    EXPECT_EQ(tree.depth[static_cast<std::size_t>(v)],
              tree.depth[static_cast<std::size_t>(p)] + 1);
    // The parent edge really connects v and p.
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    EXPECT_EQ(g.other_endpoint(e, v), p);
  }
}

TEST(Components, CountsComponents) {
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const Components c = connected_components(CsrGraph(g));
  EXPECT_EQ(c.count, 3);
  EXPECT_EQ(c.label[0], c.label[1]);
  EXPECT_EQ(c.label[2], c.label[3]);
  EXPECT_NE(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[4]);
}

TEST(Diameter, GridExact) {
  Rng rng(7);
  const Graph g = make_grid(5, 3, {1, 1}, rng);
  EXPECT_EQ(diameter_exact(CsrGraph(g)), 4 + 2);
}

TEST(Diameter, DoubleSweepOnTreeIsExact) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_random_tree(40, {1, 1}, rng);
    const CsrGraph csr(g);
    EXPECT_EQ(diameter_double_sweep(csr), diameter_exact(csr));
  }
}

// FNV-1a 64 over n, m, then each edge's u, v and capacity bit pattern in
// id order, one xor-multiply per 64-bit word.
std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(g.num_nodes()));
  mix(static_cast<std::uint64_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const double cap = g.capacity(e);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &cap, sizeof(bits));
    mix(static_cast<std::uint64_t>(ep.u));
    mix(static_cast<std::uint64_t>(ep.v));
    mix(bits);
  }
  return h;
}

// The graphs the engine benchmark serves, pinned edge by edge: the
// generators must keep producing them bitwise.
TEST(Generators, GoldenFingerprintsOfBenchmarkGraphs) {
  {
    Rng rng(0x73657276655f7374ull);
    const Graph g = make_gnp_connected(256, 4.0 / 256, {1, 8}, rng);
    EXPECT_EQ(g.num_edges(), 520);
    EXPECT_EQ(graph_fingerprint(g), 0x383bbb4812f51d6aull);
  }
  {
    Rng rng(0x726f7574656d6978ull);
    const Graph g = make_grid(16, 16, {1, 8}, rng);
    EXPECT_EQ(g.num_edges(), 480);
    EXPECT_EQ(graph_fingerprint(g), 0x1b98a72d9850479full);
  }
  {
    Rng rng(0x6d75746174655f70ull);
    const Graph g = make_gnp_connected(16384, 4.0 / 16384, {1, 8}, rng);
    EXPECT_EQ(g.num_edges(), 33103);
    EXPECT_EQ(graph_fingerprint(g), 0xc1c65fa76bb76707ull);
  }
}

TEST(Generators, GridShape) {
  Rng rng(5);
  const Graph g = make_grid(7, 5, {1, 4}, rng);
  EXPECT_EQ(g.num_nodes(), 35);
  EXPECT_EQ(g.num_edges(), 7 * 4 + 6 * 5);
  EXPECT_TRUE(is_connected(CsrGraph(g)));
  EXPECT_GE(g.min_capacity(), 1.0);
  EXPECT_LE(g.max_capacity(), 4.0);
}

TEST(Generators, TorusIsRegular) {
  Rng rng(5);
  const Graph g = make_torus(5, 4, {1, 1}, rng);
  EXPECT_EQ(g.num_nodes(), 20);
  const CsrGraph csr(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(csr.degree(v), 4u);
  EXPECT_TRUE(is_connected(csr));
}

TEST(Generators, GnpAlwaysConnected) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp_connected(60, 0.02, {1, 8}, rng);
    EXPECT_TRUE(is_connected(CsrGraph(g)));
    EXPECT_EQ(g.num_nodes(), 60);
  }
}

TEST(Generators, RandomRegularDegrees) {
  Rng rng(13);
  const Graph g = make_random_regular(30, 4, {1, 1}, rng);
  const CsrGraph csr(g);
  EXPECT_TRUE(is_connected(csr));
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(csr.degree(v), 4u);
}

TEST(Generators, BarbellHasBridge) {
  Rng rng(17);
  const Graph g = make_barbell(6, {1, 1}, 3.0, rng);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_TRUE(is_connected(CsrGraph(g)));
  // Exactly one edge crosses between the halves.
  int crossing = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    if ((ep.u < 6) != (ep.v < 6)) ++crossing;
  }
  EXPECT_EQ(crossing, 1);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(19);
  const Graph g = make_random_tree(25, {1, 1}, rng);
  EXPECT_EQ(g.num_edges(), 24);
  EXPECT_TRUE(is_connected(CsrGraph(g)));
}

TEST(Generators, CaterpillarShape) {
  Rng rng(23);
  const Graph g = make_caterpillar(5, 3, {1, 1}, rng);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 4 + 15);
  EXPECT_TRUE(is_connected(CsrGraph(g)));
}

TEST(Generators, LayeredBottleneckTerminals) {
  Rng rng(29);
  NodeId s = kInvalidNode;
  NodeId t = kInvalidNode;
  const Graph g = make_layered_bottleneck(5, 4, 100.0, 8.0, rng, &s, &t);
  EXPECT_TRUE(is_connected(CsrGraph(g)));
  EXPECT_EQ(s, 0);
  EXPECT_EQ(t, g.num_nodes() - 1);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(2);
  const auto sample = rng.sample_indices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::vector<char> seen(50, 0);
  for (const std::size_t i : sample) {
    EXPECT_LT(i, 50u);
    EXPECT_FALSE(seen[i]);
    seen[i] = 1;
  }
}

}  // namespace
}  // namespace dmf
