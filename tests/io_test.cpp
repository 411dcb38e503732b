// Tests for DIMACS max-flow I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/dinic.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace dmf {
namespace {

TEST(DimacsIo, ParsesBasicInstance) {
  std::istringstream in(
      "c tiny instance\n"
      "p max 4 5\n"
      "n 1 s\n"
      "n 4 t\n"
      "a 1 2 10\n"
      "a 2 3 3\n"
      "a 3 4 10\n"
      "a 2 1 10\n"  // reverse arc merges into the same undirected edge
      "a 1 3 2\n");
  const FlowInstance instance = read_dimacs(in);
  EXPECT_EQ(instance.graph.num_nodes(), 4);
  EXPECT_EQ(instance.graph.num_edges(), 4);  // 1-2 merged
  EXPECT_EQ(instance.source, 0);
  EXPECT_EQ(instance.sink, 3);
  EXPECT_DOUBLE_EQ(dinic_max_flow_value(instance.graph, instance.source,
                                        instance.sink),
                   5.0);
}

TEST(DimacsIo, MergeKeepsMaxCapacity) {
  std::istringstream in(
      "p max 2 2\n"
      "a 1 2 3\n"
      "a 2 1 7\n");
  const FlowInstance instance = read_dimacs(in);
  ASSERT_EQ(instance.graph.num_edges(), 1);
  EXPECT_DOUBLE_EQ(instance.graph.capacity(0), 7.0);
}

TEST(DimacsIo, SkipsSelfLoopsAndZeroCapacity) {
  std::istringstream in(
      "p max 3 3\n"
      "a 1 1 5\n"
      "a 1 2 0\n"
      "a 2 3 4\n");
  const FlowInstance instance = read_dimacs(in);
  EXPECT_EQ(instance.graph.num_edges(), 1);
}

TEST(DimacsIo, RejectsMissingProblemLine) {
  std::istringstream in("a 1 2 3\n");
  EXPECT_THROW(read_dimacs(in), RequirementError);
}

TEST(DimacsIo, RejectsWrongProblemKind) {
  std::istringstream in("p sp 3 2\n");
  EXPECT_THROW(read_dimacs(in), RequirementError);
}

TEST(DimacsIo, RejectsOutOfRangeIds) {
  std::istringstream in(
      "p max 3 1\n"
      "a 1 9 5\n");
  EXPECT_THROW(read_dimacs(in), RequirementError);
}

// Regression: the node count was narrowed to NodeId unchecked, so
// 2^32 + 3 nodes loaded as a 3-node graph.
TEST(DimacsIo, RejectsNodeCountOutsideInt32) {
  for (const char* count : {"4294967299", "2147483648", "0", "-3"}) {
    std::istringstream in(std::string("p max ") + count + " 1\na 1 3 5\n");
    EXPECT_THROW(read_dimacs(in), RequirementError) << count;
  }
}

// A second problem line used to re-create the graph silently.
TEST(DimacsIo, RejectsDuplicateProblemLine) {
  std::istringstream in(
      "p max 3 1\n"
      "p max 3 1\n"
      "a 1 2 5\n");
  EXPECT_THROW(read_dimacs(in), RequirementError);
}

// Regression: an overflowing capacity literal parses to +inf (or was
// silently zeroed by stream extraction, dropping the arc); an explicit
// "inf" used to pass Graph::add_edge's `> 0` check outright. The
// loader now rejects all non-finite capacities.
TEST(DimacsIo, RejectsNonFiniteCapacity) {
  {
    std::istringstream in(
        "p max 3 1\n"
        "a 1 2 1e400\n");
    EXPECT_THROW(read_dimacs(in), RequirementError);
  }
  {
    std::istringstream in(
        "p max 3 1\n"
        "a 1 2 inf\n");
    EXPECT_THROW(read_dimacs(in), RequirementError);
  }
  {
    std::istringstream in(
        "p max 3 1\n"
        "a 1 2 nan\n");
    EXPECT_THROW(read_dimacs(in), RequirementError);
  }
}

TEST(DimacsIo, RoundTripPreservesMaxFlow) {
  Rng rng(811);
  for (int trial = 0; trial < 5; ++trial) {
    FlowInstance original;
    original.graph = make_gnp_connected(25, 0.2, {1, 9}, rng);
    original.source = 0;
    original.sink = 24;
    std::ostringstream out;
    write_dimacs(out, original);
    std::istringstream in(out.str());
    const FlowInstance parsed = read_dimacs(in);
    EXPECT_EQ(parsed.graph.num_nodes(), original.graph.num_nodes());
    EXPECT_EQ(parsed.source, original.source);
    EXPECT_EQ(parsed.sink, original.sink);
    EXPECT_NEAR(
        dinic_max_flow_value(parsed.graph, parsed.source, parsed.sink),
        dinic_max_flow_value(original.graph, original.source, original.sink),
        1e-9);
  }
}

TEST(DimacsIo, FileRoundTrip) {
  Rng rng(821);
  FlowInstance original;
  original.graph = make_grid(4, 4, {1, 5}, rng);
  original.source = 0;
  original.sink = 15;
  const std::string path = "/tmp/dmf_io_test.dimacs";
  write_dimacs_file(path, original);
  const FlowInstance parsed = read_dimacs_file(path);
  EXPECT_EQ(parsed.graph.num_nodes(), 16);
  EXPECT_EQ(parsed.graph.num_edges(), original.graph.num_edges());
}

TEST(DimacsIo, MissingFileThrows) {
  EXPECT_THROW(read_dimacs_file("/nonexistent/definitely/missing"),
               RequirementError);
}

}  // namespace
}  // namespace dmf
