// Undirected, capacitated (multi)graph — the base structure of the library.
//
// Nodes are dense integer ids [0, num_nodes()). Edges are dense integer ids
// [0, num_edges()) and carry a positive capacity. Parallel edges are
// allowed (several constructions in the paper produce multigraphs);
// self-loops are rejected. The adjacency structure is maintained
// incrementally, so the graph can be built edge by edge.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/require.h"

namespace dmf {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

// Monotonically increasing snapshot version assigned by a GraphStore
// (graph/graph_store.h). Version 0 is the initial snapshot; every
// applied MutationBatch produces the next one.
using GraphVersion = std::uint64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

struct EdgeEndpoints {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
};

// One (neighbor, edge) pair, for callers that keep a local adjacency.
struct AdjEntry {
  NodeId to = kInvalidNode;
  EdgeId edge = kInvalidEdge;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId num_nodes) { add_nodes(num_nodes); }

  NodeId add_node() {
    add_nodes(1);
    return num_nodes_ - 1;
  }

  // Throws, leaving the count unchanged, if it would pass the NodeId range.
  void add_nodes(NodeId count) {
    DMF_REQUIRE(count >= 0, "add_nodes: negative count");
    DMF_REQUIRE(count <= std::numeric_limits<NodeId>::max() - num_nodes_,
                "add_nodes: node count would overflow NodeId");
    num_nodes_ += count;
  }

  EdgeId add_edge(NodeId u, NodeId v, double capacity = 1.0) {
    DMF_REQUIRE(is_valid_node(u) && is_valid_node(v), "add_edge: bad node");
    DMF_REQUIRE(u != v, "add_edge: self-loops are not supported");
    DMF_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                "add_edge: capacity must be positive and finite");
    const auto e = static_cast<EdgeId>(endpoints_.size());
    endpoints_.push_back({u, v});
    capacities_.push_back(capacity);
    return e;
  }

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(endpoints_.size());
  }

  [[nodiscard]] bool is_valid_node(NodeId v) const {
    return v >= 0 && v < num_nodes();
  }
  [[nodiscard]] bool is_valid_edge(EdgeId e) const {
    return e >= 0 && e < num_edges();
  }

  // Accessor checks are DMF_REQUIRE across the board — on in Release
  // too, consistently with the mutators. Hot loops should traverse the
  // CsrGraph snapshot view (graph/csr_graph.h), whose accessors are
  // debug-checked only.
  [[nodiscard]] EdgeEndpoints endpoints(EdgeId e) const {
    DMF_REQUIRE(is_valid_edge(e), "endpoints: bad edge");
    return endpoints_[static_cast<std::size_t>(e)];
  }

  // The endpoint of e that is not v.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const {
    const EdgeEndpoints ep = endpoints(e);
    DMF_REQUIRE(ep.u == v || ep.v == v, "other_endpoint: v not on e");
    return ep.u == v ? ep.v : ep.u;
  }

  [[nodiscard]] double capacity(EdgeId e) const {
    DMF_REQUIRE(is_valid_edge(e), "capacity: bad edge");
    return capacities_[static_cast<std::size_t>(e)];
  }

  void set_capacity(EdgeId e, double capacity) {
    DMF_REQUIRE(is_valid_edge(e), "set_capacity: bad edge");
    DMF_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                "set_capacity: capacity must be positive and finite");
    capacities_[static_cast<std::size_t>(e)] = capacity;
  }

  [[nodiscard]] double total_capacity() const {
    double total = 0.0;
    for (double c : capacities_) total += c;
    return total;
  }

  [[nodiscard]] double max_capacity() const {
    double mx = 0.0;
    for (double c : capacities_) mx = c > mx ? c : mx;
    return mx;
  }

  [[nodiscard]] double min_capacity() const {
    double mn = capacities_.empty() ? 0.0 : capacities_.front();
    for (double c : capacities_) mn = c < mn ? c : mn;
    return mn;
  }

  [[nodiscard]] const std::vector<double>& capacities() const {
    return capacities_;
  }

  // Contiguous endpoint storage; the CsrGraph snapshot view borrows it
  // so packing never copies the edge list.
  [[nodiscard]] const std::vector<EdgeEndpoints>& edge_endpoints() const {
    return endpoints_;
  }

  [[nodiscard]] std::string summary() const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<EdgeEndpoints> endpoints_;
  std::vector<double> capacities_;
};

}  // namespace dmf
