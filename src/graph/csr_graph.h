// Flat compact-sparse-row adjacency of a Graph — the library's only
// adjacency structure.
//
// Graph is an edge list (graph/graph.h); every traversal runs on a
// CsrGraph packed from it. GraphStore snapshots are immutable after
// publish, so each one packs its CsrGraph once; a stack-local graph
// gets a non-owning view in O(n + m). CsrGraph lays the adjacency out
// in four contiguous arrays
//
//   offsets[n+1]   row boundaries (row v = [offsets[v], offsets[v+1]))
//   neighbors[2m]  the node reached by each half-edge
//   edge_ids[2m]   the graph edge each half-edge belongs to
//   capacities[m]  per-edge capacity (borrowed from the Graph)
//
// Every row lists a node's incident edges in increasing edge id — the
// order Graph::add_edge created them — so traversal order, and with it
// every seeded result, depends only on the edge list.
//
// Division of labor: Graph is the safe mutable builder (every accessor
// DMF_REQUIREs its argument, in Release too); CsrGraph is the frozen hot
// view (DMF_ASSERT only — free in Release), plus raw array access for
// inner loops that index edges directly.
//
// Lifetime: the owning form holds the Graph via shared_ptr and borrows
// its endpoint/capacity storage (zero copies — snapshots are immutable).
// The structure arrays are always packed in memory from the edge list
// — never adopted from outside, so their contents are correct by
// construction — and held as shared_ptr<const std::vector<T>>, so
// CsrGraphs of different snapshots in the same copy-on-write lineage
// share them when a mutation batch did not touch the adjacency
// (capacity-only batches share everything; node-only batches share the
// packed half-edge arrays and re-derive the offsets); see
// GraphStore::apply. GraphStore::open packs a reopened snapshot's CSR
// the same way; none is ever read from disk.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.h"

namespace dmf {

// One CSR adjacency row: parallel views of the neighbor reached and the
// edge used by each incident half-edge. Index iteration:
//
//   const CsrRow row = csr.neighbors(v);
//   for (std::size_t i = 0; i < row.size(); ++i) use(row.to(i), row.edge(i));
class CsrRow {
 public:
  CsrRow(const NodeId* to, const EdgeId* edge, std::size_t size)
      : to_(to), edge_(edge), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] NodeId to(std::size_t i) const {
    DMF_ASSERT(i < size_, "CsrRow::to: index out of range");
    return to_[i];
  }
  [[nodiscard]] EdgeId edge(std::size_t i) const {
    DMF_ASSERT(i < size_, "CsrRow::edge: index out of range");
    return edge_[i];
  }

 private:
  const NodeId* to_;
  const EdgeId* edge_;
  std::size_t size_;
};

class CsrGraph {
 public:
  // Owning form: keeps the graph alive, so snapshots carrying a CsrGraph
  // are freely shareable. `previous` (optional) is the CSR of an
  // ancestor snapshot in the same copy-on-write lineage; its packed
  // arrays are reused when the adjacency structure is unchanged. Only
  // pass a CSR whose graph `graph` was derived from by append-only
  // mutation (GraphStore guarantees this) — reuse is decided from the
  // node/edge counts.
  explicit CsrGraph(std::shared_ptr<const Graph> graph,
                    const CsrGraph* previous = nullptr);

  // Non-owning view for stack-local graphs; the caller guarantees the
  // graph outlives the CsrGraph.
  explicit CsrGraph(const Graph& graph);

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] EdgeId num_edges() const { return num_edges_; }

  [[nodiscard]] bool is_valid_node(NodeId v) const {
    return v >= 0 && v < num_nodes_;
  }
  [[nodiscard]] bool is_valid_edge(EdgeId e) const {
    return e >= 0 && e < num_edges_;
  }

  [[nodiscard]] CsrRow neighbors(NodeId v) const {
    DMF_ASSERT(is_valid_node(v), "CsrGraph::neighbors: bad node");
    const auto vi = static_cast<std::size_t>(v);
    const std::size_t begin = offsets_ptr_[vi];
    return CsrRow(neighbors_ptr_ + begin, edge_ids_ptr_ + begin,
                  offsets_ptr_[vi + 1] - begin);
  }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    DMF_ASSERT(is_valid_node(v), "CsrGraph::degree: bad node");
    const auto vi = static_cast<std::size_t>(v);
    return offsets_ptr_[vi + 1] - offsets_ptr_[vi];
  }

  // Sum of capacities of edges incident to v, accumulated in edge-id
  // order.
  [[nodiscard]] double weighted_degree(NodeId v) const {
    const CsrRow row = neighbors(v);
    double total = 0.0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      total += capacities_[static_cast<std::size_t>(row.edge(i))];
    }
    return total;
  }

  [[nodiscard]] EdgeEndpoints endpoints(EdgeId e) const {
    DMF_ASSERT(is_valid_edge(e), "CsrGraph::endpoints: bad edge");
    return endpoints_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const {
    const EdgeEndpoints ep = endpoints(e);
    DMF_ASSERT(ep.u == v || ep.v == v, "CsrGraph::other_endpoint: v not on e");
    return ep.u == v ? ep.v : ep.u;
  }

  [[nodiscard]] double capacity(EdgeId e) const {
    DMF_ASSERT(is_valid_edge(e), "CsrGraph::capacity: bad edge");
    return capacities_[static_cast<std::size_t>(e)];
  }

  // Raw arrays for inner loops that index edges directly (gradient
  // sweeps, congestion scans). Unchecked by design.
  [[nodiscard]] const EdgeEndpoints* endpoints_data() const {
    return endpoints_;
  }
  [[nodiscard]] const double* capacities_data() const { return capacities_; }

  // The packed structure arrays. Sharing across snapshot versions is
  // observable as data() pointer equality.
  [[nodiscard]] const std::vector<std::size_t>& offsets() const {
    return *offsets_;
  }
  [[nodiscard]] const std::vector<NodeId>& neighbor_array() const {
    return *neighbors_;
  }
  [[nodiscard]] const std::vector<EdgeId>& edge_id_array() const {
    return *edge_ids_;
  }

  // The Graph this CSR was packed from (null deleter in the view form).
  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  void build(const CsrGraph* previous);
  void cache_raw_views();

  std::shared_ptr<const Graph> graph_;
  // The packed structure arrays, shared (pointer copy) between snapshot
  // versions whose adjacency is unchanged.
  template <typename T>
  using Packed = std::shared_ptr<const std::vector<T>>;
  Packed<std::size_t> offsets_;  // n + 1
  Packed<NodeId> neighbors_;     // 2m
  Packed<EdgeId> edge_ids_;      // 2m
  // Raw views of the arrays above (and the graph's), cached so a row
  // lookup is two offset loads with no pointer indirections.
  const std::size_t* offsets_ptr_ = nullptr;
  const NodeId* neighbors_ptr_ = nullptr;
  const EdgeId* edge_ids_ptr_ = nullptr;
  const EdgeEndpoints* endpoints_ = nullptr;  // borrowed from graph_
  const double* capacities_ = nullptr;        // borrowed from graph_
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
};

// --- shared half-edge helpers ------------------------------------------------
// A "half-edge slot" is a global index into the CSR's packed arrays:
// slot h belongs to row v iff offsets[v] <= h < offsets[v+1], and
// identifies edge edge_ids[h] as seen from v. Several flat subsystems
// (the CONGEST simulator's message arenas, per-port tables) index their
// state by slot; these helpers derive the two standard companion tables.

// For every slot, the node owning its row (size 2m). The inverse of the
// offsets array, materialized for O(1) slot -> node lookups.
[[nodiscard]] std::vector<NodeId> half_edge_sources(const CsrGraph& csr);

// For every slot, the slot of the SAME edge in the other endpoint's row
// (size 2m) — the "reverse port" table: a message sent out of slot h
// arrives in slot reverse[h]. Parallel edges pair up correctly because
// slots are matched per edge id, not per endpoint.
[[nodiscard]] std::vector<std::size_t> reverse_half_edges(const CsrGraph& csr);

}  // namespace dmf
