#include "graph/csr_graph.h"

#include <utility>

namespace dmf {

namespace {

template <typename T>
[[nodiscard]] std::shared_ptr<const std::vector<T>> share(std::vector<T> v) {
  return std::make_shared<const std::vector<T>>(std::move(v));
}

}  // namespace

CsrGraph::CsrGraph(std::shared_ptr<const Graph> graph,
                   const CsrGraph* previous)
    : graph_(std::move(graph)) {
  DMF_REQUIRE(graph_ != nullptr, "CsrGraph: null graph");
  build(previous);
}

CsrGraph::CsrGraph(const Graph& graph)
    : graph_(std::shared_ptr<const Graph>(std::shared_ptr<void>(), &graph)) {
  build(nullptr);
}

void CsrGraph::build(const CsrGraph* previous) {
  const Graph& g = *graph_;
  num_nodes_ = g.num_nodes();
  num_edges_ = g.num_edges();
  endpoints_ = g.edge_endpoints().data();
  capacities_ = g.capacities().data();
  const auto n = static_cast<std::size_t>(num_nodes_);
  const auto m = static_cast<std::size_t>(num_edges_);

  // Mutation is append-only (add_nodes / add_edge / set_capacity), so
  // within one copy-on-write lineage equal edge counts mean the packed
  // half-edge arrays are identical, and equal node counts additionally
  // mean the offsets are. Sharing is a pointer copy.
  const bool same_edges =
      previous != nullptr && previous->num_edges_ == num_edges_;
  if (same_edges && previous->num_nodes_ == num_nodes_) {
    offsets_ = previous->offsets_;
    neighbors_ = previous->neighbors_;
    edge_ids_ = previous->edge_ids_;
    cache_raw_views();
    return;
  }

  std::vector<std::size_t> off(n + 1, 0);
  if (same_edges) {
    // Nodes appended, adjacency untouched: share the packed arrays and
    // extend the old offsets with empty rows.
    const std::vector<std::size_t>& old = previous->offsets();
    for (std::size_t v = 0; v <= n; ++v) {
      off[v] = v < old.size() ? old[v] : old.back();
    }
    offsets_ = share(std::move(off));
    neighbors_ = previous->neighbors_;
    edge_ids_ = previous->edge_ids_;
    cache_raw_views();
    return;
  }

  // Full pack: count degrees, prefix-sum, then place both half-edges of
  // every edge in edge-id order. Per row that yields increasing edge
  // ids — the order Graph::add_edge created them.
  const EdgeEndpoints* eps = endpoints_;
  for (std::size_t e = 0; e < m; ++e) {
    ++off[static_cast<std::size_t>(eps[e].u) + 1];
    ++off[static_cast<std::size_t>(eps[e].v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];

  std::vector<NodeId> neighbors(2 * m);
  std::vector<EdgeId> edge_ids(2 * m);
  std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const auto u = static_cast<std::size_t>(eps[e].u);
    const auto v = static_cast<std::size_t>(eps[e].v);
    const auto id = static_cast<EdgeId>(e);
    neighbors[cursor[u]] = eps[e].v;
    edge_ids[cursor[u]++] = id;
    neighbors[cursor[v]] = eps[e].u;
    edge_ids[cursor[v]++] = id;
  }
  offsets_ = share(std::move(off));
  neighbors_ = share(std::move(neighbors));
  edge_ids_ = share(std::move(edge_ids));
  cache_raw_views();
}

void CsrGraph::cache_raw_views() {
  offsets_ptr_ = offsets_->data();
  neighbors_ptr_ = neighbors_->data();
  edge_ids_ptr_ = edge_ids_->data();
}

std::vector<NodeId> half_edge_sources(const CsrGraph& csr) {
  const auto n = static_cast<std::size_t>(csr.num_nodes());
  const std::vector<std::size_t>& off = csr.offsets();
  std::vector<NodeId> sources(off[n]);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t h = off[v]; h < off[v + 1]; ++h) {
      sources[h] = static_cast<NodeId>(v);
    }
  }
  return sources;
}

std::vector<std::size_t> reverse_half_edges(const CsrGraph& csr) {
  const auto m = static_cast<std::size_t>(csr.num_edges());
  const std::vector<EdgeId>& edge_ids = csr.edge_id_array();
  constexpr std::size_t kUnseen = static_cast<std::size_t>(-1);
  // Each edge id occurs in exactly two slots (no self-loops); pair them.
  std::vector<std::size_t> first_slot(m, kUnseen);
  std::vector<std::size_t> reverse(edge_ids.size());
  for (std::size_t h = 0; h < edge_ids.size(); ++h) {
    const auto e = static_cast<std::size_t>(edge_ids[h]);
    if (first_slot[e] == kUnseen) {
      first_slot[e] = h;
    } else {
      reverse[first_slot[e]] = h;
      reverse[h] = first_slot[e];
      first_slot[e] = kUnseen;  // tolerate reuse within a row scan
    }
  }
  return reverse;
}

}  // namespace dmf
