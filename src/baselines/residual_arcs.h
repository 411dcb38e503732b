// Flat residual arc lists shared by the exact baselines.
//
// Both Dinic and push-relabel model an undirected edge e as the mutual
// arc pair (2e, 2e+1) with antisymmetric flow. The per-node arc layout
// IS the CSR layout: node v's arcs live at [offsets[v], offsets[v+1])
// and arc i's target is the CSR neighbor at the same position — so
// FlatArcs borrows the CsrGraph's offsets and neighbor arrays directly
// and materializes only the direction-tagged arc ids. Per-node order
// matches the pre-CSR vector-of-vectors layout (edge-id ascending), so
// both solvers traverse arcs identically to their earlier selves.
//
// Lifetime: borrows from `g`; the CsrGraph must outlive the FlatArcs.
#pragma once

#include <vector>

#include "graph/csr_graph.h"

namespace dmf {

struct FlatArcs {
  const std::size_t* offsets = nullptr;  // n + 1 row boundaries (borrowed)
  const NodeId* targets = nullptr;       // 2m arc targets (borrowed)
  std::vector<EdgeId> arcs;              // 2m arc ids (2e + direction)
};

inline FlatArcs build_flat_arcs(const CsrGraph& g) {
  FlatArcs out;
  out.offsets = g.offsets().data();
  out.targets = g.neighbor_array().data();
  const std::vector<EdgeId>& edge_ids = g.edge_id_array();
  out.arcs.resize(edge_ids.size());
  const EdgeEndpoints* eps = g.endpoints_data();
  std::size_t pos = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const CsrRow row = g.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const EdgeId e = row.edge(i);
      // Arc 2e points u -> v of edge e; self-loops are rejected by
      // Graph::add_edge, so the endpoint test is unambiguous.
      out.arcs[pos++] =
          2 * e + (eps[static_cast<std::size_t>(e)].u == v ? 0 : 1);
    }
  }
  return out;
}

}  // namespace dmf
