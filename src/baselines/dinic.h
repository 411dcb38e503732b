// Dinic's exact maximum-flow algorithm on undirected graphs.
//
// This is the correctness reference for the approximate distributed
// algorithm (Theorem 1.1 promises value >= (1-eps) * OPT) and the exact
// oracle used to measure congestion-approximator quality: for an s-t
// demand of value F, the optimal congestion is F / maxflow(s,t).
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

struct MaxFlowResult {
  double value = 0.0;
  // Signed flow per undirected edge, positive in the endpoints(e).u ->
  // endpoints(e).v direction. Satisfies conservation and capacities.
  std::vector<double> edge_flow;
};

// Exact max flow. An undirected edge of capacity c admits net flow at most
// c in either direction (standard antisymmetric residual model). The
// residual network is laid out flat from the CSR rows.
MaxFlowResult dinic_max_flow(const CsrGraph& g, NodeId s, NodeId t);

// The value only. The Graph form packs a CSR per call.
double dinic_max_flow_value(const CsrGraph& g, NodeId s, NodeId t);
// dmf-lint: allow(graph-twin) perfbench's answer oracle calls this form
double dinic_max_flow_value(const Graph& g, NodeId s, NodeId t);

// Minimum s-t cut capacity and the source-side node set, from the final
// Dinic residual graph (max-flow = min-cut).
struct MinCutResult {
  double capacity = 0.0;
  std::vector<char> source_side;  // 1 if node is on s's side
};

MinCutResult dinic_min_cut(const CsrGraph& g, NodeId s, NodeId t);

}  // namespace dmf
