// Adapters that present the exact baselines (Dinic, push-relabel) through
// the approximate solver's result type, so the FlowEngine's registry can
// dispatch a query to either family and hand back one uniform result.
//
// An exact answer is reported with alpha = 1, num_trees = 0 and
// converged = true; `rounds` carries the trivial CONGEST accounting for
// centrally collecting the graph and broadcasting the flow (O(m) words
// pipelined over a BFS tree), which is exactly the naive baseline the
// paper's algorithm is measured against.
#pragma once

#include "engine/registry.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "maxflow/sherman.h"

namespace dmf {

// Solve s-t max flow exactly with the requested baseline: kDinic or
// kPushRelabel. Any other kind throws RequirementError (the engine
// routes kSherman and kCongestSim itself).
// The engine passes the snapshot's CSR view; the Graph overload packs a
// transient one.
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           NodeId s, NodeId t);
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const Graph& g,
                                           NodeId s, NodeId t);

}  // namespace dmf
