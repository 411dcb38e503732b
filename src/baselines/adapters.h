// Adapters that present the exact baselines (Dinic, push-relabel) through
// the approximate solver's result type, so the FlowEngine can serve a
// query with either family (see engine/solver_select.h) and hand back
// one uniform result.
//
// An exact answer is reported with alpha = 1, num_trees = 0 and
// converged = true; `rounds` carries the trivial CONGEST accounting for
// centrally collecting the graph and broadcasting the flow (O(m) words
// pipelined over a BFS tree), which is exactly the naive baseline the
// paper's algorithm is measured against.
#pragma once

#include "engine/solver_select.h"
#include "graph/csr_graph.h"
#include "maxflow/sherman.h"

namespace dmf {

// Solve s-t max flow exactly with the requested baseline: kDinic or
// kPushRelabel. kSherman throws RequirementError (the engine serves it
// itself). `bfs_height` is build_bfs_tree(g, 0).height, the diameter of
// the rounds accounting; the caller supplies it because the engine
// already holds it for its snapshot (ShermanHierarchy::bfs_height).
MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           NodeId s, NodeId t, int bfs_height);

}  // namespace dmf
