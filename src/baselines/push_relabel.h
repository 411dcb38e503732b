// Goldberg–Tarjan push–relabel, centralized (FIFO + gap heuristic).
//
// Second exact reference implementation; cross-checked against Dinic in
// the test suite. Also the sequential counterpart of the distributed
// push–relabel program in src/congest/push_relabel_dist.*, which the paper
// cites as the natural-but-slow Omega(n^2)-round CONGEST baseline (§1.2).
#pragma once

#include "baselines/dinic.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

// Arc lists are flattened from the CSR rows exactly as in dinic.cpp.
MaxFlowResult push_relabel_max_flow(const CsrGraph& g, NodeId s, NodeId t);

}  // namespace dmf
