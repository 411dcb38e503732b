// CongestRunner: round-complexity queries served by the FlowEngine.
//
// The paper's experiment E1 compares the pipeline's accounted CONGEST
// rounds against the distributed push–relabel strawman. CongestRunner is
// the serving-layer wrapper around that strawman: it runs the
// message-passing PushRelabelProgram on the snapshot's CsrGraph (the
// same packed view every other solver rides) and reports the measured
// RunStats plus a RoundLedger breakdown — per-phase round counts and the
// O(D)-round termination convergecast a real deployment would pay.
//
// CongestQuery goes through FlowEngine::submit() like any other query:
// it always reports the solver "congest-push-relabel", the result rides
// a typed Ticket<CongestRunResult>, and EngineStats folds the simulated
// rounds into query_rounds_total.
#pragma once

#include "congest/ledger.h"
#include "congest/network.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

// Round-complexity probe: how many CONGEST rounds does distributed
// push–relabel need to move max flow from `source` to `sink` on the
// serving snapshot?
struct CongestQuery {
  NodeId source = kInvalidNode;
  NodeId sink = kInvalidNode;
  int max_rounds = 0;  // 0: the Ω(n²)-sized default budget
  // Simulator stepping threads. The engine default keeps each query
  // single-threaded — the worker pool already runs queries in parallel;
  // raise it for one big dedicated run. Clamped to the hardware thread
  // count; 0 means all of them. The result is identical at every value.
  int threads = 1;
};

struct CongestRunResult {
  double flow_value = 0.0;
  congest::RunStats stats;
  congest::RoundLedger ledger;  // per-phase breakdown + termination cost
};

class CongestRunner {
 public:
  // Execute the query on a packed snapshot view. Deterministic: the
  // result depends only on the graph and the query content.
  [[nodiscard]] static CongestRunResult run(const CsrGraph& csr,
                                            const CongestQuery& query);
};

}  // namespace dmf
