#include "baselines/adapters.h"

#include "baselines/dinic.h"
#include "baselines/push_relabel.h"
#include "congest/ledger.h"

namespace dmf {

MaxFlowApproxResult exact_max_flow_adapter(SolverKind kind, const CsrGraph& g,
                                           NodeId s, NodeId t,
                                           int bfs_height) {
  DMF_REQUIRE(kind == SolverKind::kDinic || kind == SolverKind::kPushRelabel,
              "exact_max_flow_adapter: not an exact baseline");
  MaxFlowResult exact = kind == SolverKind::kDinic
                            ? dinic_max_flow(g, s, t)
                            : push_relabel_max_flow(g, s, t);
  MaxFlowApproxResult out;
  out.value = exact.value;
  out.flow = std::move(exact.edge_flow);
  out.alpha = 1.0;
  out.num_trees = 0;
  out.converged = true;
  // Naive CONGEST accounting: collect the m edges at a leader over a BFS
  // tree, solve locally, broadcast the m flow values back.
  const congest::CostModel cost{.n = static_cast<int>(g.num_nodes()),
                                .diameter = bfs_height};
  out.rounds = 2.0 * cost.pipelined(static_cast<double>(g.num_edges()));
  return out;
}

}  // namespace dmf
