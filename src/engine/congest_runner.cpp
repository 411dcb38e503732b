#include "engine/congest_runner.h"

#include <algorithm>

#include "congest/push_relabel_dist.h"
#include "engine/session.h"
#include "graph/algorithms.h"

namespace dmf {

CongestRunResult CongestRunner::run(const CsrGraph& csr,
                                    const CongestQuery& query) {
  DMF_REQUIRE(csr.is_valid_node(query.source) &&
                  csr.is_valid_node(query.sink) &&
                  query.source != query.sink,
              "CongestRunner: bad terminals");
  congest::DistributedPushRelabelOptions options;
  options.max_rounds = query.max_rounds;
  // More OpenMP threads than the machine has only slow the run down (a
  // huge request crashes libgomp), and the result is thread-invariant.
  options.threads = std::min(query.threads, resolve_worker_threads(0));
  CongestRunResult out;
  const congest::DistributedPushRelabelResult result =
      run_distributed_push_relabel(csr, query.source, query.sink, options);
  out.flow_value = result.flow_value;
  out.stats = result.stats;

  // Ledger: the simulated rounds split by pulse phase (pulse = 3 rounds:
  // height announcements, pushes, apply+relabel), plus the termination
  // detection a real deployment pays — one O(D) convergecast confirming
  // global settlement, with D measured as the sink's BFS eccentricity.
  const int rounds = result.stats.rounds;
  const int pulses = rounds / 3;
  const int tail = rounds - 3 * pulses;
  out.ledger.charge("pushrel/phase_a_announce", pulses + (tail > 0 ? 1 : 0));
  out.ledger.charge("pushrel/phase_b_push", pulses + (tail > 1 ? 1 : 0));
  out.ledger.charge("pushrel/phase_c_apply_relabel", pulses);
  const std::vector<int> dist = bfs_distances(csr, query.sink);
  int depth = 0;
  for (const int d : dist) depth = std::max(depth, d);
  out.ledger.charge("termination/convergecast", depth + 1);
  return out;
}

}  // namespace dmf
