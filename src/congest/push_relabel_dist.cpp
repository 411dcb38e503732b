#include "congest/push_relabel_dist.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace dmf::congest {

RunOptions push_relabel_run_options(
    NodeId n, const DistributedPushRelabelOptions& options) {
  RunOptions run;
  if (options.max_rounds > 0) {
    run.max_rounds = options.max_rounds;
  } else {
    // The Ω(n²) budget, computed wide and clamped: at engine-scale n the
    // 32-bit product would overflow and break the run at round 0.
    const std::int64_t budget =
        64 * static_cast<std::int64_t>(n) * static_cast<std::int64_t>(n) +
        4096;
    run.max_rounds = static_cast<int>(
        std::min<std::int64_t>(budget, std::numeric_limits<int>::max()));
  }
  // Nodes sleep instead of going silent, so the quiescence stop is
  // redundant with the settle oracle; disable it to keep the oracle the
  // single authority on termination.
  run.quiet_rounds_to_stop = 0;
  // Only stop on pulse boundaries: an earlier stop could strand phase-B
  // flow updates undelivered and break conservation.
  run.stop_interval = 3;
  run.threads = options.threads;
  return run;
}

DistributedPushRelabelResult run_distributed_push_relabel(
    const CsrGraph& g, NodeId source, NodeId sink,
    const DistributedPushRelabelOptions& options) {
  DMF_REQUIRE(g.is_valid_node(source) && g.is_valid_node(sink) &&
                  source != sink,
              "run_distributed_push_relabel: bad terminals");
  Network net(g);
  std::vector<PushRelabelProgram> programs;
  programs.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.emplace_back(PushRelabelProgram::Config{source, sink});
  }
  const RunOptions run = push_relabel_run_options(g.num_nodes(), options);
  const auto all_settled = [&programs, source, sink]() {
    for (std::size_t v = 0; v < programs.size(); ++v) {
      const auto id = static_cast<NodeId>(v);
      if (id == source || id == sink) continue;
      if (programs[v].excess() > 1e-9) return false;
    }
    return true;
  };
  DistributedPushRelabelResult result;
  result.stats = net.run(programs, run, all_settled);
  result.flow_value = programs[static_cast<std::size_t>(sink)].excess();
  return result;
}

}  // namespace dmf::congest
