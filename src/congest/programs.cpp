#include "congest/programs.h"

namespace dmf::congest {

DistributedBfsResult run_distributed_bfs(const Graph& g, NodeId root) {
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<BfsTreeProgram> programs;
  programs.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.emplace_back(BfsTreeProgram::Config{root});
  }
  DistributedBfsResult result;
  result.stats = net.run(programs);
  result.parent_port.resize(programs.size());
  result.depth.resize(programs.size());
  for (std::size_t v = 0; v < programs.size(); ++v) {
    result.parent_port[v] = programs[v].parent_port();
    result.depth[v] = programs[v].depth();
  }
  return result;
}

std::vector<std::vector<std::size_t>> children_ports_from_bfs(
    const Graph& g, const DistributedBfsResult& bfs) {
  // Ports are CSR row positions, as in Network.
  const CsrGraph csr(g);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<std::size_t>> children(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t pp = bfs.parent_port[static_cast<std::size_t>(v)];
    if (pp == kNoPort) continue;  // root (or unreached)
    const CsrRow row = csr.neighbors(v);
    const NodeId parent = row.to(pp);
    const EdgeId via = row.edge(pp);
    // Find the parent's port for this edge.
    const CsrRow pports = csr.neighbors(parent);
    for (std::size_t q = 0; q < pports.size(); ++q) {
      if (pports.edge(q) == via) {
        children[static_cast<std::size_t>(parent)].push_back(q);
        break;
      }
    }
  }
  return children;
}

}  // namespace dmf::congest
