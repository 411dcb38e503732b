#include "graph/capacity_reduction.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "graph/csr_graph.h"

namespace dmf {

double widest_path_capacity(const Graph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t),
              "widest_path_capacity: bad terminals");
  const CsrGraph csr(g);
  const auto nn = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> width(nn, 0.0);
  width[static_cast<std::size_t>(s)] = std::numeric_limits<double>::infinity();
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry> queue;
  queue.push({width[static_cast<std::size_t>(s)], s});
  while (!queue.empty()) {
    const auto [w, v] = queue.top();
    queue.pop();
    if (w < width[static_cast<std::size_t>(v)]) continue;
    if (v == t) break;
    const CsrRow row = csr.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double through = std::min(w, csr.capacity(row.edge(i)));
      const NodeId to = row.to(i);
      if (through > width[static_cast<std::size_t>(to)]) {
        width[static_cast<std::size_t>(to)] = through;
        queue.push({through, to});
      }
    }
  }
  return width[static_cast<std::size_t>(t)];
}

CapacityReductionResult reduce_capacity_ratio(const Graph& g, NodeId s,
                                              NodeId t, double eps) {
  DMF_REQUIRE(eps > 0.0 && eps < 1.0, "reduce_capacity_ratio: bad eps");
  const auto m = static_cast<double>(std::max<EdgeId>(1, g.num_edges()));
  const double bottleneck = widest_path_capacity(g, s, t);
  DMF_REQUIRE(bottleneck > 0.0,
              "reduce_capacity_ratio: t unreachable from s");
  // bottleneck <= maxflow <= m * bottleneck.
  const double lo = eps * bottleneck / m;  // negligible below this
  const double hi = m * bottleneck;        // never binding above this
  // Integer resolution: lo maps to ~ ceil(1/eps) units so rounding
  // error per edge stays an eps fraction of the smallest relevant cap.
  const double unit = lo * eps;

  CapacityReductionResult out;
  out.graph = Graph(g.num_nodes());
  out.scale = unit;
  out.ratio_before = g.max_capacity() / g.min_capacity();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const double clamped = std::clamp(g.capacity(e), lo, hi);
    const double units = std::max(1.0, std::round(clamped / unit));
    out.graph.add_edge(ep.u, ep.v, units);
  }
  out.ratio_after = out.graph.max_capacity() / out.graph.min_capacity();
  return out;
}

}  // namespace dmf
