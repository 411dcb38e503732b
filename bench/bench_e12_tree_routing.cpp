// E12 (Lemma 9.1): routing residual demands through the maximum-weight
// spanning tree. The lemma is about cost (Õ(D + sqrt n) rounds); the
// quality fact Algorithm 1 relies on is that the *small* leftover
// residual routed this way adds negligible congestion. We measure the
// extra congestion as a function of the residual magnitude.
#include "baselines/dinic.h"
#include "baselines/tree_routing.h"
#include "bench_util.h"
#include "graph/flow.h"
#include "util/stats.h"

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  print_header("E12", "max-weight spanning tree residual routing");
  print_row({"family", "residual", "tree_congestion", "vs_opt_factor"});
  for (const std::string family : {"gnp", "grid"}) {
    for (const double magnitude : {1.0, 0.1, 0.01}) {
      Summary congestion;
      Summary factor;
      for (int trial = 0; trial < 5; ++trial) {
        Rng rng(12000 + trial * 7 + static_cast<int>(magnitude * 100));
        const Graph g = make_family(family, 80, rng);
        const RootedTree mwst = max_weight_spanning_tree(g, 0);
        const NodeId s = 0;
        const NodeId t = g.num_nodes() - 1;
        const std::vector<double> b =
            st_demand(g.num_nodes(), s, t, magnitude);
        const std::vector<double> flow =
            route_demand_on_spanning_tree(CsrGraph(g), mwst, b);
        const double cong = max_congestion(g, flow);
        congestion.add(cong);
        const double opt = magnitude / dinic_max_flow_value(g, s, t);
        factor.add(cong / opt);
      }
      print_row({family, fmt(magnitude, 2), fmt(congestion.mean(), 4),
                 fmt(factor.mean(), 2)});
    }
  }
  std::printf("\nexpected shape: congestion scales linearly with the "
              "residual (constant vs_opt factor), so once Algorithm 1 has "
              "shrunk the residual geometrically, tree routing is free.\n");
  return 0;
}
