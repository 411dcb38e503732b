// E10 (Lemmas 8.6/8.7): measured embedding congestion between the graph
// and its j-tree. We route every multigraph edge through the j-tree
// along the lemma's paths (tree path inside a component; via portals and
// the dedicated core edge across components) and report the worst
// relative load on forest links — the lemmas promise O(1).
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "jtree/jtree.h"
#include "lsst/akpw.h"
#include "util/stats.h"

namespace {

using namespace dmf;

double embedding_congestion(const Multigraph& mg, const JTree& jt) {
  const auto nn = static_cast<std::size_t>(mg.num_nodes());
  std::vector<int> depth(nn, 0);
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    int d = 0;
    for (NodeId x = v;
         jt.forest_parent[static_cast<std::size_t>(x)] != kInvalidNode;
         x = jt.forest_parent[static_cast<std::size_t>(x)]) {
      ++d;
    }
    depth[static_cast<std::size_t>(v)] = d;
  }
  std::vector<double> load(nn, 0.0);
  const auto add_path = [&](NodeId a, NodeId b, double cap) {
    while (depth[static_cast<std::size_t>(a)] >
           depth[static_cast<std::size_t>(b)]) {
      load[static_cast<std::size_t>(a)] += cap;
      a = jt.forest_parent[static_cast<std::size_t>(a)];
    }
    while (depth[static_cast<std::size_t>(b)] >
           depth[static_cast<std::size_t>(a)]) {
      load[static_cast<std::size_t>(b)] += cap;
      b = jt.forest_parent[static_cast<std::size_t>(b)];
    }
    while (a != b) {
      load[static_cast<std::size_t>(a)] += cap;
      load[static_cast<std::size_t>(b)] += cap;
      a = jt.forest_parent[static_cast<std::size_t>(a)];
      b = jt.forest_parent[static_cast<std::size_t>(b)];
    }
  };
  for (const MultiEdge& e : mg.edges()) {
    if (jt.portal[static_cast<std::size_t>(e.u)] ==
        jt.portal[static_cast<std::size_t>(e.v)]) {
      add_path(e.u, e.v, e.cap);
    } else {
      add_path(e.u, jt.portal[static_cast<std::size_t>(e.u)], e.cap);
      add_path(e.v, jt.portal[static_cast<std::size_t>(e.v)], e.cap);
    }
  }
  double worst = 0.0;
  for (NodeId v = 0; v < mg.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (jt.forest_parent[vi] != kInvalidNode) {
      worst = std::max(worst, load[vi] / jt.forest_cap[vi]);
    }
  }
  return worst;
}

}  // namespace

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  print_header("E10", "graph -> j-tree embedding congestion (Lemma 8.6)");
  print_row({"family", "j", "portals", "cong_mean", "cong_max"});
  // Heterogeneous capacities (ratio 64) populate several rload classes so
  // F' is non-trivial, and the Lemma 8.2 random cut set is enabled as in
  // the hierarchy — this is the construction as actually used.
  for (const std::string family : {"gnp", "grid", "regular"}) {
    for (const int j : {4, 8, 16}) {
      Summary congestion;
      Summary portals;
      for (int trial = 0; trial < 4; ++trial) {
        Rng rng(10000 + j * 31 + trial);
        Graph g = make_family(family, 100, rng);
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          g.set_capacity(e, static_cast<double>(rng.next_int(1, 64)));
        }
        Multigraph mg = Multigraph::from_graph(g);
        const LowStretchTreeResult lsst =
            akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
        const RootedTree tree = build_rooted_tree_mg(mg, lsst.tree_edges, 0);
        const std::vector<double> sizes(
            static_cast<std::size_t>(mg.num_nodes()), 1.0);
        JTreeOptions options;
        options.j = j;
        options.sqrt_target = std::sqrt(static_cast<double>(g.num_nodes()));
        const JTree jt = build_jtree(mg, tree, sizes, options, rng);
        congestion.add(embedding_congestion(mg, jt));
        portals.add(static_cast<double>(jt.portal_count));
      }
      print_row({family, fmt_int(j), fmt(portals.mean(), 1),
                 fmt(congestion.mean(), 2), fmt(congestion.max(), 2)});
    }
  }
  std::printf("\nexpected shape: congestion O(1) — a small constant "
              "independent of family and j (Lemma 8.6's promise).\n");
  return 0;
}
