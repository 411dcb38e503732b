#include "capprox/racke.h"

#include <algorithm>
#include <cmath>

#include "congest/ledger.h"
#include "graph/algorithms.h"
#include "lsst/akpw.h"

namespace dmf {
namespace {

// Multiplicative-weights step for the per-tree length updates.
constexpr double kMwuEta = 0.5;

}  // namespace

RackeDistribution build_racke_trees(const Graph& g, const RackeOptions& options,
                                    Rng& rng) {
  DMF_REQUIRE(options.num_trees >= 1, "build_racke_trees: need >= 1 tree");
  const CsrGraph csr(g);
  DMF_REQUIRE(is_connected(csr), "build_racke_trees: graph must be connected");
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);

  const congest::CostModel cost{
      .n = static_cast<int>(n),
      .diameter = n > 0 ? build_bfs_tree(csr, 0).height : 0};

  Multigraph mg = Multigraph::from_graph(g);
  std::vector<double> weight(mg.num_edges(), 1.0);

  RackeDistribution out;
  out.trees.reserve(static_cast<std::size_t>(options.num_trees));
  for (int t = 0; t < options.num_trees; ++t) {
    for (std::size_t i = 0; i < mg.num_edges(); ++i) {
      MultiEdge& e = mg.edge_mutable(i);
      e.length = weight[i] / e.cap;
    }
    const LowStretchTreeResult lsst =
        akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
    RootedTree tree = tree_from_multigraph_edges(mg, lsst.tree_edges, 0);
    const std::vector<double> loads = tree_edge_loads(g, tree);
    double max_rload = 0.0;
    std::vector<double> rload(nn, 0.0);
    for (NodeId v = 0; v < n; ++v) {
      if (v == tree.root) continue;
      const auto vi = static_cast<std::size_t>(v);
      // Capacitate the link with its load: G 1-embeds into the tree.
      tree.parent_cap[vi] = std::max(loads[vi], 1e-12);
      const EdgeId base = tree.parent_edge[vi];
      rload[vi] = loads[vi] / g.capacity(base);
      max_rload = std::max(max_rload, rload[vi]);
    }
    // MWU on the underlying graph edges of the tree links.
    if (max_rload > 0.0) {
      for (NodeId v = 0; v < n; ++v) {
        if (v == tree.root) continue;
        const auto vi = static_cast<std::size_t>(v);
        // parent_edge is a base-graph edge; the multigraph was built with
        // one edge per base edge, same index.
        const auto idx = static_cast<std::size_t>(tree.parent_edge[vi]);
        weight[idx] *= 1.0 + kMwuEta * rload[vi] / max_rload;
      }
    }
    // Cost: one LSST (Theorem 3.1) plus the load aggregation (Lemma 8.3).
    out.rounds += lsst.bfs_rounds +
                  (cost.diameter + 2.0 * cost.sqrt_n()) * cost.log_n();
    out.trees.push_back(std::move(tree));
  }
  return out;
}

}  // namespace dmf
