// E4 (Lemma 6.1): sparsifier size and cut preservation. The lemma
// promises O(N polylog N) edges with all cuts preserved up to 1+eps; we
// measure the edge reduction on dense graphs and the distribution of
// cut-capacity ratios over random bipartitions and degree cuts.
#include "bench_util.h"
#include "sparsify/sparsifier.h"
#include "util/stats.h"

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  print_header("E4", "sparsifier size and cut quality");
  print_row({"graph", "m_before", "m_after", "ratio_min", "ratio_med",
             "ratio_max"});
  struct Case {
    std::string name;
    NodeId n;
  };
  for (const Case& c : {Case{"complete", 60}, Case{"complete", 90},
                       Case{"dense_gnp", 120}}) {
    Rng rng(4000 + c.n);
    const Graph g = c.name == "complete"
                        ? make_complete(c.n, {1, 4}, rng)
                        : make_gnp_connected(c.n, 0.35, {1, 4}, rng);
    const Multigraph mg = Multigraph::from_graph(g);
    SparsifierOptions options;
    options.bundle_size = 5;
    options.target_degree = 14.0;
    const SparsifyResult result = sparsify(mg, options, rng);

    std::vector<double> ratios;
    const auto nn = static_cast<std::size_t>(mg.num_nodes());
    // Random bipartitions.
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<char> side(nn, 0);
      for (std::size_t v = 0; v < nn; ++v) {
        side[v] = rng.next_bool(0.5) ? 1 : 0;
      }
      const double before = cut_capacity(mg, side);
      if (before > 0.0) {
        ratios.push_back(cut_capacity(result.graph, side) / before);
      }
    }
    // Degree (single-node) cuts.
    for (NodeId v = 0; v < mg.num_nodes(); ++v) {
      std::vector<char> side(nn, 0);
      side[static_cast<std::size_t>(v)] = 1;
      ratios.push_back(cut_capacity(result.graph, side) /
                       cut_capacity(mg, side));
    }
    Summary s;
    for (const double r : ratios) s.add(r);
    print_row({c.name + "/" + std::to_string(c.n),
               fmt_int(static_cast<long long>(mg.num_edges())),
               fmt_int(static_cast<long long>(result.graph.num_edges())),
               fmt(s.min()), fmt(median(ratios)), fmt(s.max())});
  }
  std::printf("\nexpected shape: m_after ~ N polylog << m_before on dense "
              "inputs; ratios concentrated around 1.\n");
  return 0;
}
