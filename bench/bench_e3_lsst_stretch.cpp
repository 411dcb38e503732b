// E3 (Theorem 3.1): average stretch of AKPW low-stretch spanning trees as
// n grows. The theorem promises expected stretch 2^O(sqrt(log n log log
// n)) — sub-polynomial. The table reports the measured average stretch
// and its ratio to log^2(n): the ratio must stay bounded (or shrink),
// while a stretch growing like n^c would blow it up.
#include <cmath>

#include "bench_util.h"
#include "lsst/akpw.h"
#include "util/stats.h"

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  print_header("E3", "AKPW average stretch vs n");
  print_row({"family", "n", "stretch", "stretch/log2^2", "iters"});
  for (const std::string family : {"torus", "gnp", "regular"}) {
    for (const NodeId n : {64, 144, 256, 484}) {
      Summary stretches;
      Summary iters;
      for (int trial = 0; trial < 3; ++trial) {
        Rng rng(3000 + n + trial);
        const Graph g = make_family(family, n, rng);
        const Multigraph mg = Multigraph::from_graph(g);
        const LowStretchTreeResult tree =
            akpw_low_stretch_tree(mg, PartitionOptions{}, rng);
        stretches.add(average_stretch(mg, tree.tree_edges));
        iters.add(static_cast<double>(tree.iterations));
      }
      const double log2n = std::log2(static_cast<double>(n));
      print_row({family, fmt_int(n), fmt(stretches.mean(), 2),
                 fmt(stretches.mean() / (log2n * log2n), 3),
                 fmt(iters.mean(), 1)});
    }
  }
  std::printf("\nexpected shape: stretch grows sub-polynomially; the "
              "stretch/log^2 column stays O(1) at these scales.\n");
  return 0;
}
