// E7 (Algorithm 2 analysis): AlmostRoute iteration counts. Sherman's
// bound is O(alpha^2 eps^-3 log n); we sweep eps at fixed alpha and alpha
// at fixed eps, reporting measured iterations, the rejected steps among
// them, and the local scaling exponent d log(iters) / d log(1/eps)
// (expected to sit below 3 — the bound is a worst case). The counts and
// slopes are those of the adaptive step (almost_route.h), which scales
// Sherman's fixed step delta / (1 + 4 alpha^2) by a multiplier of up to
// 64. Against the fixed step the counts are 5-7x lower; the slopes are
// less regular (eps: 0.5-1.2 against ~1.0; alpha: 0.8-2.2 against
// 1.0-1.9), since where a long step lands varies from call to call.
#include <cmath>

#include "bench_util.h"
#include "capprox/racke.h"
#include "graph/flow.h"
#include "maxflow/almost_route.h"
#include "util/stats.h"

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  Rng rng(7000);
  const Graph g = make_family("gnp", 60, rng);
  RackeOptions ropt;
  ropt.num_trees = 8;
  const CongestionApproximator approx(
      build_racke_trees(g, ropt, rng).trees);
  const std::vector<double> b = st_demand(g.num_nodes(), 0,
                                          g.num_nodes() - 1, 1.0);
  const CsrGraph csr(g);

  print_header("E7a", "AlmostRoute iterations vs eps (alpha fixed = 2)");
  print_row({"eps", "iterations", "rejected", "converged", "slope_vs_prev"});
  double prev_iters = 0.0;
  double prev_eps = 0.0;
  for (const double eps : {0.6, 0.45, 0.3, 0.2, 0.15}) {
    AlmostRouteOptions options;
    options.epsilon = eps;
    options.alpha = 2.0;
    options.max_iterations = 500000;
    const AlmostRouteResult result = almost_route(csr, approx, b, options);
    std::string slope = "-";
    if (prev_iters > 0.0) {
      slope = fmt(std::log(static_cast<double>(result.iterations) /
                           prev_iters) /
                      std::log(prev_eps / eps),
                  2);
    }
    print_row({fmt(eps, 2), fmt_int(result.iterations),
               fmt_int(result.rejected_steps),
               result.converged ? "yes" : "NO", slope});
    prev_iters = static_cast<double>(result.iterations);
    prev_eps = eps;
  }

  print_header("E7b", "AlmostRoute iterations vs alpha (eps fixed = 0.3)");
  print_row({"alpha", "iterations", "rejected", "converged", "slope_vs_prev"});
  prev_iters = 0.0;
  double prev_alpha = 0.0;
  for (const double alpha : {1.5, 2.0, 3.0, 4.5, 6.0}) {
    AlmostRouteOptions options;
    options.epsilon = 0.3;
    options.alpha = alpha;
    options.max_iterations = 500000;
    const AlmostRouteResult result = almost_route(csr, approx, b, options);
    std::string slope = "-";
    if (prev_iters > 0.0) {
      slope = fmt(std::log(static_cast<double>(result.iterations) /
                           prev_iters) /
                      std::log(alpha / prev_alpha),
                  2);
    }
    print_row({fmt(alpha, 1), fmt_int(result.iterations),
               fmt_int(result.rejected_steps),
               result.converged ? "yes" : "NO", slope});
    prev_iters = static_cast<double>(result.iterations);
    prev_alpha = alpha;
  }
  std::printf("\nexpected shape: iterations grow with 1/eps (exponent <= 3) "
              "and with alpha (exponent <= 2), per O(alpha^2 eps^-3 log n).\n");
  return 0;
}
