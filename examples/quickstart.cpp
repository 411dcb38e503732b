// Quickstart: build a graph, run the distributed (1+eps)-approximate
// max-flow algorithm, and compare against the exact baseline.
//
//   ./example_quickstart [n] [eps] [seed]
//
// The program generates a random connected network, solves max flow
// between two far-apart nodes with the paper's pipeline (congestion
// approximator from sampled virtual trees + Sherman gradient descent),
// verifies the flow, and prints the accounted CONGEST round complexity
// next to the trivial O(m) and the measured lower-bound landmarks.
#include <cstdio>
#include <cstdlib>
#include <cmath>

#include "baselines/dinic.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 120;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.25;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

  Rng rng(seed);
  const Graph g = make_gnp_connected(n, 3.0 / n, {1, 20}, rng);
  const NodeId s = 0;
  const NodeId t = n - 1;

  const int diameter = diameter_double_sweep(CsrGraph(g));
  std::printf("graph: %s, diameter >= %d\n", g.summary().c_str(), diameter);

  // --- The paper's algorithm. ---
  ShermanOptions options;
  options.epsilon = eps;
  options.almost_route.epsilon = eps < 0.5 ? eps : 0.5;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult approx = solver.max_flow(s, t);

  // --- Exact reference. ---
  const double exact = dinic_max_flow_value(g, s, t);

  std::printf("\napproximate max flow (eps=%.2f):\n", eps);
  std::printf("  value          : %.4f\n", approx.value);
  std::printf("  exact (Dinic)  : %.4f\n", exact);
  std::printf("  ratio          : %.4f\n", approx.value / exact);
  std::printf("  feasible       : %s\n",
              is_feasible(g, approx.flow, 1e-6) ? "yes" : "NO");
  std::printf("  conservation   : %.2e (max violation)\n",
              max_conservation_violation(g, approx.flow, s, t));
  std::printf("  trees in R     : %d (alpha=%.2f)\n", approx.num_trees,
              approx.alpha);
  std::printf("  gradient iters : %d\n", approx.gradient_iterations);
  std::printf("\naccounted CONGEST rounds : %.0f\n", approx.rounds);
  std::printf("  trivial collect-all O(m): %d rounds\n", g.num_edges());
  std::printf("  lower bound ~ D + sqrt(n): %d\n",
              diameter + static_cast<int>(std::sqrt(static_cast<double>(n))));
  return approx.value >= (1.0 - 2.0 * eps) * exact ? 0 : 1;
}
