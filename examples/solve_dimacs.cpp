// Solve a DIMACS max-flow instance from a file (or a built-in demo
// instance) with the approximate distributed solver, cross-checked
// against exact Dinic; also prints the approximate min cut.
//
//   ./example_solve_dimacs [file.dimacs] [eps]
//
// If no file is given, a demo instance is generated, written to
// /tmp/dmf_demo.dimacs, and solved — showing the full file round trip.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/dinic.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dmf;
  const double eps = argc > 2 ? std::atof(argv[2]) : 0.25;
  Rng rng(17);

  FlowInstance instance;
  if (argc > 1) {
    instance = read_dimacs_file(argv[1]);
    std::printf("loaded %s: %s\n", argv[1], instance.graph.summary().c_str());
  } else {
    instance.graph = make_tree_plus_chords(60, 40, {1, 30}, rng);
    instance.source = 0;
    instance.sink = 59;
    write_dimacs_file("/tmp/dmf_demo.dimacs", instance);
    instance = read_dimacs_file("/tmp/dmf_demo.dimacs");
    std::printf("demo instance written to /tmp/dmf_demo.dimacs and "
                "re-loaded: %s\n",
                instance.graph.summary().c_str());
  }
  DMF_REQUIRE(instance.source != kInvalidNode && instance.sink != kInvalidNode,
              "instance must designate s and t ('n <id> s' / 'n <id> t')");

  const Graph& g = instance.graph;
  ShermanOptions options;
  options.epsilon = eps;
  options.almost_route.epsilon = eps < 0.5 ? eps : 0.5;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult flow = solver.max_flow(instance.source,
                                                   instance.sink);
  const ShermanSolver::ApproxMinCut cut =
      solver.approx_min_cut(instance.source, instance.sink);
  const double exact =
      dinic_max_flow_value(g, instance.source, instance.sink);

  std::printf("\napprox max flow : %.4f\n", flow.value);
  std::printf("exact max flow  : %.4f\n", exact);
  std::printf("value ratio     : %.4f\n", flow.value / exact);
  std::printf("approx min cut  : %.4f (true min cut = max flow)\n",
              cut.capacity);
  std::printf("feasible        : %s\n",
              is_feasible(g, flow.flow, 1e-6) ? "yes" : "NO");
  std::printf("CONGEST rounds  : %.0f accounted\n", flow.rounds);
  return 0;
}
