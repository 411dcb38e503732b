// dmf-lint-fixture-path: src/graph/twin_ok.h
// A Graph form that does its own work (here: scans the edge list
// without packing) stays with a justified suppression, in either
// placement. This fixture expects zero findings.
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

std::vector<double> divergence(const CsrGraph& g,
                               const std::vector<double>& flow);
// dmf-lint: allow(graph-twin) scans the edge list, packs no CSR
std::vector<double> divergence(const Graph& g,
                               const std::vector<double>& flow);

double peak(const CsrGraph& g, const std::vector<double>& flow);
double peak(const Graph& g, const std::vector<double>& flow);  // dmf-lint: allow(graph-twin) edge-list scan

}  // namespace dmf
