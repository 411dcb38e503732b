// dmf-lint-fixture-path: src/graph/twin_bad.h
// A Graph form beside a CsrGraph form of the same name only packs a
// CSR and forwards: graph-twin flags the Graph form, wherever the
// parameter list starts. Names with one form, and forms whose first
// parameter is not the graph, are clean.
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

std::vector<int> reach(const CsrGraph& g, NodeId src);
// expect-lint: graph-twin
std::vector<int> reach(const Graph& g, NodeId src);

// expect-lint: graph-twin
int height(
    const dmf::Graph& g, NodeId root);
int height(const CsrGraph& g, NodeId root);

class Walker {
 public:
  explicit Walker(const CsrGraph& csr);
  // expect-lint: graph-twin
  explicit Walker(const Graph& g);
};

double total(const Graph& g);                       // clean: one form
void fill(int k, const Graph& g);                   // clean: not first
void fill(int k, const CsrGraph& g);

}  // namespace dmf
