#include "graph/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

namespace dmf {

FlowInstance read_dimacs(std::istream& in) {
  FlowInstance instance;
  std::string line;
  NodeId n = -1;
  // (min(u,v), max(u,v)) -> capacity (max over the two arc directions).
  std::map<std::pair<NodeId, NodeId>, double> merged;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'c') continue;
    if (kind == 'p') {
      std::string problem;
      long m = 0;
      long n_long = 0;
      ls >> problem >> n_long >> m;
      DMF_REQUIRE(problem == "max", "read_dimacs: not a max-flow instance");
      DMF_REQUIRE(n < 0, "read_dimacs: duplicate problem line");
      DMF_REQUIRE(n_long >= 1 && n_long <= std::numeric_limits<NodeId>::max(),
                  "read_dimacs: node count outside [1, INT32_MAX]");
      n = static_cast<NodeId>(n_long);
      instance.graph = Graph(n);
    } else if (kind == 'n') {
      long id = 0;
      char role = 0;
      ls >> id >> role;
      DMF_REQUIRE(n > 0 && id >= 1 && id <= n, "read_dimacs: bad terminal id");
      if (role == 's') instance.source = static_cast<NodeId>(id - 1);
      if (role == 't') instance.sink = static_cast<NodeId>(id - 1);
    } else if (kind == 'a') {
      long u = 0;
      long v = 0;
      std::string cap_token;
      ls >> u >> v >> cap_token;
      DMF_REQUIRE(n > 0 && u >= 1 && u <= n && v >= 1 && v <= n,
                  "read_dimacs: arc endpoint out of range");
      // Parse the capacity via strtod rather than operator>>: an
      // overflowing literal (e.g. 1e400) or an explicit "inf"/"nan"
      // must be rejected, not silently zeroed (stream extraction) or
      // let through to poison every downstream computation.
      char* parsed_end = nullptr;
      const double cap = std::strtod(cap_token.c_str(), &parsed_end);
      DMF_REQUIRE(parsed_end != cap_token.c_str() && std::isfinite(cap),
                  "read_dimacs: non-finite or malformed arc capacity");
      if (u == v || cap <= 0.0) continue;
      NodeId a = static_cast<NodeId>(u - 1);
      NodeId b = static_cast<NodeId>(v - 1);
      if (a > b) std::swap(a, b);
      auto [it, inserted] = merged.insert({{a, b}, cap});
      if (!inserted) it->second = std::max(it->second, cap);
    }
  }
  DMF_REQUIRE(n > 0, "read_dimacs: missing problem line");
  for (const auto& [key, cap] : merged) {
    instance.graph.add_edge(key.first, key.second, cap);
  }
  return instance;
}

FlowInstance read_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  DMF_REQUIRE(in.good(), "read_dimacs_file: cannot open " + path);
  return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const FlowInstance& instance) {
  const Graph& g = instance.graph;
  out << "c generated by distributed_maxflow\n";
  out << "p max " << g.num_nodes() << " " << 2 * g.num_edges() << "\n";
  if (instance.source != kInvalidNode) {
    out << "n " << instance.source + 1 << " s\n";
  }
  if (instance.sink != kInvalidNode) {
    out << "n " << instance.sink + 1 << " t\n";
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    out << "a " << ep.u + 1 << " " << ep.v + 1 << " " << g.capacity(e) << "\n";
    out << "a " << ep.v + 1 << " " << ep.u + 1 << " " << g.capacity(e) << "\n";
  }
}

void write_dimacs_file(const std::string& path, const FlowInstance& instance) {
  std::ofstream out(path);
  DMF_REQUIRE(out.good(), "write_dimacs_file: cannot open " + path);
  write_dimacs(out, instance);
}

}  // namespace dmf
