#include "maxflow/multi_terminal.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/flow.h"

namespace dmf {

SuperTerminalGraph build_super_terminal_graph(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& sinks) {
  DMF_REQUIRE(!sources.empty() && !sinks.empty(),
              "super_terminal_graph: empty terminal set");
  std::vector<char> is_source(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const NodeId s : sources) {
    DMF_REQUIRE(g.is_valid_node(s), "super_terminal_graph: bad source");
    is_source[static_cast<std::size_t>(s)] = 1;
  }
  for (const NodeId t : sinks) {
    DMF_REQUIRE(g.is_valid_node(t), "super_terminal_graph: bad sink");
    DMF_REQUIRE(!is_source[static_cast<std::size_t>(t)],
                "super_terminal_graph: terminal sets must be disjoint");
  }
  // Weighted degrees via one flat edge scan. Per node the incident
  // capacities accumulate in edge-id order — the same order
  // CsrGraph::weighted_degree adds them.
  const std::vector<EdgeEndpoints>& eps = g.edge_endpoints();
  const std::vector<double>& caps = g.capacities();
  std::vector<double> weighted(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    weighted[static_cast<std::size_t>(eps[e].u)] += caps[e];
    weighted[static_cast<std::size_t>(eps[e].v)] += caps[e];
  }

  // A degree-0 terminal used to get a 1e-9-capacity virtual edge, turning
  // the whole query into a meaningless near-zero answer; reject instead.
  for (const std::vector<NodeId>* set : {&sources, &sinks}) {
    for (const NodeId v : *set) {
      DMF_REQUIRE(weighted[static_cast<std::size_t>(v)] > 0.0,
                  "super_terminal_graph: isolated terminal (node " +
                      std::to_string(v) + " has no incident capacity)");
    }
  }

  SuperTerminalGraph out;
  out.graph = Graph(g.num_nodes() + 2);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    out.graph.add_edge(eps[e].u, eps[e].v, caps[e]);
  }
  out.super_source = g.num_nodes();
  out.super_sink = g.num_nodes() + 1;
  for (const NodeId s : sources) {
    out.graph.add_edge(out.super_source, s,
                       weighted[static_cast<std::size_t>(s)]);
  }
  for (const NodeId t : sinks) {
    out.graph.add_edge(t, out.super_sink,
                       weighted[static_cast<std::size_t>(t)]);
  }
  return out;
}

std::vector<NodeId> canonical_terminals(std::vector<NodeId> terminals) {
  std::sort(terminals.begin(), terminals.end());
  terminals.erase(std::unique(terminals.begin(), terminals.end()),
                  terminals.end());
  return terminals;
}

MultiTerminalMaxFlowResult project_super_terminal_flow(
    const MaxFlowApproxResult& raw, EdgeId base_edges) {
  DMF_REQUIRE(static_cast<EdgeId>(raw.flow.size()) >= base_edges,
              "project_super_terminal_flow: flow shorter than base graph");
  MultiTerminalMaxFlowResult out;
  out.value = raw.value;
  out.rounds = raw.rounds;
  out.converged = raw.converged;
  out.flow.assign(raw.flow.begin(),
                  raw.flow.begin() + static_cast<std::ptrdiff_t>(base_edges));
  return out;
}

SuperTerminalHierarchy build_super_terminal_hierarchy(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& sinks, const ShermanOptions& options, Rng& rng,
    GraphVersion base_version) {
  const std::vector<NodeId> srcs = canonical_terminals(sources);
  const std::vector<NodeId> snks = canonical_terminals(sinks);
  SuperTerminalGraph st = build_super_terminal_graph(g, srcs, snks);
  SuperTerminalHierarchy out;
  out.graph = std::make_shared<const Graph>(std::move(st.graph));
  out.super_source = st.super_source;
  out.super_sink = st.super_sink;
  out.base_edges = g.num_edges();
  out.base_version = base_version;
  out.hierarchy = std::make_shared<const ShermanHierarchy>(out.graph, options,
                                                           rng, base_version);
  return out;
}

MultiTerminalMaxFlowResult solve_on_super_terminal_hierarchy(
    const SuperTerminalHierarchy& st, const ShermanOptions& options) {
  DMF_REQUIRE(st.hierarchy != nullptr,
              "solve_on_super_terminal_hierarchy: null hierarchy");
  const ShermanSolver solver(st.hierarchy, options);  // O(1) share
  const MaxFlowApproxResult raw =
      solver.max_flow(st.super_source, st.super_sink);
  return project_super_terminal_flow(raw, st.base_edges);
}

MultiTerminalMaxFlowResult approx_max_flow_multi(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& sinks, double epsilon, Rng& rng) {
  ShermanOptions options;
  options.epsilon = epsilon;
  options.almost_route.epsilon = std::min(0.5, epsilon);
  const SuperTerminalHierarchy st =
      build_super_terminal_hierarchy(g, sources, sinks, options, rng);
  return solve_on_super_terminal_hierarchy(st, options);
}

}  // namespace dmf
