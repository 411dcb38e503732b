#include "graph/flow.h"

#include <algorithm>
#include <cmath>

namespace dmf {

namespace {

// The edge-list scans shared by the Graph and CsrGraph overloads.

void divergence_into(NodeId n, const EdgeEndpoints* eps,
                     const std::vector<double>& flow,
                     std::vector<double>& div) {
  div.assign(static_cast<std::size_t>(n), 0.0);
  for (std::size_t e = 0; e < flow.size(); ++e) {
    const double f = flow[e];
    div[static_cast<std::size_t>(eps[e].u)] += f;
    div[static_cast<std::size_t>(eps[e].v)] -= f;
  }
}

double congestion(const double* cap, const std::vector<double>& flow) {
  double worst = 0.0;
  for (std::size_t e = 0; e < flow.size(); ++e) {
    worst = std::max(worst, std::abs(flow[e]) / cap[e]);
  }
  return worst;
}

}  // namespace

std::vector<double> flow_divergence(const Graph& g,
                                    const std::vector<double>& flow) {
  DMF_REQUIRE(flow.size() == static_cast<std::size_t>(g.num_edges()),
              "flow_divergence: size mismatch");
  std::vector<double> div;
  divergence_into(g.num_nodes(), g.edge_endpoints().data(), flow, div);
  return div;
}

std::vector<double> flow_divergence(const CsrGraph& g,
                                    const std::vector<double>& flow) {
  std::vector<double> div;
  flow_divergence_into(g, flow, div);
  return div;
}

void flow_divergence_into(const CsrGraph& g, const std::vector<double>& flow,
                          std::vector<double>& div) {
  DMF_REQUIRE(flow.size() == static_cast<std::size_t>(g.num_edges()),
              "flow_divergence: size mismatch");
  divergence_into(g.num_nodes(), g.endpoints_data(), flow, div);
}

double flow_value(const CsrGraph& g, const std::vector<double>& flow,
                  NodeId s) {
  DMF_REQUIRE(g.is_valid_node(s), "flow_value: bad node");
  double value = 0.0;
  const CsrRow row = g.neighbors(s);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const EdgeId e = row.edge(i);
    const double f = flow[static_cast<std::size_t>(e)];
    value += (g.endpoints(e).u == s) ? f : -f;
  }
  return value;
}

double max_congestion(const Graph& g, const std::vector<double>& flow) {
  DMF_REQUIRE(flow.size() == static_cast<std::size_t>(g.num_edges()),
              "max_congestion: size mismatch");
  return congestion(g.capacities().data(), flow);
}

double max_congestion(const CsrGraph& g, const std::vector<double>& flow) {
  DMF_REQUIRE(flow.size() == static_cast<std::size_t>(g.num_edges()),
              "max_congestion: size mismatch");
  return congestion(g.capacities_data(), flow);
}

bool is_feasible(const Graph& g, const std::vector<double>& flow, double tol) {
  return max_congestion(g, flow) <= 1.0 + tol;
}

double max_conservation_violation(const Graph& g,
                                  const std::vector<double>& flow, NodeId s,
                                  NodeId t) {
  const std::vector<double> div = flow_divergence(g, flow);
  double worst = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == s || v == t) continue;
    worst = std::max(worst, std::abs(div[static_cast<std::size_t>(v)]));
  }
  return worst;
}

double scale_to_feasible(const Graph& g, std::vector<double>& flow) {
  const double cong = max_congestion(g, flow);
  if (cong <= 1.0) return 1.0;
  const double factor = 1.0 / cong;
  for (double& f : flow) f *= factor;
  return factor;
}

std::vector<double> st_demand(NodeId n, NodeId s, NodeId t, double value) {
  DMF_REQUIRE(s >= 0 && s < n && t >= 0 && t < n && s != t,
              "st_demand: bad terminals");
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[static_cast<std::size_t>(s)] = value;
  b[static_cast<std::size_t>(t)] = -value;
  return b;
}

bool demand_is_balanced(const std::vector<double>& demand) {
  double total = 0.0;
  double scale = 0.0;
  for (const double d : demand) {
    total += d;
    scale = std::max(scale, std::abs(d));
  }
  return std::abs(total) <= 1e-6 * (1.0 + scale);
}

}  // namespace dmf
