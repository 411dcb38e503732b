// Flow-vector utilities shared by the approximate solver, the baselines,
// and the test suite.
//
// A flow on an undirected graph is a signed value per edge: flow[e] > 0
// means flow travels from endpoints(e).u to endpoints(e).v (the paper's
// "fixed arbitrary orientation" is the edge's creation orientation).
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

// Excess vector Bf: for each node, inflow minus outflow... — we follow the
// convention excess[v] = sum of flow *into* v. A flow routes demand b if
// excess[v] = -b[v] for sources (b>0 means v wants to *send* b units)...
//
// To avoid sign confusion the library standardizes on:
//   divergence[v] := outflow(v) - inflow(v)
// A flow f *routes demand b* iff divergence[v] == b[v] for every v
// (sources have positive b, sinks negative, sum b == 0).
//
// The Graph form scans the edge list without packing a CSR; both forms
// accumulate in edge-id order, so their results are identical.
// dmf-lint: allow(graph-twin) scans the edge list, packs no CSR
std::vector<double> flow_divergence(const Graph& g,
                                    const std::vector<double>& flow);
std::vector<double> flow_divergence(const CsrGraph& g,
                                    const std::vector<double>& flow);
// In-place variant for per-iteration reuse (div is resized and zeroed).
void flow_divergence_into(const CsrGraph& g, const std::vector<double>& flow,
                          std::vector<double>& div);

// Net flow out of s (== into t if f routes an s-t flow).
double flow_value(const CsrGraph& g, const std::vector<double>& flow,
                  NodeId s);

// max_e |f_e| / cap(e).
// dmf-lint: allow(graph-twin) scans the edge list, packs no CSR
double max_congestion(const Graph& g, const std::vector<double>& flow);
double max_congestion(const CsrGraph& g, const std::vector<double>& flow);

// True iff |f_e| <= cap(e) * (1 + tol) for all e.
bool is_feasible(const Graph& g, const std::vector<double>& flow,
                 double tol = 1e-9);

// Largest conservation violation: max over v != s,t of |divergence[v]|.
double max_conservation_violation(const Graph& g,
                                  const std::vector<double>& flow, NodeId s,
                                  NodeId t);

// Scale the flow down (if needed) so it is feasible; returns the factor.
double scale_to_feasible(const Graph& g, std::vector<double>& flow);

// b with b[s]=+value, b[t]=-value, zero elsewhere.
std::vector<double> st_demand(NodeId n, NodeId s, NodeId t, double value);

// The one balance rule for demands from outside: |sum b| <=
// 1e-6 * (1 + max |b_v|). A demand that passes is routed as given; its
// nonzero sum, if any, ends at a tree root (route_demand_on_tree).
bool demand_is_balanced(const std::vector<double>& demand);

}  // namespace dmf
