#include "baselines/push_relabel.h"

#include <algorithm>
#include <queue>

#include "baselines/residual_arcs.h"

namespace dmf {

namespace {
constexpr double kEps = 1e-12;
}  // namespace

MaxFlowResult push_relabel_max_flow(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "push_relabel_max_flow: bad terminals");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());

  // Arc pair representation shared with dinic.cpp via build_flat_arcs:
  // arcs 2e (u->v) and 2e+1 (v->u), antisymmetric flow,
  // residual(arc) = cap - flow.
  std::vector<double> flow(2 * m, 0.0);
  const FlatArcs flat = build_flat_arcs(g);
  const std::size_t* offsets = flat.offsets;
  const std::vector<EdgeId>& arcs = flat.arcs;
  const NodeId* targets = flat.targets;
  const double* cap = g.capacities_data();
  const auto rescap = [&](EdgeId arc) {
    return cap[static_cast<std::size_t>(arc / 2)] -
           flow[static_cast<std::size_t>(arc)];
  };
  const auto push_arc = [&](EdgeId arc, double amount) {
    flow[static_cast<std::size_t>(arc)] += amount;
    flow[static_cast<std::size_t>(arc ^ 1)] -= amount;
  };

  std::vector<double> excess(n, 0.0);
  std::vector<int> height(n, 0);
  std::vector<std::size_t> current(offsets, offsets + n);
  std::vector<int> height_count(2 * n + 1, 0);
  height[static_cast<std::size_t>(s)] = static_cast<int>(n);
  height_count[0] = static_cast<int>(n) - 1;
  height_count[n] = 1;

  std::queue<NodeId> active;
  const auto activate = [&](NodeId v) {
    if (v != s && v != t && excess[static_cast<std::size_t>(v)] > kEps) {
      active.push(v);
    }
  };

  // Saturate all arcs out of s.
  const auto si = static_cast<std::size_t>(s);
  for (std::size_t i = offsets[si]; i < offsets[si + 1]; ++i) {
    const EdgeId arc = arcs[i];
    const double c = rescap(arc);
    if (c > kEps) {
      push_arc(arc, c);
      excess[static_cast<std::size_t>(targets[i])] += c;
      excess[si] -= c;
      activate(targets[i]);
    }
  }

  while (!active.empty()) {
    const NodeId v = active.front();
    active.pop();
    const auto vi = static_cast<std::size_t>(v);
    while (excess[vi] > kEps) {
      if (current[vi] == offsets[vi + 1]) {
        // Relabel (with gap heuristic).
        const int old_height = height[vi];
        int best = 2 * static_cast<int>(n);
        for (std::size_t i = offsets[vi]; i < offsets[vi + 1]; ++i) {
          if (rescap(arcs[i]) > kEps) {
            best = std::min(
                best, height[static_cast<std::size_t>(targets[i])] + 1);
          }
        }
        height_count[static_cast<std::size_t>(old_height)]--;
        height[vi] = best;
        height_count[static_cast<std::size_t>(std::min(
            best, 2 * static_cast<int>(n)))]++;
        current[vi] = offsets[vi];
        if (height_count[static_cast<std::size_t>(old_height)] == 0 &&
            old_height < static_cast<int>(n)) {
          // Gap: lift everything above the gap over n.
          for (std::size_t u = 0; u < n; ++u) {
            if (height[u] > old_height && height[u] < static_cast<int>(n) &&
                u != static_cast<std::size_t>(s)) {
              height_count[static_cast<std::size_t>(height[u])]--;
              height[u] = static_cast<int>(n) + 1;
              height_count[static_cast<std::size_t>(height[u])]++;
            }
          }
        }
        if (height[vi] >= 2 * static_cast<int>(n)) break;
        continue;
      }
      const EdgeId arc = arcs[current[vi]];
      const NodeId to = targets[current[vi]];
      if (rescap(arc) > kEps &&
          height[vi] == height[static_cast<std::size_t>(to)] + 1) {
        const double amount = std::min(excess[vi], rescap(arc));
        push_arc(arc, amount);
        excess[vi] -= amount;
        excess[static_cast<std::size_t>(to)] += amount;
        if (to != s && to != t &&
            excess[static_cast<std::size_t>(to)] <= amount + kEps) {
          active.push(to);
        }
      } else {
        ++current[vi];
      }
    }
  }

  MaxFlowResult result;
  result.edge_flow.resize(m);
  for (std::size_t e = 0; e < m; ++e) result.edge_flow[e] = flow[2 * e];
  result.value = excess[static_cast<std::size_t>(t)];
  return result;
}

}  // namespace dmf
