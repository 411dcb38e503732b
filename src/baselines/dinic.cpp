#include "baselines/dinic.h"

#include <limits>
#include <queue>

#include "baselines/residual_arcs.h"

namespace dmf {

namespace {

// Residual network for undirected graphs: each undirected edge e becomes
// the arc pair (2e, 2e+1), mutual reverses, each with capacity cap(e) and
// antisymmetric flow (flow[2e] == -flow[2e+1]). The net signed flow on the
// undirected edge equals flow[2e]. Arc lists come flat from
// build_flat_arcs (residual_arcs.h): identical traversal order to the
// old per-node vectors, no per-node heap allocations, sequential target
// reads during BFS/DFS.
class Residual {
 public:
  explicit Residual(const CsrGraph& g) : graph_(g), arcs_(build_flat_arcs(g)) {
    const auto n = static_cast<std::size_t>(g.num_nodes());
    flow_.assign(2 * static_cast<std::size_t>(g.num_edges()), 0.0);
    level_.assign(n, -1);
    iter_.assign(n, 0);
  }

  [[nodiscard]] double residual_cap(EdgeId arc) const {
    return graph_.capacities_data()[static_cast<std::size_t>(arc / 2)] -
           flow_[static_cast<std::size_t>(arc)];
  }

  void push(EdgeId arc, double amount) {
    flow_[static_cast<std::size_t>(arc)] += amount;
    flow_[static_cast<std::size_t>(arc ^ 1)] -= amount;
  }

  bool bfs(NodeId s, NodeId t) {
    std::fill(level_.begin(), level_.end(), -1);
    std::queue<NodeId> q;
    level_[static_cast<std::size_t>(s)] = 0;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      const auto vi = static_cast<std::size_t>(v);
      for (std::size_t i = arcs_.offsets[vi]; i < arcs_.offsets[vi + 1];
           ++i) {
        const NodeId to = arcs_.targets[i];
        if (residual_cap(arcs_.arcs[i]) > kEps &&
            level_[static_cast<std::size_t>(to)] < 0) {
          level_[static_cast<std::size_t>(to)] = level_[vi] + 1;
          q.push(to);
        }
      }
    }
    return level_[static_cast<std::size_t>(t)] >= 0;
  }

  double dfs(NodeId v, NodeId t, double limit) {
    if (v == t) return limit;
    const auto vi = static_cast<std::size_t>(v);
    for (auto& it = iter_[vi]; it < arcs_.offsets[vi + 1]; ++it) {
      const EdgeId arc = arcs_.arcs[it];
      const NodeId to = arcs_.targets[it];
      if (residual_cap(arc) > kEps &&
          level_[static_cast<std::size_t>(to)] == level_[vi] + 1) {
        const double pushed = dfs(to, t, std::min(limit, residual_cap(arc)));
        if (pushed > kEps) {
          push(arc, pushed);
          return pushed;
        }
      }
    }
    return 0.0;
  }

  double run(NodeId s, NodeId t) {
    double total = 0.0;
    while (bfs(s, t)) {
      for (std::size_t v = 0; v < iter_.size(); ++v) {
        iter_[v] = arcs_.offsets[v];
      }
      while (true) {
        const double pushed =
            dfs(s, t, std::numeric_limits<double>::infinity());
        if (pushed <= kEps) break;
        total += pushed;
      }
    }
    return total;
  }

  [[nodiscard]] std::vector<double> undirected_flows() const {
    std::vector<double> out(flow_.size() / 2);
    for (std::size_t e = 0; e < out.size(); ++e) out[e] = flow_[2 * e];
    return out;
  }

  // Nodes reachable from s in the residual graph (call after run()).
  [[nodiscard]] std::vector<char> residual_reachable(NodeId s) const {
    std::vector<char> seen(level_.size(), 0);
    std::queue<NodeId> q;
    seen[static_cast<std::size_t>(s)] = 1;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      const auto vi = static_cast<std::size_t>(v);
      for (std::size_t i = arcs_.offsets[vi]; i < arcs_.offsets[vi + 1];
           ++i) {
        const NodeId to = arcs_.targets[i];
        if (residual_cap(arcs_.arcs[i]) > kEps &&
            !seen[static_cast<std::size_t>(to)]) {
          seen[static_cast<std::size_t>(to)] = 1;
          q.push(to);
        }
      }
    }
    return seen;
  }

 private:
  static constexpr double kEps = 1e-12;

  const CsrGraph& graph_;
  FlatArcs arcs_;
  std::vector<double> flow_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

}  // namespace

MaxFlowResult dinic_max_flow(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_max_flow: bad terminals");
  Residual residual(g);
  MaxFlowResult result;
  result.value = residual.run(s, t);
  result.edge_flow = residual.undirected_flows();
  return result;
}

double dinic_max_flow_value(const CsrGraph& g, NodeId s, NodeId t) {
  return dinic_max_flow(g, s, t).value;
}

double dinic_max_flow_value(const Graph& g, NodeId s, NodeId t) {
  return dinic_max_flow(CsrGraph(g), s, t).value;
}

MinCutResult dinic_min_cut(const CsrGraph& g, NodeId s, NodeId t) {
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "dinic_min_cut: bad terminals");
  Residual residual(g);
  MinCutResult result;
  result.capacity = residual.run(s, t);
  result.source_side = residual.residual_reachable(s);
  return result;
}

}  // namespace dmf
