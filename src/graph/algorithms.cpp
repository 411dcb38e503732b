#include "graph/algorithms.h"

#include <algorithm>
#include <queue>

namespace dmf {

std::vector<int> bfs_distances(const CsrGraph& g, NodeId src) {
  DMF_REQUIRE(g.is_valid_node(src), "bfs_distances: bad source");
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), kUnreached);
  std::queue<NodeId> frontier;
  dist[static_cast<std::size_t>(src)] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    const CsrRow row = g.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const NodeId to = row.to(i);
      if (dist[static_cast<std::size_t>(to)] == kUnreached) {
        dist[static_cast<std::size_t>(to)] =
            dist[static_cast<std::size_t>(v)] + 1;
        frontier.push(to);
      }
    }
  }
  return dist;
}

BfsTree build_bfs_tree(const CsrGraph& g, NodeId root) {
  DMF_REQUIRE(g.is_valid_node(root), "build_bfs_tree: bad root");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  BfsTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.parent_edge.assign(n, kInvalidEdge);
  tree.depth.assign(n, kUnreached);
  std::queue<NodeId> frontier;
  tree.depth[static_cast<std::size_t>(root)] = 0;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    tree.height =
        std::max(tree.height, tree.depth[static_cast<std::size_t>(v)]);
    const CsrRow row = g.neighbors(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const NodeId to = row.to(i);
      if (tree.depth[static_cast<std::size_t>(to)] == kUnreached) {
        tree.depth[static_cast<std::size_t>(to)] =
            tree.depth[static_cast<std::size_t>(v)] + 1;
        tree.parent[static_cast<std::size_t>(to)] = v;
        tree.parent_edge[static_cast<std::size_t>(to)] = row.edge(i);
        frontier.push(to);
      }
    }
  }
  return tree;
}

Components connected_components(const CsrGraph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  Components comps;
  comps.label.assign(n, -1);
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    if (comps.label[static_cast<std::size_t>(start)] != -1) continue;
    const int id = comps.count++;
    std::queue<NodeId> frontier;
    comps.label[static_cast<std::size_t>(start)] = id;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      const CsrRow row = g.neighbors(v);
      for (std::size_t i = 0; i < row.size(); ++i) {
        const NodeId to = row.to(i);
        if (comps.label[static_cast<std::size_t>(to)] == -1) {
          comps.label[static_cast<std::size_t>(to)] = id;
          frontier.push(to);
        }
      }
    }
  }
  return comps;
}

bool is_connected(const CsrGraph& g) {
  if (g.num_nodes() == 0) return true;
  const std::vector<int> dist = bfs_distances(g, 0);
  return std::all_of(dist.begin(), dist.end(),
                     [](int d) { return d != kUnreached; });
}

int eccentricity(const CsrGraph& g, NodeId v) {
  const std::vector<int> dist = bfs_distances(g, v);
  int ecc = 0;
  for (int d : dist) {
    DMF_REQUIRE(d != kUnreached, "eccentricity: graph is disconnected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int diameter_exact(const CsrGraph& g) {
  DMF_REQUIRE(g.num_nodes() > 0, "diameter_exact: empty graph");
  int diameter = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    diameter = std::max(diameter, eccentricity(g, v));
  }
  return diameter;
}

int diameter_double_sweep(const CsrGraph& g, NodeId start) {
  DMF_REQUIRE(g.is_valid_node(start), "diameter_double_sweep: bad start");
  const std::vector<int> first = bfs_distances(g, start);
  NodeId far = start;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DMF_REQUIRE(first[static_cast<std::size_t>(v)] != kUnreached,
                "diameter_double_sweep: graph is disconnected");
    if (first[static_cast<std::size_t>(v)] >
        first[static_cast<std::size_t>(far)]) {
      far = v;
    }
  }
  return eccentricity(g, far);
}

}  // namespace dmf
