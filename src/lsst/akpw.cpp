#include "lsst/akpw.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

namespace dmf {

double akpw_default_z(NodeId num_nodes) {
  const double log_n =
      std::log2(static_cast<double>(std::max<NodeId>(4, num_nodes)));
  const double log_log_n = std::log2(std::max(2.0, log_n));
  const double z = std::pow(2.0, std::sqrt(6.0 * log_n * log_log_n));
  return std::clamp(z, 4.0, 65536.0);
}

namespace {

// Target radius as a fraction of z (the paper uses rho = z/4).
constexpr double kRhoFactor = 0.25;
// Safety valve: abort after this many iterations (never hit in practice;
// the class ladder plus radius doubling forces progress).
constexpr int kMaxIterations = 300;

// Weight class of an edge: floor(log_z(length / min_length)).
std::vector<int> edge_classes(const Multigraph& g, double z, int* num_classes) {
  double min_len = std::numeric_limits<double>::infinity();
  for (const MultiEdge& e : g.edges()) min_len = std::min(min_len, e.length);
  DMF_REQUIRE(min_len > 0.0 && std::isfinite(min_len),
              "akpw: lengths must be positive");
  std::vector<int> cls(g.num_edges(), 0);
  int top = 0;
  const double log_z = std::log(z);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const double ratio = g.edge(i).length / min_len;
    const int c = std::max(0, static_cast<int>(std::floor(
                                  std::log(ratio) / log_z + 1e-12)));
    cls[i] = c;
    top = std::max(top, c);
  }
  *num_classes = top + 1;
  return cls;
}

}  // namespace

LowStretchTreeResult akpw_low_stretch_tree(const Multigraph& g,
                                           const PartitionOptions& retries,
                                           Rng& rng) {
  LowStretchTreeResult result;
  if (g.num_nodes() <= 1) return result;
  DMF_REQUIRE(g.is_connected(), "akpw: input multigraph must be connected");

  const double z = akpw_default_z(g.num_nodes());
  double rho = std::max(1.0, kRhoFactor * z);

  // Working copy with tags pointing at input edge indices.
  Multigraph current(g.num_nodes());
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    MultiEdge e = g.edge(i);
    e.tag = static_cast<std::int64_t>(i);
    current.add_edge(e);
  }

  int num_classes = 1;
  int class_level = 1;  // iteration j admits classes 0 .. j-1
  int stagnation = 0;

  while (current.num_nodes() > 1) {
    DMF_REQUIRE(result.iterations < kMaxIterations,
                "akpw: iteration limit exceeded");
    ++result.iterations;

    const std::vector<int> cls = edge_classes(current, z, &num_classes);
    class_level = std::min(class_level, num_classes);
    std::vector<char> allowed(current.num_edges(), 0);
    std::size_t allowed_count = 0;
    for (std::size_t i = 0; i < current.num_edges(); ++i) {
      if (cls[i] < class_level) {
        allowed[i] = 1;
        ++allowed_count;
      }
    }
    if (allowed_count == 0) {
      // Fast-forward to the first populated class.
      class_level = std::min(class_level + 1, num_classes);
      continue;
    }

    PartitionOptions popt = retries;
    popt.rho = rho;
    const PartitionResult part =
        partition(current, allowed, cls, num_classes, popt, rng);
    result.partition_attempts += part.attempts;
    result.bfs_rounds += part.rounds;

    // Collect the clusters' BFS-tree edges.
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      const std::size_t pe =
          part.split.parent_edge[static_cast<std::size_t>(v)];
      if (pe != kNoMultiEdge) {
        result.tree_edges.push_back(
            static_cast<std::size_t>(current.edge(pe).tag));
      }
    }

    // Contract clusters.
    const NodeId new_n = static_cast<NodeId>(part.split.count);
    std::vector<NodeId> mapping(static_cast<std::size_t>(current.num_nodes()));
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      mapping[static_cast<std::size_t>(v)] =
          static_cast<NodeId>(part.split.cluster[static_cast<std::size_t>(v)]);
    }
    const NodeId before = current.num_nodes();
    current = current.contract(mapping, new_n);

    if (current.num_nodes() == before) {
      ++stagnation;
      if (class_level >= num_classes && stagnation >= 2) {
        rho *= 2.0;  // force progress once all classes are admitted
        stagnation = 0;
      }
    } else {
      stagnation = 0;
    }
    class_level = std::min(class_level + 1, num_classes);
  }

  DMF_REQUIRE(result.tree_edges.size() ==
                  static_cast<std::size_t>(g.num_nodes()) - 1,
              "akpw: did not produce a spanning tree");
  return result;
}

RootedTree tree_from_multigraph_edges(const Multigraph& g,
                                      const std::vector<std::size_t>& edges,
                                      NodeId root) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DMF_REQUIRE(root >= 0 && static_cast<std::size_t>(root) < n,
              "tree_from_multigraph_edges: bad root");
  const MultiAdjacency adj(g.num_nodes(), g, edges);
  RootedTree tree;
  tree.root = root;
  tree.parent.assign(n, kInvalidNode);
  tree.parent_cap.assign(n, 0.0);
  tree.parent_edge.assign(n, kInvalidEdge);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> frontier;
  seen[static_cast<std::size_t>(root)] = 1;
  frontier.push(root);
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const auto& [to, idx] : adj.row(v)) {
      if (seen[static_cast<std::size_t>(to)]) continue;
      seen[static_cast<std::size_t>(to)] = 1;
      ++reached;
      tree.parent[static_cast<std::size_t>(to)] = v;
      tree.parent_cap[static_cast<std::size_t>(to)] = g.edge(idx).cap;
      tree.parent_edge[static_cast<std::size_t>(to)] = g.edge(idx).base_edge;
      frontier.push(to);
    }
  }
  DMF_REQUIRE(reached == n,
              "tree_from_multigraph_edges: edges do not span the graph");
  return tree;
}

double average_stretch(const Multigraph& g,
                       const std::vector<std::size_t>& tree_edges) {
  DMF_REQUIRE(g.num_edges() > 0, "average_stretch: empty graph");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  // Build the tree with per-link lengths.
  const MultiAdjacency adj(g.num_nodes(), g, tree_edges);
  RootedTree tree;
  tree.root = 0;
  tree.parent.assign(n, kInvalidNode);
  tree.parent_cap.assign(n, 1.0);
  tree.parent_edge.assign(n, kInvalidEdge);
  std::vector<double> link_len(n, 0.0);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> frontier;
  seen[0] = 1;
  frontier.push(0);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const auto& [to, idx] : adj.row(v)) {
      if (seen[static_cast<std::size_t>(to)]) continue;
      seen[static_cast<std::size_t>(to)] = 1;
      tree.parent[static_cast<std::size_t>(to)] = v;
      link_len[static_cast<std::size_t>(to)] = g.edge(idx).length;
      frontier.push(to);
    }
  }
  // Prefix distance from root.
  const TreeOrder order = tree_order(tree);
  std::vector<double> pref(n, 0.0);
  for (const NodeId v : order.topdown) {
    const NodeId p = tree.parent[static_cast<std::size_t>(v)];
    if (p != kInvalidNode) {
      pref[static_cast<std::size_t>(v)] =
          pref[static_cast<std::size_t>(p)] +
          link_len[static_cast<std::size_t>(v)];
    }
  }
  const LcaIndex lca(tree);
  double total = 0.0;
  for (const MultiEdge& e : g.edges()) {
    const NodeId meet = lca.lca(e.u, e.v);
    const double dist = pref[static_cast<std::size_t>(e.u)] +
                        pref[static_cast<std::size_t>(e.v)] -
                        2.0 * pref[static_cast<std::size_t>(meet)];
    total += dist / e.length;
  }
  return total / static_cast<double>(g.num_edges());
}

}  // namespace dmf
