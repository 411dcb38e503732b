#include "cluster/boruvka.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "congest/ledger.h"
#include "graph/algorithms.h"

namespace dmf {

namespace {

// Union-find for the component merging between phases.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

BoruvkaResult distributed_boruvka(const Graph& g, bool maximize) {
  const NodeId n = g.num_nodes();
  DMF_REQUIRE(n >= 1, "distributed_boruvka: empty graph");
  const CsrGraph csr(g);
  DMF_REQUIRE(is_connected(csr), "distributed_boruvka: graph disconnected");
  const auto nn = static_cast<std::size_t>(n);

  const congest::CostModel cost{
      .n = static_cast<int>(n),
      .diameter = build_bfs_tree(csr, 0).height};

  BoruvkaResult result;
  UnionFind uf(nn);
  std::size_t components = nn;
  // Better-edge comparison: strict improvement with id tie-break so that
  // all nodes of a component agree deterministically (the distributed
  // implementation breaks ties identically from the edge id).
  const auto better = [&g, maximize](EdgeId a, EdgeId b) {
    if (b == kInvalidEdge) return true;
    const double wa = g.capacity(a);
    const double wb = g.capacity(b);
    if (wa != wb) return maximize ? wa > wb : wa < wb;
    return a < b;
  };

  while (components > 1) {
    ++result.phases;
    DMF_REQUIRE(result.phases <= 2 * static_cast<int>(std::log2(nn)) + 4,
                "distributed_boruvka: phase runaway");
    // Each component's best outgoing edge. Distributedly: every node
    // inspects its incident edges (it knows both endpoints' component
    // ids after one announcement round) and the component convergecasts
    // the min/max — the simulate_cluster_exchange pattern. Here we fold
    // that reduction centrally and charge the Lemma 5.1 cluster round.
    std::vector<EdgeId> best(nn, kInvalidEdge);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const EdgeEndpoints ep = g.endpoints(e);
      const std::size_t cu = uf.find(static_cast<std::size_t>(ep.u));
      const std::size_t cv = uf.find(static_cast<std::size_t>(ep.v));
      if (cu == cv) continue;
      if (better(e, best[cu])) best[cu] = e;
      if (better(e, best[cv])) best[cv] = e;
    }
    // Merge along selected edges.
    std::size_t merged = 0;
    for (std::size_t c = 0; c < nn; ++c) {
      const EdgeId e = best[c];
      if (e == kInvalidEdge || uf.find(c) != c) continue;
      const EdgeEndpoints ep = g.endpoints(e);
      if (uf.unite(static_cast<std::size_t>(ep.u),
                   static_cast<std::size_t>(ep.v))) {
        result.tree_edges.push_back(e);
        ++merged;
      }
    }
    DMF_REQUIRE(merged > 0, "distributed_boruvka: no progress");
    components -= merged;
    // Cost: one cluster round; component-tree depth is bounded by the
    // accumulated tree diameter, itself at most n — we charge the
    // conservative D + sqrt(n) pipelined form plus the component depth
    // (Kutten-Peleg style decomposition would cap this at ~sqrt(n)).
    result.rounds += cost.cluster_step(
        std::min<double>(static_cast<double>(n), cost.sqrt_n() * result.phases),
        cost.sqrt_n());
  }
  DMF_REQUIRE(result.tree_edges.size() == nn - 1,
              "distributed_boruvka: not a spanning tree");
  return result;
}

RootedTree boruvka_max_weight_tree(const Graph& g, NodeId root,
                                   double* rounds) {
  const BoruvkaResult mst = distributed_boruvka(g, /*maximize=*/true);
  if (rounds != nullptr) *rounds = mst.rounds;
  const auto nn = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<AdjEntry>> adj(nn);
  for (const EdgeId e : mst.tree_edges) {
    const EdgeEndpoints ep = g.endpoints(e);
    adj[static_cast<std::size_t>(ep.u)].push_back({ep.v, e});
    adj[static_cast<std::size_t>(ep.v)].push_back({ep.u, e});
  }
  RootedTree tree;
  tree.root = root;
  tree.parent.assign(nn, kInvalidNode);
  tree.parent_cap.assign(nn, 0.0);
  tree.parent_edge.assign(nn, kInvalidEdge);
  std::queue<NodeId> frontier;
  std::vector<char> seen(nn, 0);
  seen[static_cast<std::size_t>(root)] = 1;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const AdjEntry& a : adj[static_cast<std::size_t>(v)]) {
      if (seen[static_cast<std::size_t>(a.to)]) continue;
      seen[static_cast<std::size_t>(a.to)] = 1;
      tree.parent[static_cast<std::size_t>(a.to)] = v;
      tree.parent_edge[static_cast<std::size_t>(a.to)] = a.edge;
      tree.parent_cap[static_cast<std::size_t>(a.to)] = g.capacity(a.edge);
      frontier.push(a.to);
    }
  }
  return tree;
}

}  // namespace dmf
