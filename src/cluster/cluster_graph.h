// Distributed cluster graphs (Definition 5.1) and the Lemma 5.1
// simulation machinery.
//
// A cluster graph partitions the network's nodes into clusters, each with
// a leader and a rooted spanning tree inside the cluster (condition III),
// plus cluster-level edges mapped by psi to physical edges between the
// clusters (condition IV). Higher levels of the congestion-approximator
// hierarchy run *on* cluster graphs; Lemma 5.1 says one round of a
// B-bounded-space algorithm on the cluster graph costs O(D + sqrt(n))
// network rounds (intra-cluster broadcast/convergecast, pipelined global
// handling of the <= sqrt(n) large clusters, one exchange round over the
// psi edges).
//
// simulate_cluster_exchange() executes one such round for real on the
// message-passing simulator, so the cost model used by the hierarchy's
// ledger is backed by measured rounds (experiment E8).
#pragma once

#include <memory>
#include <vector>

#include "congest/network.h"
#include "congest/programs.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "graph/multigraph.h"

namespace dmf {

struct ClusterGraph {
  // CSR view of the base graph, packed once by make_cluster_graph; it
  // borrows the graph, which must outlive the ClusterGraph.
  std::shared_ptr<const CsrGraph> base;
  std::vector<int> cluster_of;      // node -> cluster id in [0, count)
  std::vector<NodeId> leader;       // cluster id -> leader node
  std::vector<NodeId> tree_parent;  // node -> parent in its cluster tree
                                    // (kInvalidNode at leaders)
  // Cluster-level edges; MultiEdge::{u,v} are cluster ids and base_edge
  // is the physical edge psi maps to.
  Multigraph edges;
  int count = 0;

  // Checks conditions (I)-(IV) of Definition 5.1; throws on violation.
  void validate() const;

  // Max depth over all cluster trees.
  [[nodiscard]] int max_tree_depth() const;

  [[nodiscard]] int cluster_size(int c) const;
};

// Build a cluster graph from a partition: leaders are the minimum node
// ids, trees are BFS trees inside each cluster (must be connected), and
// every base edge between distinct clusters becomes a cluster edge.
ClusterGraph make_cluster_graph(const Graph& g,
                                const std::vector<int>& cluster_of);

// One communication round on the cluster graph, run on the CONGEST
// simulator: each leader's token is broadcast through its cluster tree,
// exchanged over every psi edge, and the sum of received neighbor tokens
// is convergecast back to each leader.
struct ClusterExchangeResult {
  // For each cluster, the sum of the tokens received over its incident
  // cluster edges (with multiplicity).
  std::vector<double> received_sum;
  congest::RunStats stats;
};

ClusterExchangeResult simulate_cluster_exchange(
    const ClusterGraph& cg, const std::vector<double>& leader_token);

}  // namespace dmf
