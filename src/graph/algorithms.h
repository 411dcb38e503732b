// Basic graph algorithms: BFS, connectivity, diameter.
//
// Every traversal runs on the CsrGraph view; a caller holding only a
// Graph packs one (`const CsrGraph csr(g);`) and keeps it for all its
// traversals.
#pragma once

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

inline constexpr int kUnreached = -1;

// Hop distances from src (kUnreached where unreachable).
std::vector<int> bfs_distances(const CsrGraph& g, NodeId src);

// BFS tree rooted at root: parent pointers, the graph edge to the parent,
// hop depth, and the tree height (max depth over reached nodes).
struct BfsTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;      // parent[root] == kInvalidNode
  std::vector<EdgeId> parent_edge; // kInvalidEdge at root / unreached
  std::vector<int> depth;          // kUnreached where unreachable
  int height = 0;
};

BfsTree build_bfs_tree(const CsrGraph& g, NodeId root);

// Connected components: labels in [0, count), numbered in order of each
// component's smallest node.
struct Components {
  std::vector<int> label;
  int count = 0;
};

Components connected_components(const CsrGraph& g);

bool is_connected(const CsrGraph& g);

// Exact hop diameter via BFS from every node. O(n·m); fine up to n ~ few
// thousand. Requires a connected graph.
int diameter_exact(const CsrGraph& g);

// Double-sweep lower bound on the hop diameter (exact on trees). O(m).
int diameter_double_sweep(const CsrGraph& g, NodeId start = 0);

// Eccentricity of v (max hop distance to any node). Requires connectivity.
int eccentricity(const CsrGraph& g, NodeId v);

}  // namespace dmf
