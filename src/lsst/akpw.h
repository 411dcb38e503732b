// Low average-stretch spanning trees via the AKPW scheme (Alon, Karp,
// Peleg, West) in the parallel formulation of Blelloch et al., as used by
// the paper (§7, Theorem 3.1).
//
// Input: a connected multigraph with positive edge lengths (obtained from
// the network graph by assigning lengths and contracting). Edges are
// grouped into weight classes E_i = { e : length(e) in [z^(i-1), z^i) };
// iteration j runs Partition on the (unweighted) union of classes
// E_1..E_j with constant target radius rho = z/4, outputs the BFS trees
// of the clusters as tree edges, and contracts the clusters. The expected
// average stretch is 2^O(sqrt(log n * log log n)) for
// z = Theta~(2^sqrt(6 log N log log N)).
//
// The returned tree is reported as `tag`s of the input multigraph's
// edges, so it survives the contractions performed internally, and maps
// back to base-graph edges via MultiEdge::base_edge.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"
#include "graph/tree.h"
#include "lsst/partition.h"
#include "util/rng.h"

namespace dmf {

struct LowStretchTreeResult {
  // Edge indices into the *input* multigraph forming a spanning tree.
  std::vector<std::size_t> tree_edges;
  int iterations = 0;
  int partition_attempts = 0;
  // Simulated CONGEST rounds for the whole construction, following the
  // §7 accounting: each SplitGraph BFS round costs O(D + sqrt(n)) network
  // rounds when run on a cluster graph (Lemma 5.1); the caller scales by
  // its CostModel. Here we report raw "BFS rounds".
  double bfs_rounds = 0.0;
};

// The weight-class base z for a graph of N nodes: the paper's formula
// 2^sqrt(6 log N log log N), clamped to [4, 2^16].
double akpw_default_z(NodeId num_nodes);

// Requires g connected (w.r.t. all edges). Lengths must be positive.
// Every Partition call runs with the retry budget `retries` (max_retries,
// slack); its rho is replaced by the AKPW radius (z/4, doubled whenever
// contraction stalls).
LowStretchTreeResult akpw_low_stretch_tree(const Multigraph& g,
                                           const PartitionOptions& retries,
                                           Rng& rng);

// Build a rooted tree over g's node space from tree edge indices.
// parent_cap is the multigraph edge capacity; parent_edge the base edge.
RootedTree tree_from_multigraph_edges(const Multigraph& g,
                                      const std::vector<std::size_t>& edges,
                                      NodeId root);

// Average stretch of the tree w.r.t. g's lengths:
//   (1/m) * sum_e dT(u_e, v_e) / length(e).
double average_stretch(const Multigraph& g,
                       const std::vector<std::size_t>& tree_edges);

}  // namespace dmf
