// Spectral/cut sparsifier following Koutis' PARALLEL-SPARSIFY (§6,
// Lemma 6.1): iteratively peel off a bundle of Baswana–Sen spanners (kept
// with their original weight), then keep every remaining edge
// independently with probability 1/4 at quadrupled weight; repeat until
// the graph is small. The spanner bundle certifies low effective
// resistance for the sampled edges, which is what makes the 1/4-sampling
// spectrally safe.
//
// Also provides the low-out-degree edge orientation from Lemma 6.1:
// orient all edges so that every cluster's out-degree is O(average
// degree), computed by repeatedly letting low-degree nodes claim their
// unoriented edges.
#pragma once

#include <vector>

#include "graph/multigraph.h"
#include "util/rng.h"

namespace dmf {

struct SparsifierOptions {
  // Number of spanners per bundle; <= 0 selects c * ceil(log2 N) with
  // c = 3 (the eps^-2 log^2 factor of the theorem collapses to a small
  // constant at the scales this library runs at; E4 sweeps this knob).
  int bundle_size = 0;
  // Stop when the edge count drops below target_degree * N.
  double target_degree = 0.0;  // <= 0 selects 4 * bundle_size
};

struct SparsifyResult {
  // Sparsifier over the same node set. Edge caps carry the 4^level
  // up-weighting; lengths are 1/cap; tags/base_edge inherited, so every
  // sparsifier edge is still a real graph edge (paper invariant).
  Multigraph graph;
  int iterations = 0;
  double rounds = 0.0;  // simulated CONGEST rounds (spanner steps)
};

SparsifyResult sparsify(const Multigraph& g, const SparsifierOptions& options,
                        Rng& rng);

// Total capacity of the cut (S, V \ S) in g; `side[v]` != 0 iff v in S.
double cut_capacity(const Multigraph& g, const std::vector<char>& side);

// Orient every edge (result[i]: 0 = u->v, 1 = v->u) such that each node's
// out-degree is at most ~2x the average degree. O(log n) rounds.
std::vector<char> orient_low_outdegree(const Multigraph& g);

}  // namespace dmf
