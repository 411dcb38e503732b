// Recursive construction and sampling of virtual trees (Theorem 8.10).
//
// A sample is drawn level by level. Level state: a core multigraph whose
// nodes are clusters of the base graph (level 0: every node a singleton
// cluster). Per level we (1) sparsify the core if dense (Lemma 6.1, caps
// up-scaled so the sparsifier never undersells cuts), (2) build a small
// multiplicative-weights distribution of j-trees with j = N/(4*beta)
// (Lemma 8.4) — each j-tree from an AKPW low-stretch spanning tree of the
// current lengths — (3) sample one j-tree, (4) materialize its forest
// links into the virtual tree under construction (cluster representative
// -> representative of forest parent, capacity = tree load), and (5)
// recurse on the portal core. Once the core size drops below
// n^(1/2+o(1)) (the local-finish threshold max(8, 2*sqrt(n))) the
// construction "goes local" exactly as in the paper: the same code path
// continues, the Lemma 8.2 random cut set is disabled, and the round
// accounting switches to a single make-it-global broadcast. beta and the
// other per-level parameters are constants of hierarchy.cpp.
//
// The returned virtual rooted tree over V has the two Theorem 8.10
// properties (checked empirically by E5): cuts in the tree are never
// (much) smaller than in G, and are larger only by an alpha in n^o(1) in
// expectation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "graph/tree.h"
#include "util/rng.h"

namespace dmf {

struct HierarchyOptions {
  // Structural capacity quantization width, in octaves (0 = off). When
  // positive, the *structural* phase of a sample (sparsifier, AKPW
  // lengths, j-tree loads, MWU) observes each capacity rounded down to
  // a per-tree dithered power of 2^width instead of its exact value;
  // the final recapacitation still uses exact capacities, so the
  // Theorem 8.10 cut property is untouched — only the tree-shape
  // sampling coarsens (by at most the width factor). This is what makes
  // incremental hierarchy repair possible: a tree's structure becomes a
  // pure function of (seed, topology, capacity buckets), so a capacity
  // change invalidates a tree only when it crosses one of that tree's
  // bucket boundaries — probability min(1, |log2(new/old)| / width)
  // under the uniform dither (see the ShermanHierarchy constructor).
  double capacity_bucket_octaves = 0.0;
  // Worker threads for sample_virtual_trees (trees are independent).
  // 1 = sequential, 0 = all hardware threads. Any value produces
  // bit-identical samples: each tree draws from its own RNG stream whose
  // seed is derived from the caller's Rng before the parallel region.
  int threads = 1;
};

// --- structural capacity quantization (incremental repair support) ---
// The dither a tree's RNG stream fixes for its capacity buckets: the
// stream's first draw. sample_virtual_tree consumes it as its first
// rng interaction, so a repair can recompute it from the recorded seed
// alone.
double tree_capacity_dither(std::uint64_t seed);

// The bucket capacity `capacity` falls into for bucket width
// `octaves` (> 0) and per-tree dither `dither` in [0, 1): boundaries
// sit at 2^(octaves * (k + dither)) for integer k.
int structural_bucket(double capacity, double octaves, double dither);

// The capacity the structural phase observes: the lower boundary of
// the bucket (identity when octaves <= 0). A pure function of the
// bucket, so two capacities in the same bucket are structurally
// indistinguishable.
double structural_capacity(double capacity, double octaves, double dither);

struct VirtualTreeSample {
  RootedTree tree;  // over V; parent_cap = virtual capacities
  int levels = 0;
  double rounds = 0.0;           // accounted CONGEST rounds
  std::vector<int> level_sizes;  // core size entering each level
  int max_cluster_depth = 0;     // bound tracked during construction
};

// Sample one virtual tree from the recursively constructed distribution.
VirtualTreeSample sample_virtual_tree(const Graph& g,
                                      const HierarchyOptions& options,
                                      Rng& rng);

// Set every link of `tree` to the exact load of g's canonical embedding
// into it (the |f'| of §8.1): the last step of every sample, and all a
// reused tree needs. The full pass (not an incremental update, which
// drifts by FP association) keeps a reused tree bitwise equal to a
// resample.
void recapacitate(const Graph& g, RootedTree& tree);

// The per-tree RNG stream seeds of a `count`-tree build: exactly
// `count` draws, taken before any sampling, so every tree is a pure
// function of its seed.
std::vector<std::uint64_t> tree_stream_seeds(int count, Rng& rng);

// Runs fill(i) once per tree index i in [0, count) on `threads` workers
// (OpenMP when available; 0 = all hardware threads), but on no more than
// `max_workers`; fill may touch only index i's state. The first
// exception thrown is rethrown after.
void for_each_tree(int count, int threads, int max_workers,
                   const std::function<void(int)>& fill);

// O(log n) independent samples (Lemma 3.3); count <= 0 selects
// ceil(2 * log2 n). Trees are sampled on options.threads workers from
// per-tree streams (tree_stream_seeds), so the result is identical at
// every thread count and `rng` advances by exactly `count` draws.
std::vector<VirtualTreeSample> sample_virtual_trees(
    const Graph& g, int count, const HierarchyOptions& options, Rng& rng);

}  // namespace dmf
