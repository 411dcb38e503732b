// Räcke-style distribution of full (non-recursive) capacitated trees via
// multiplicative weight updates (§2 "Congestion Approximators: Räcke's
// Construction").
//
// This is the construction the paper *avoids* distributing (it needs a
// near-linear number of sequentially built trees); we implement it as the
// ablation baseline for E11: quality (alpha) per construction cost,
// head-to-head with the recursive j-tree hierarchy.
//
// Each iteration builds an AKPW low-stretch spanning tree w.r.t. the
// current lengths, capacitates its links with the tree loads (so G
// 1-embeds into it), and lengthens heavily loaded edges for the next
// iteration.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/tree.h"
#include "util/rng.h"

namespace dmf {

struct RackeOptions {
  int num_trees = 8;
};

struct RackeDistribution {
  // Trees over V with load capacities on links.
  std::vector<RootedTree> trees;
  // Accounted CONGEST rounds (trees are built sequentially: this is the
  // bottleneck the recursive construction removes).
  double rounds = 0.0;
};

RackeDistribution build_racke_trees(const Graph& g, const RackeOptions& options,
                                    Rng& rng);

}  // namespace dmf
