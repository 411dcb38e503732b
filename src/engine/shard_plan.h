// Locality shard plan: the paper's own low-diameter decomposition
// (Algorithm SplitGraph, Figure 4 — the LSST/cluster machinery) reused
// as the partitioning basis of the sharded serving engine.
//
// Sharding is an engine-only concern: a sharded engine builds the plan
// when it brings up a serving generation (one cluster label per node,
// produced by split_graph over the unweighted multigraph lift with a
// fixed, content-independent seed), and a ShardAssignment folds the
// clusters into K shards deterministically (largest cluster first onto
// the least-loaded shard). The plan is shard-count independent, so any
// engine derives the same node -> shard map for its K from the same
// graph. An unsharded engine (shards = 0) never builds one.
//
// Reuse: a capacity-only repair keeps the previous generation's
// assignment (SplitGraph's BFS is unweighted, so capacities cannot
// change it); every full rebuild recomputes the plan.
//
// Determinism note: the plan influences WHERE a query executes (which
// shard's pipeline) and never WHAT it computes — query results are
// derived from the snapshot and query content alone — so plan choice,
// like scheduling, is invisible in results.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace dmf {

struct ShardPlan {
  // Cluster label per node, in [0, num_clusters). Every node is covered.
  std::vector<int> cluster;
  int num_clusters = 0;

  // Decompose `g` with the fixed plan seed. Deterministic in the graph's
  // topology (capacities do not participate).
  [[nodiscard]] static ShardPlan build(const Graph& g);
};

// A plan folded onto K shards, with per-shard node and edge counts.
// Cluster-atomic: all nodes of one cluster land on one shard, so the
// decomposition's low cut probability bounds the cross-shard edge
// fraction.
class ShardAssignment {
 public:
  struct Slice {
    NodeId nodes = 0;           // global nodes owned by this shard
    EdgeId internal_edges = 0;  // both endpoints on this shard
    EdgeId boundary_edges = 0;  // exactly one endpoint on this shard
  };

  // Folds plan clusters into `num_shards` bins: clusters sorted by
  // (size desc, id asc), each placed on the least-loaded shard (ties to
  // the lowest shard id). Deterministic; num_shards must be positive.
  ShardAssignment(const ShardPlan& plan, int num_shards, const Graph& g);

  [[nodiscard]] int num_shards() const { return num_shards_; }

  // Owning shard of `v`; nodes outside the plan (including invalid ids —
  // the router runs before query validation) map to shard 0.
  [[nodiscard]] int shard_of(NodeId v) const {
    if (v < 0 || static_cast<std::size_t>(v) >= node_shard_.size()) return 0;
    return node_shard_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] const Slice& slice(int shard) const {
    DMF_REQUIRE(shard >= 0 && shard < num_shards_,
                "ShardAssignment::slice: bad shard");
    return slices_[static_cast<std::size_t>(shard)];
  }

  // Fraction of edges internal to some shard (1.0 on an edgeless graph):
  // the locality the terminal router can exploit.
  [[nodiscard]] double locality() const;

 private:
  int num_shards_ = 0;
  std::vector<int> node_shard_;
  std::vector<Slice> slices_;
};

}  // namespace dmf
