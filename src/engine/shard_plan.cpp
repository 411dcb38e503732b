#include "engine/shard_plan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/multigraph.h"
#include "lsst/split_graph.h"
#include "util/rng.h"

namespace dmf {

namespace {

// Fixed plan seed: the decomposition must be a pure function of the
// snapshot's topology so every engine (at any shard count) derives the
// same clusters from the same snapshot.
constexpr std::uint64_t kShardPlanSeed = 0x51a9d5eedULL;

// Target cluster radius. Grows sublinearly so plans keep a healthy
// cluster count (enough to balance across shards) while clusters stay
// large enough that terminal pairs of a locality-friendly workload fall
// inside one.
double plan_radius(NodeId n) {
  return std::max(2.0, std::cbrt(static_cast<double>(n)));
}

}  // namespace

ShardPlan ShardPlan::build(const Graph& g) {
  ShardPlan plan;
  const NodeId n = g.num_nodes();
  if (n == 0) return plan;
  const Multigraph mg = Multigraph::from_graph(g);
  const std::vector<char> allowed(mg.num_edges(), 1);
  Rng rng(kShardPlanSeed);
  SplitResult split = split_graph(mg, allowed, plan_radius(n), rng);
  plan.cluster = std::move(split.cluster);
  plan.num_clusters = split.count;
  return plan;
}

ShardAssignment::ShardAssignment(const ShardPlan& plan, int num_shards,
                                 const Graph& g)
    : num_shards_(num_shards) {
  DMF_REQUIRE(num_shards > 0, "ShardAssignment: num_shards must be positive");
  DMF_REQUIRE(plan.cluster.size() == static_cast<std::size_t>(g.num_nodes()),
              "ShardAssignment: plan does not match graph");
  const std::size_t n = plan.cluster.size();

  // Cluster sizes, then the deterministic greedy fold: biggest clusters
  // first, each onto the least-loaded shard (ties to the lowest id).
  std::vector<NodeId> cluster_size(
      static_cast<std::size_t>(plan.num_clusters), 0);
  for (const int c : plan.cluster) {
    ++cluster_size[static_cast<std::size_t>(c)];
  }
  std::vector<int> order(static_cast<std::size_t>(plan.num_clusters));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const NodeId sa = cluster_size[static_cast<std::size_t>(a)];
    const NodeId sb = cluster_size[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::vector<NodeId> load(static_cast<std::size_t>(num_shards), 0);
  std::vector<int> cluster_shard(static_cast<std::size_t>(plan.num_clusters),
                                 0);
  for (const int c : order) {
    int best = 0;
    for (int s = 1; s < num_shards; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    cluster_shard[static_cast<std::size_t>(c)] = best;
    load[static_cast<std::size_t>(best)] +=
        cluster_size[static_cast<std::size_t>(c)];
  }

  node_shard_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    node_shard_[v] =
        cluster_shard[static_cast<std::size_t>(plan.cluster[v])];
  }

  slices_.resize(static_cast<std::size_t>(num_shards));
  for (const int s : node_shard_) {
    ++slices_[static_cast<std::size_t>(s)].nodes;
  }
  for (const EdgeEndpoints& ep : g.edge_endpoints()) {
    const int su = node_shard_[static_cast<std::size_t>(ep.u)];
    const int sv = node_shard_[static_cast<std::size_t>(ep.v)];
    if (su == sv) {
      ++slices_[static_cast<std::size_t>(su)].internal_edges;
    } else {
      ++slices_[static_cast<std::size_t>(su)].boundary_edges;
      ++slices_[static_cast<std::size_t>(sv)].boundary_edges;
    }
  }
}

double ShardAssignment::locality() const {
  EdgeId internal = 0;
  EdgeId boundary_halves = 0;
  for (const Slice& slice : slices_) {
    internal += slice.internal_edges;
    boundary_halves += slice.boundary_edges;
  }
  const double total =
      static_cast<double>(internal) + static_cast<double>(boundary_halves) / 2.0;
  return total > 0.0 ? static_cast<double>(internal) / total : 1.0;
}

}  // namespace dmf
