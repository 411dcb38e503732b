#include "capprox/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>

#ifdef DMF_HAVE_OPENMP
#include <omp.h>
#endif

#include "congest/ledger.h"
#include "graph/algorithms.h"
#include "jtree/jtree.h"
#include "lsst/akpw.h"
#include "sparsify/sparsifier.h"

namespace dmf {

namespace {

// The build's fixed parameters. hierarchy_fingerprint
// (maxflow/hierarchy_io.cpp) mixes the values of kBeta, kSparsifyDegree,
// kSparsifierUpscale and kMwuEta as literals: a change here needs the
// same change there, or hierarchies saved under the old values would
// still load. maxflow_test's GoldenBuild tests pin both.

// Core shrink factor per level: j = N / (4 * beta) per level. The paper's
// beta = 2^(log2 n)^(3/4) degenerates to a single level at the scales
// this library runs at, so a fixed 4 keeps a real hierarchy.
constexpr double kBeta = 4.0;
// Size of the per-level j-tree distribution (Lemma 8.4's Õ(beta)):
// max(3, beta).
constexpr int kTreesPerLevel = 4;
// Sparsify the core when it has more than kSparsifyDegree * N edges.
constexpr double kSparsifyDegree = 16.0;
// Capacity up-scaling after sparsification (stands in for the paper's
// 1/(1-eps) with the (1+o(1)) sparsifier).
constexpr double kSparsifierUpscale = 1.25;
// Multiplicative-weights step for the per-level length updates.
constexpr double kMwuEta = 0.5;
// Looser AKPW partition acceptance than the default (40 retries, slack
// 4): the hierarchy builds many trees, and per-tree restart storms would
// dominate runtime.
constexpr PartitionOptions kAkpwPartition{.max_retries = 6, .slack = 6.0};

}  // namespace

double tree_capacity_dither(std::uint64_t seed) {
  Rng rng(seed);
  return rng.next_double();
}

int structural_bucket(double capacity, double octaves, double dither) {
  DMF_ASSERT(capacity > 0.0 && octaves > 0.0, "structural_bucket: bad input");
  return static_cast<int>(
      std::floor(std::log2(capacity) / octaves - dither));
}

double structural_capacity(double capacity, double octaves, double dither) {
  if (octaves <= 0.0) return capacity;
  const int bucket = structural_bucket(capacity, octaves, dither);
  // Lower bucket boundary; clamped away from zero so downstream
  // cap > 0 requirements hold even for extreme inputs.
  return std::max(std::exp2(octaves * (static_cast<double>(bucket) + dither)),
                  1e-300);
}

VirtualTreeSample sample_virtual_tree(const Graph& g,
                                      const HierarchyOptions& options,
                                      Rng& rng) {
  const NodeId n = g.num_nodes();
  const auto nn = static_cast<std::size_t>(n);
  DMF_REQUIRE(n >= 1, "sample_virtual_tree: empty graph");
  // The capacity-bucket dither is ALWAYS the stream's first draw (even
  // with quantization off), so a tree's dither — and hence its dirty
  // predicate under repair — is recomputable from its seed alone, and
  // the stream layout does not depend on the quantization width.
  const double dither = rng.next_double();
  // Transient flat view for the two base-graph traversals below.
  const CsrGraph csr(g);
  DMF_REQUIRE(is_connected(csr),
              "sample_virtual_tree: graph must be connected");

  VirtualTreeSample out;
  out.tree.parent.assign(nn, kInvalidNode);
  out.tree.parent_cap.assign(nn, 0.0);
  out.tree.parent_edge.assign(nn, kInvalidEdge);

  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const int finish_threshold =
      std::max(8, static_cast<int>(std::ceil(2.0 * sqrt_n)));

  // Measured diameter bound for the round accounting.
  const congest::CostModel cost{
      .n = static_cast<int>(n),
      .diameter = n > 0 ? build_bfs_tree(csr, 0).height : 0};
  const double log_n = cost.log_n();

  // Level state. With quantization on, the structural phase sees every
  // capacity rounded down to this tree's dithered bucket boundary; the
  // exact capacities return in the final recapacitation below. All
  // deeper levels derive from this core, so one pass here quantizes the
  // whole construction.
  Multigraph core = Multigraph::from_graph(g);
  if (options.capacity_bucket_octaves > 0.0) {
    for (std::size_t i = 0; i < core.num_edges(); ++i) {
      MultiEdge& e = core.edge_mutable(i);
      e.cap = structural_capacity(e.cap, options.capacity_bucket_octaves,
                                  dither);
      e.length = 1.0 / e.cap;
    }
  }
  std::vector<NodeId> rep(nn);
  std::iota(rep.begin(), rep.end(), 0);
  std::vector<double> cluster_size(nn, 1.0);
  double cluster_depth = 0.0;  // depth bound shared across the level

  bool went_local = false;
  while (core.num_nodes() > 1) {
    const NodeId level_n = core.num_nodes();
    out.level_sizes.push_back(static_cast<int>(level_n));
    ++out.levels;
    DMF_REQUIRE(out.levels <= 64, "sample_virtual_tree: level runaway");
    const bool local = level_n <= finish_threshold;
    if (local && !went_local) {
      went_local = true;
      // Make the (small) core globally known: pipelined broadcast of
      // O(level_n * polylog) words over a BFS tree.
      out.rounds += cost.pipelined(static_cast<double>(level_n) * log_n);
    }
    const double large_clusters = std::min(
        static_cast<double>(level_n),
        static_cast<double>(std::count_if(
            cluster_size.begin(),
            cluster_size.begin() + static_cast<std::ptrdiff_t>(level_n),
            [sqrt_n](double s) { return s > sqrt_n; })));
    const double step =
        local ? 0.0 : cost.cluster_step(cluster_depth, large_clusters);

    // --- (1) Sparsify a dense core. ---
    if (static_cast<double>(core.num_edges()) >
        kSparsifyDegree * static_cast<double>(level_n)) {
      SparsifyResult sp = sparsify(core, SparsifierOptions{}, rng);
      for (std::size_t i = 0; i < sp.graph.num_edges(); ++i) {
        MultiEdge& e = sp.graph.edge_mutable(i);
        e.cap *= kSparsifierUpscale;
        e.length = 1.0 / e.cap;
      }
      core = std::move(sp.graph);
      if (!local) out.rounds += sp.rounds * std::max(1.0, step);
    }

    // --- (2) Build the per-level j-tree distribution via MWU. ---
    const int j =
        std::max(1, static_cast<int>(static_cast<double>(level_n) /
                                     (4.0 * kBeta)));
    JTreeOptions jopt;
    jopt.j = j;
    jopt.sqrt_target = local ? 0.0 : sqrt_n;

    std::vector<double> weight(core.num_edges(), 1.0);
    std::vector<JTree> distribution;
    std::vector<double> lambda;  // sampling weight per tree
    distribution.reserve(static_cast<std::size_t>(kTreesPerLevel));
    std::vector<double> sizes(cluster_size.begin(),
                              cluster_size.begin() +
                                  static_cast<std::ptrdiff_t>(level_n));
    for (int t = 0; t < kTreesPerLevel; ++t) {
      for (std::size_t i = 0; i < core.num_edges(); ++i) {
        MultiEdge& e = core.edge_mutable(i);
        e.length = weight[i] / e.cap;
      }
      const LowStretchTreeResult lsst =
          akpw_low_stretch_tree(core, kAkpwPartition, rng);
      const RootedTree tree = build_rooted_tree_mg(core, lsst.tree_edges, 0);
      JTree jt = build_jtree(core, tree, sizes, jopt, rng);
      if (jt.portal_count >= level_n && level_n > 1) {
        // The random cut set R was too aggressive (possible when cluster
        // sizes approach sqrt(n) before the local threshold): rebuild
        // without it; Lemma 8.5 then guarantees < 4j portals.
        JTreeOptions fallback = jopt;
        fallback.sqrt_target = 0.0;
        jt = build_jtree(core, tree, sizes, fallback, rng);
      }
      // MWU: lengthen heavily loaded tree edges.
      double max_rload = 0.0;
      for (const double r : jt.tree_rload) max_rload = std::max(max_rload, r);
      if (max_rload > 0.0) {
        for (std::size_t i = 0; i < core.num_edges(); ++i) {
          if (jt.tree_rload[i] > 0.0) {
            weight[i] *= 1.0 + kMwuEta * jt.tree_rload[i] / max_rload;
          }
        }
      }
      lambda.push_back(1.0 / std::max(1.0, max_rload));
      distribution.push_back(std::move(jt));
      if (!local) {
        // LSST construction simulated on the cluster graph + the load
        // aggregation of Lemma 8.3.
        out.rounds += lsst.bfs_rounds * std::max(1.0, step);
        out.rounds += (cost.diameter + 2.0 * sqrt_n + cluster_depth) * log_n;
      }
    }

    // --- (3) Sample one j-tree (O(log n) random bits broadcast). ---
    // lambda-weighted sampling: trees whose maximum relative load is
    // smaller approximate cuts better and get proportionally more mass —
    // the small-scale stand-in for the lambda weights Madry's analysis
    // assigns across the MWU sequence.
    if (!local) out.rounds += cost.bfs();
    double lambda_total = 0.0;
    for (const double l : lambda) lambda_total += l;
    double draw = rng.next_double() * lambda_total;
    std::size_t pick_index = distribution.size() - 1;
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      draw -= lambda[i];
      if (draw <= 0.0) {
        pick_index = i;
        break;
      }
    }
    const JTree& pick = distribution[pick_index];

    // --- (4) Materialize forest links into the virtual tree. ---
    for (NodeId c = 0; c < level_n; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const NodeId fp = pick.forest_parent[ci];
      if (fp == kInvalidNode) continue;  // portal: survives to next level
      const auto child_rep = static_cast<std::size_t>(rep[ci]);
      DMF_REQUIRE(out.tree.parent[child_rep] == kInvalidNode,
                  "sample_virtual_tree: representative reused");
      out.tree.parent[child_rep] = rep[static_cast<std::size_t>(fp)];
      out.tree.parent_cap[child_rep] = pick.forest_cap[ci];
      const std::size_t fe = pick.forest_edge[ci];
      out.tree.parent_edge[child_rep] =
          fe == kNoMultiEdge ? kInvalidEdge : core.edge(fe).base_edge;
    }

    // --- (5) Build the next level on the portal core. ---
    const NodeId next_n = static_cast<NodeId>(pick.portal_count);
    DMF_REQUIRE(next_n >= 1 && next_n < level_n,
                "sample_virtual_tree: no progress at this level");
    std::vector<NodeId> old_to_new(static_cast<std::size_t>(level_n),
                                   kInvalidNode);
    std::vector<NodeId> new_rep(static_cast<std::size_t>(next_n));
    std::vector<double> new_size(static_cast<std::size_t>(next_n), 0.0);
    NodeId next_id = 0;
    for (NodeId c = 0; c < level_n; ++c) {
      if (pick.is_portal[static_cast<std::size_t>(c)]) {
        old_to_new[static_cast<std::size_t>(c)] = next_id;
        new_rep[static_cast<std::size_t>(next_id)] =
            rep[static_cast<std::size_t>(c)];
        ++next_id;
      }
    }
    DMF_REQUIRE(next_id == next_n, "sample_virtual_tree: portal miscount");
    for (NodeId c = 0; c < level_n; ++c) {
      const NodeId p = pick.portal[static_cast<std::size_t>(c)];
      new_size[static_cast<std::size_t>(
          old_to_new[static_cast<std::size_t>(p)])] +=
          sizes[static_cast<std::size_t>(c)];
    }
    Multigraph next_core(next_n);
    for (std::size_t i = 0; i < pick.core.num_edges(); ++i) {
      MultiEdge e = pick.core.edge(i);
      e.u = old_to_new[static_cast<std::size_t>(e.u)];
      e.v = old_to_new[static_cast<std::size_t>(e.v)];
      next_core.add_edge(e);
    }
    // New cluster-tree depth bound: old trees plus forest paths
    // (Lemma 8.2 keeps pick.max_forest_depth at Õ(sqrt n)). A cluster
    // tree is a subtree of G, so n is a hard cap.
    cluster_depth = std::min(
        static_cast<double>(n),
        cluster_depth +
            static_cast<double>(pick.max_forest_depth) *
                (2.0 * cluster_depth + 1.0) +
            1.0);
    out.max_cluster_depth =
        std::max(out.max_cluster_depth,
                 static_cast<int>(std::min(cluster_depth,
                                           static_cast<double>(n))));
    core = std::move(next_core);
    rep.assign(new_rep.begin(), new_rep.end());
    cluster_size.assign(new_size.begin(), new_size.end());
  }

  // Root the virtual tree at the last surviving representative.
  DMF_REQUIRE(core.num_nodes() == 1, "sample_virtual_tree: bad final core");
  out.tree.root = rep[0];
  out.tree.validate();

  // Recapacitate every link with the exact loads, computed on the final
  // tree by the Lemma 8.3 aggregation in Õ(sqrt n + D) rounds. The
  // level-wise capacities drift by the compounded sparsifier slack; the
  // exact loads restore the Räcke property precisely: every tree cut has
  // capacity >= the corresponding G cut, so ||Rb|| never overestimates
  // congestion.
  recapacitate(g, out.tree);
  out.rounds += (cost.diameter + 2.0 * sqrt_n) * log_n;
  return out;
}

void recapacitate(const Graph& g, RootedTree& tree) {
  const std::vector<double> exact_loads = tree_edge_loads(g, tree);
  tree.parent_cap.assign(exact_loads.size(), 0.0);
  for (std::size_t v = 0; v < exact_loads.size(); ++v) {
    if (static_cast<NodeId>(v) == tree.root) continue;
    tree.parent_cap[v] = std::max(exact_loads[v], 1e-12);
  }
}

std::vector<std::uint64_t> tree_stream_seeds(int count, Rng& rng) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  for (std::uint64_t& s : seeds) s = rng() ^ 0x9e3779b97f4a7c15ULL;
  return seeds;
}

void for_each_tree(int count, int threads, int max_workers,
                   const std::function<void(int)>& fill) {
#ifdef DMF_HAVE_OPENMP
  if (threads <= 0) threads = omp_get_max_threads();
  threads = std::min(threads, max_workers);
  if (threads > 1 && count > 1) {
    // fill may throw (DMF_REQUIRE); OpenMP must not let an exception
    // escape a parallel region, so capture the first one and rethrow.
    std::exception_ptr error;
#pragma omp parallel for schedule(dynamic) num_threads(threads)
    for (int i = 0; i < count; ++i) {
      try {
        fill(i);
      } catch (...) {
#pragma omp critical
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
#else
  (void)threads;
  (void)max_workers;
#endif
  for (int i = 0; i < count; ++i) fill(i);
}

std::vector<VirtualTreeSample> sample_virtual_trees(
    const Graph& g, int count, const HierarchyOptions& options, Rng& rng) {
  if (count <= 0) {
    count = static_cast<int>(
        std::ceil(2.0 * std::log2(static_cast<double>(
                            std::max<NodeId>(2, g.num_nodes())))));
  }
  const std::vector<std::uint64_t> seeds = tree_stream_seeds(count, rng);
  std::vector<VirtualTreeSample> samples(static_cast<std::size_t>(count));
  for_each_tree(count, options.threads, count, [&](int i) {
    const auto t = static_cast<std::size_t>(i);
    Rng tree_rng(seeds[t]);
    samples[t] = sample_virtual_tree(g, options, tree_rng);
  });
  return samples;
}

}  // namespace dmf
