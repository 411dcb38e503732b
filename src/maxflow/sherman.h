// Top-level (1+eps)-approximate max flow (Theorem 1.1; §9, Algorithm 1).
//
// route():    Algorithm 1 — iterate AlmostRoute on the remaining residual
//             demand (each call shrinks it geometrically), then route the
//             leftover exactly through a maximum-weight spanning tree
//             (Lemma 9.1). The result routes b *exactly*.
//
// max_flow(): the reduction of §2 — route the unit s-t demand with
//             near-optimal congestion; by homogeneity of congestion
//             minimization, scaling the resulting exact unit flow by
//             1/congestion yields a feasible s-t flow of value
//             1/congestion >= (1-eps) * maxflow.
#pragma once

#include <memory>
#include <vector>

#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "maxflow/almost_route.h"
#include "util/span.h"

namespace dmf {

struct ShermanOptions {
  double epsilon = 0.25;        // target approximation quality
  int num_trees = 0;            // sampled virtual trees; 0 = ceil(3 log2 n)
  double alpha = 0.0;           // 0 = estimate empirically after sampling
  int alpha_samples = 12;       // s-t pairs used by the alpha estimate
  int max_almost_route_calls = 0;  // 0 = ceil(log2 m) + 2
  // route() hands the residual to the exact Lemma 9.1 tree rerouting once
  // its mass falls below this fraction of the demand scale. The default
  // drives the residual to numerical noise (~log m AlmostRoute calls of
  // roughly equal cost). Raising it trades a bounded extra congestion of
  // O(tolerance * tree congestion) — still well inside the (1+eps)
  // promise for tolerance << eps — for a proportional cut in AlmostRoute
  // calls; the FlowEngine uses this for batched throughput.
  double route_residual_tolerance = 1e-7;
  AlmostRouteOptions almost_route;
  HierarchyOptions hierarchy;
};

struct RouteResult {
  std::vector<double> flow;  // routes the requested demand exactly
  double congestion = 0.0;   // max_e |f_e| / cap_e
  int almost_route_calls = 0;
  int gradient_iterations = 0;
  double rounds = 0.0;
  bool converged = true;
};

struct MaxFlowApproxResult {
  double value = 0.0;
  std::vector<double> flow;  // feasible s-t flow of the reported value
  double alpha = 0.0;        // approximator quality used
  int num_trees = 0;
  int gradient_iterations = 0;
  double rounds = 0.0;  // total accounted CONGEST rounds (incl. R build)
  bool converged = true;
};

// Per-tree build provenance, recorded at construction time so a later
// build can reuse or resample any tree without replaying the whole
// build: the tree's RNG stream seed, the capacity-bucket dither that
// seed fixes (its stream's first draw), and the CONGEST rounds the
// sample accounted.
struct TreeBuildRecord {
  std::uint64_t seed = 0;
  double dither = 0.0;
  double rounds = 0.0;
};

// How a ShermanHierarchy build used its `previous` hierarchy. attempted
// is true when `previous` applied (same topology, quantization width and
// seed stream), i.e. the build was an incremental repair; it is set
// before any tree is built, so a build that then throws still counts as
// an attempted repair.
struct HierarchyRepairReport {
  bool attempted = false;
  int trees_total = 0;
  int trees_repaired = 0;  // dirty: resampled from their recorded seeds
  int trees_reused = 0;    // clean: previous structure, loads recomputed
};

// Which trees of `prev` a transition to graph `next` invalidates.
// topology_changed covers node/edge additions (no tree is reused);
// otherwise a tree is dirty iff some changed capacity crossed one of
// that tree's structural bucket boundaries (always, when the hierarchy
// was built without quantization).
struct HierarchyDirtySet {
  bool topology_changed = false;
  int num_changed_edges = 0;
  int num_dirty = 0;
  std::vector<char> dirty;  // one flag per tree
};

class ShermanHierarchy;
HierarchyDirtySet hierarchy_dirty_set(const ShermanHierarchy& prev,
                                      const Graph& next);

// The expensive, query-independent half of the solver: the sampled
// congestion-approximator hierarchy, the empirical alpha, and the
// max-weight spanning tree for the Lemma 9.1 rerouting. Built once per
// graph; afterwards it is immutable and may be const-queried from any
// number of solvers and threads concurrently. ShermanOptions.hierarchy
// .threads parallelizes the virtual-tree sampling (trees are independent)
// with per-tree RNG streams, so the build is reproducible at any thread
// count.
class ShermanHierarchy {
 public:
  // Owning form: the hierarchy keeps the graph alive, so anything holding
  // the hierarchy (engine, cache entry, ticket payload) is freely movable.
  // graph_version tags which GraphStore snapshot the hierarchy was built
  // from (0 for callers without a store): the FlowEngine uses it to keep
  // queries and derived caches from ever mixing graph generations.
  // `csr` is the snapshot's packed view when the caller already has one
  // (GraphStore attaches it at publish time); pass null to pack here.
  //
  // `previous` makes the build an incremental repair with the same
  // result: each tree is a pure function of its stream seed and the
  // graph's structural capacity view, so if `previous` has this
  // topology, quantization width and seed stream, its trees whose view
  // is unchanged are reused (only their exact recapacitation re-runs)
  // and only the dirty ones are resampled — bitwise identical to a build
  // without it, `rng` included. If no capacity changed at all, its
  // approximator, alpha and MWST are shared outright (the kNoOp path;
  // `rng` then stops after the seed draws). `report` receives the reuse.
  ShermanHierarchy(std::shared_ptr<const Graph> graph,
                   const ShermanOptions& options, Rng& rng,
                   GraphVersion graph_version = 0,
                   std::shared_ptr<const CsrGraph> csr = nullptr,
                   const ShermanHierarchy* previous = nullptr,
                   HierarchyRepairReport* report = nullptr);

  // Non-owning view for stack-local graphs; the caller guarantees the
  // graph outlives the hierarchy.
  ShermanHierarchy(const Graph& g, const ShermanOptions& options, Rng& rng,
                   GraphVersion graph_version = 0);

  // Persisted-state members a loader (maxflow/hierarchy_io.h) hands back
  // to from_parts. The caller guarantees the parts were saved from a
  // hierarchy built on a bitwise-identical graph with identical options
  // — from_parts validates shapes, not provenance.
  struct Parts {
    std::shared_ptr<const CongestionApproximator> approximator;
    RootedTree mwst;
    std::vector<TreeBuildRecord> tree_records;
    double bucket_octaves = 0.0;
    double alpha = 2.0;
    double build_rounds = 0.0;
  };

  // Reassemble a hierarchy from persisted parts without any sampling —
  // the zero-rebuild cold-start path. Bitwise identical to the build
  // that produced the parts (the approximator's derived state is a
  // deterministic function of the trees; the BFS height is recomputed
  // from the graph exactly as the build computes it).
  static std::shared_ptr<const ShermanHierarchy> from_parts(
      std::shared_ptr<const Graph> graph, std::shared_ptr<const CsrGraph> csr,
      GraphVersion graph_version, Parts parts);

  [[nodiscard]] const Graph& graph() const { return csr_->graph(); }
  // The flat CSR view every query traversal runs on.
  [[nodiscard]] const CsrGraph& csr() const { return *csr_; }
  // The snapshot version this hierarchy answers for; a version tag only,
  // it never influences the sampled state.
  [[nodiscard]] GraphVersion graph_version() const { return graph_version_; }
  [[nodiscard]] const CongestionApproximator& approximator() const {
    return *approximator_;
  }
  [[nodiscard]] const RootedTree& mwst() const { return mwst_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double build_rounds() const { return build_rounds_; }

  // BFS height from node 0 (the CONGEST diameter proxy every route()
  // charges); computed once per hierarchy, by the build and by
  // from_parts alike — it is a pure function of the graph.
  [[nodiscard]] int bfs_height() const { return bfs_height_; }

  // Per-tree repair provenance (one record per sampled tree) and the
  // structural quantization width the build used.
  [[nodiscard]] Span<const TreeBuildRecord> tree_records() const {
    return {tree_records_.data(), tree_records_.size()};
  }
  [[nodiscard]] double capacity_bucket_octaves() const {
    return bucket_octaves_;
  }

 private:
  ShermanHierarchy() = default;  // from_parts() assembles members directly

  // Holds the graph too (null deleter in the view form).
  std::shared_ptr<const CsrGraph> csr_;
  // shared (not unique): the kNoOp path re-tags a hierarchy for a new
  // snapshot with identical content and shares the approximator.
  std::shared_ptr<const CongestionApproximator> approximator_;
  RootedTree mwst_;  // max-weight spanning tree for residual rerouting
  std::vector<TreeBuildRecord> tree_records_;
  double bucket_octaves_ = 0.0;
  double alpha_ = 2.0;
  double build_rounds_ = 0.0;
  int bfs_height_ = 0;
  GraphVersion graph_version_ = 0;
};

// A solver bundles the sampled congestion approximator (expensive, built
// once) with the routing routines (cheap per call). Constructing one from
// a shared ShermanHierarchy is O(1); many solvers (or one solver used
// from many threads — every query method is const and thread-safe) can
// amortize a single hierarchy build across arbitrarily many queries.
class ShermanSolver {
 public:
  // Builds a private hierarchy, then behaves as before.
  ShermanSolver(const Graph& g, const ShermanOptions& options, Rng& rng);

  // Shares a prebuilt hierarchy; no sampling happens. The hierarchy must
  // outlive the solver (shared_ptr enforces it).
  ShermanSolver(std::shared_ptr<const ShermanHierarchy> hierarchy,
                const ShermanOptions& options);

  // Route an arbitrary demand vector (sum ~ 0) exactly; near-optimal
  // congestion.
  [[nodiscard]] RouteResult route(const std::vector<double>& demand) const;

  // (1+eps)-approximate maximum s-t flow.
  [[nodiscard]] MaxFlowApproxResult max_flow(NodeId s, NodeId t) const;

  // Approximate minimum s-t cut: the most congested tree cut under the
  // unit s-t demand. Its capacity is within a factor alpha of the true
  // min cut (max-flow min-cut + Lemma 3.3), and it is always a valid
  // separating cut.
  struct ApproxMinCut {
    double capacity = 0.0;
    std::vector<char> source_side;
  };
  [[nodiscard]] ApproxMinCut approx_min_cut(NodeId s, NodeId t) const;

  [[nodiscard]] const CongestionApproximator& approximator() const {
    return hierarchy_->approximator();
  }
  [[nodiscard]] const ShermanHierarchy& hierarchy() const {
    return *hierarchy_;
  }
  [[nodiscard]] double alpha() const { return hierarchy_->alpha(); }
  [[nodiscard]] double build_rounds() const {
    return hierarchy_->build_rounds();
  }

 private:
  std::shared_ptr<const ShermanHierarchy> hierarchy_;
  ShermanOptions options_;
};

// One-shot convenience wrapper.
MaxFlowApproxResult approx_max_flow(const Graph& g, NodeId s, NodeId t,
                                    double epsilon, Rng& rng);

}  // namespace dmf
