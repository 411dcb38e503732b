#include "maxflow/sherman.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/tree_routing.h"
#include "cluster/boruvka.h"
#include "congest/ledger.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/tree.h"

namespace dmf {

namespace {

// The tree count a build resolves for n nodes.
int resolved_num_trees(const ShermanOptions& options, NodeId n) {
  return options.num_trees > 0
             ? options.num_trees
             : static_cast<int>(std::ceil(
                   3.0 * std::log2(static_cast<double>(n))));
}

// The alpha a build resolves: the pinned value, or the padded sampled
// estimate.
double resolved_alpha(const ShermanOptions& options, const Graph& g,
                      const CongestionApproximator& approximator, Rng& rng) {
  DMF_REQUIRE(std::isfinite(options.alpha),
              "ShermanHierarchy: alpha must be finite");
  if (options.alpha > 0.0) return options.alpha;
  const AlphaEstimate est =
      estimate_alpha(g, approximator, options.alpha_samples, rng);
  // The gradient descent needs alpha >= the true approximation factor;
  // pad the sampled estimate. The clamp trades a little theoretical
  // slack for bounded step sizes: iterations scale with alpha^2, and an
  // occasional outlier estimate (a cut no sampled tree represents well)
  // would otherwise stall the descent far beyond its value.
  return std::clamp(1.25 * est.alpha, 1.5, 12.0);
}

// The packed view a hierarchy keeps its graph through: the caller's
// `csr` when it has one, else packed here.
std::shared_ptr<const CsrGraph> attach_csr(
    std::shared_ptr<const Graph> graph, std::shared_ptr<const CsrGraph> csr) {
  DMF_REQUIRE(graph != nullptr, "ShermanHierarchy: null graph");
  if (csr == nullptr) return std::make_shared<const CsrGraph>(std::move(graph));
  DMF_REQUIRE(&csr->graph() == graph.get(),
              "ShermanHierarchy: csr does not view this graph");
  return csr;
}

// Whether `previous` was built on this topology with this quantization
// width and the stream `seeds` came from: only then is each of its
// trees what this build would sample, wherever the tree's structural
// view is unchanged.
bool reusable(const ShermanHierarchy& previous, const Graph& g,
              double bucket_octaves, const std::vector<std::uint64_t>& seeds,
              HierarchyDirtySet& diff) {
  const std::vector<TreeBuildRecord>& records = previous.tree_records();
  const auto same_seed = [](std::uint64_t seed, const TreeBuildRecord& r) {
    return seed == r.seed;
  };
  if (previous.capacity_bucket_octaves() != bucket_octaves ||
      records.size() != seeds.size() ||
      !std::equal(seeds.begin(), seeds.end(), records.begin(), same_seed)) {
    return false;
  }
  diff = hierarchy_dirty_set(previous, g);
  return !diff.topology_changed;
}

}  // namespace

ShermanHierarchy::ShermanHierarchy(const Graph& g,
                                   const ShermanOptions& options, Rng& rng,
                                   GraphVersion graph_version)
    : ShermanHierarchy(std::shared_ptr<const Graph>(std::shared_ptr<void>(),
                                                    &g),
                       options, rng, graph_version) {}

ShermanHierarchy::ShermanHierarchy(std::shared_ptr<const Graph> graph,
                                   const ShermanOptions& options, Rng& rng,
                                   GraphVersion graph_version,
                                   std::shared_ptr<const CsrGraph> csr,
                                   const ShermanHierarchy* previous,
                                   HierarchyRepairReport* report)
    : csr_(attach_csr(std::move(graph), std::move(csr))),
      bucket_octaves_(options.hierarchy.capacity_bucket_octaves),
      graph_version_(graph_version) {
  const Graph& g = csr_->graph();
  DMF_REQUIRE(g.num_nodes() >= 2, "ShermanHierarchy: need >= 2 nodes");
  DMF_REQUIRE(is_connected(*csr_), "ShermanHierarchy: graph must be connected");
  const int num_trees = resolved_num_trees(options, g.num_nodes());
  const std::vector<std::uint64_t> seeds = tree_stream_seeds(num_trees, rng);
  HierarchyDirtySet diff;
  const bool reuse = previous != nullptr &&
                     reusable(*previous, g, bucket_octaves_, seeds, diff);
  if (report != nullptr) {
    report->attempted = reuse;
    report->trees_total = num_trees;
    report->trees_repaired = reuse ? diff.num_dirty : 0;
    report->trees_reused = reuse ? num_trees - diff.num_dirty : 0;
  }
  if (reuse && diff.num_changed_edges == 0) {
    // Identical capacities (an empty or no-op batch): every derived
    // structure of a from-scratch build would come out identical, so
    // share the previous one outright and only re-tag the snapshot.
    approximator_ = previous->approximator_;
    mwst_ = previous->mwst_;
    tree_records_ = previous->tree_records_;
    alpha_ = previous->alpha_;
    build_rounds_ = previous->build_rounds_;
    bfs_height_ = previous->bfs_height_;
    return;
  }

  // A dirty (or unreusable) tree is sampled from its stream seed. A clean
  // tree's structural phase would see bitwise-identical inputs (same
  // stream, same quantized capacities), so its structure is taken from
  // `previous` and only the exact recapacitation is re-run on the new
  // capacities. Rounds are structural-phase state: the recorded value is
  // exact for a clean tree. Recapacitating costs a few percent of
  // sampling, so a repair takes no more workers than it has trees to
  // sample: more would only take cores from queries served meanwhile.
  std::vector<VirtualTreeSample> samples(seeds.size());
  const int workers = reuse ? std::max(1, diff.num_dirty) : num_trees;
  for_each_tree(num_trees, options.hierarchy.threads, workers, [&](int i) {
    const auto t = static_cast<std::size_t>(i);
    if (reuse && diff.dirty[t] == 0) {
      samples[t].tree = previous->approximator().tree(i);
      recapacitate(g, samples[t].tree);
      samples[t].rounds = previous->tree_records_[t].rounds;
      return;
    }
    Rng tree_rng(seeds[t]);
    samples[t] = sample_virtual_tree(g, options.hierarchy, tree_rng);
  });
  tree_records_.resize(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    build_rounds_ += samples[i].rounds;
    tree_records_[i] = {seeds[i], tree_capacity_dither(seeds[i]),
                        samples[i].rounds};
  }
  approximator_ = std::make_shared<const CongestionApproximator>(
      CongestionApproximator::from_samples(std::move(samples)));
  alpha_ = resolved_alpha(options, g, *approximator_, rng);
  // Maximum-weight spanning tree for the Lemma 9.1 rerouting, built with
  // the distributed Borůvka scheme; its rounds are part of the setup.
  double mst_rounds = 0.0;
  mwst_ = boruvka_max_weight_tree(g, 0, &mst_rounds);
  build_rounds_ += mst_rounds;
  // Queries charge O(D) scalar rounds via this height; it never changes
  // after the snapshot freezes, so pay the BFS once here instead of per
  // route() call.
  bfs_height_ = build_bfs_tree(*csr_, 0).height;
}

HierarchyDirtySet hierarchy_dirty_set(const ShermanHierarchy& prev,
                                      const Graph& next) {
  HierarchyDirtySet out;
  const Graph& old_g = prev.graph();
  const auto trees = prev.tree_records().size();
  out.dirty.assign(trees, 0);
  if (next.num_nodes() != old_g.num_nodes() ||
      next.num_edges() != old_g.num_edges()) {
    out.topology_changed = true;
    return out;
  }
  const double octaves = prev.capacity_bucket_octaves();
  for (EdgeId e = 0; e < next.num_edges(); ++e) {
    const EdgeEndpoints a = old_g.endpoints(e);
    const EdgeEndpoints b = next.endpoints(e);
    if (a.u != b.u || a.v != b.v) {  // never under MutationBatch, but cheap
      out.topology_changed = true;
      return out;
    }
    const double old_cap = old_g.capacity(e);
    const double new_cap = next.capacity(e);
    if (old_cap == new_cap) continue;
    ++out.num_changed_edges;
    for (std::size_t t = 0; t < trees; ++t) {
      if (out.dirty[t]) continue;
      // Without quantization any capacity change is structural; with it,
      // only a bucket-boundary crossing is.
      if (octaves <= 0.0 ||
          structural_bucket(old_cap, octaves, prev.tree_records()[t].dither) !=
              structural_bucket(new_cap, octaves,
                                prev.tree_records()[t].dither)) {
        out.dirty[t] = 1;
      }
    }
  }
  for (const char d : out.dirty) out.num_dirty += d;
  return out;
}

std::shared_ptr<const ShermanHierarchy> ShermanHierarchy::from_parts(
    std::shared_ptr<const Graph> graph, std::shared_ptr<const CsrGraph> csr,
    GraphVersion graph_version, Parts parts) {
  std::shared_ptr<ShermanHierarchy> out(new ShermanHierarchy());
  out->csr_ = attach_csr(std::move(graph), std::move(csr));
  const NodeId n = out->csr_->num_nodes();
  DMF_REQUIRE(parts.approximator != nullptr,
              "ShermanHierarchy::from_parts: null approximator");
  DMF_REQUIRE(parts.approximator->num_nodes() == n,
              "ShermanHierarchy::from_parts: approximator size mismatch");
  DMF_REQUIRE(static_cast<std::size_t>(parts.approximator->num_trees()) ==
                  parts.tree_records.size(),
              "ShermanHierarchy::from_parts: tree record count mismatch");
  DMF_REQUIRE(parts.mwst.num_nodes() == n,
              "ShermanHierarchy::from_parts: mwst size mismatch");
  out->graph_version_ = graph_version;
  out->approximator_ = std::move(parts.approximator);
  out->mwst_ = std::move(parts.mwst);
  out->tree_records_ = std::move(parts.tree_records);
  out->bucket_octaves_ = parts.bucket_octaves;
  out->alpha_ = parts.alpha;
  out->build_rounds_ = parts.build_rounds;
  out->bfs_height_ = build_bfs_tree(*out->csr_, 0).height;
  return out;
}

ShermanSolver::ShermanSolver(const Graph& g, const ShermanOptions& options,
                             Rng& rng)
    : hierarchy_(std::make_shared<const ShermanHierarchy>(g, options, rng)),
      options_(options) {}

ShermanSolver::ShermanSolver(std::shared_ptr<const ShermanHierarchy> hierarchy,
                             const ShermanOptions& options)
    : hierarchy_(std::move(hierarchy)), options_(options) {
  DMF_REQUIRE(hierarchy_ != nullptr, "ShermanSolver: null hierarchy");
}

RouteResult ShermanSolver::route(const std::vector<double>& demand) const {
  const CsrGraph& g = hierarchy_->csr();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  DMF_REQUIRE(demand.size() == n, "route: demand size mismatch");
  DMF_REQUIRE(demand_is_balanced(demand), "route: demand must sum to zero");
  double scale_hint = 0.0;
  for (const double d : demand) scale_hint = std::max(scale_hint, std::abs(d));

  const int max_calls =
      options_.max_almost_route_calls > 0
          ? options_.max_almost_route_calls
          : static_cast<int>(std::ceil(std::log2(
                static_cast<double>(std::max<std::size_t>(2, m))))) +
                2;

  RouteResult result;
  result.flow.assign(m, 0.0);
  std::vector<double> residual = demand;
  std::vector<double> div;

  AlmostRouteOptions ar = options_.almost_route;
  ar.alpha = hierarchy_->alpha();
  const double stop_threshold =
      options_.route_residual_tolerance * scale_hint;
  for (int call = 0; call < max_calls; ++call) {
    double residual_mass = 0.0;
    for (const double r : residual) residual_mass += std::abs(r);
    if (residual_mass <= stop_threshold) break;
    const AlmostRouteResult step =
        almost_route(g, hierarchy_->approximator(), residual, ar);
    ++result.almost_route_calls;
    result.gradient_iterations += step.iterations;
    result.rounds += step.rounds;
    result.converged = result.converged && step.converged;
    for (std::size_t e = 0; e < m; ++e) {
      result.flow[e] += step.flow[e];
    }
    flow_divergence_into(g, result.flow, div);
    for (std::size_t v = 0; v < n; ++v) {
      residual[v] = demand[v] - div[v];
    }
  }
  // Lemma 9.1: reroute the leftover exactly through the max-weight
  // spanning tree; afterwards the flow routes `demand` exactly.
  const std::vector<double> tree_flow =
      route_demand_on_spanning_tree(g, hierarchy_->mwst(), residual);
  for (std::size_t e = 0; e < m; ++e) result.flow[e] += tree_flow[e];
  const congest::CostModel cost{.n = static_cast<int>(n),
                                .diameter = hierarchy_->bfs_height()};
  result.rounds += cost.pipelined(cost.sqrt_n());  // Lemma 9.1 accounting
  result.congestion = max_congestion(g, result.flow);
  return result;
}

MaxFlowApproxResult ShermanSolver::max_flow(NodeId s, NodeId t) const {
  const CsrGraph& g = hierarchy_->csr();
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "max_flow: bad terminals");
  MaxFlowApproxResult out;
  out.alpha = hierarchy_->alpha();
  out.num_trees = hierarchy_->approximator().num_trees();
  out.rounds = hierarchy_->build_rounds();

  // Route a unit s-t demand with near-optimal congestion; homogeneity
  // turns the congestion into a max-flow value.
  const std::vector<double> b = st_demand(g.num_nodes(), s, t, 1.0);
  RouteResult routed = route(b);
  out.gradient_iterations = routed.gradient_iterations;
  out.rounds += routed.rounds;
  out.converged = routed.converged;
  DMF_REQUIRE(routed.congestion > 0.0, "max_flow: zero-congestion route");

  out.flow = std::move(routed.flow);
  const double lambda = 1.0 / routed.congestion;
  for (double& f : out.flow) f *= lambda;
  out.value = lambda;  // the flow routes lambda units s -> t, feasibly
  return out;
}

ShermanSolver::ApproxMinCut ShermanSolver::approx_min_cut(NodeId s,
                                                          NodeId t) const {
  const CsrGraph& g = hierarchy_->csr();
  DMF_REQUIRE(g.is_valid_node(s) && g.is_valid_node(t) && s != t,
              "approx_min_cut: bad terminals");
  const std::vector<double> b = st_demand(g.num_nodes(), s, t, 1.0);
  // Find the tree link with the highest congestion under b; its subtree
  // is the cut.
  int best_tree = -1;
  NodeId best_link = kInvalidNode;
  double best_congestion = -1.0;
  const CongestionApproximator& approx = hierarchy_->approximator();
  std::vector<double> y;
  std::vector<double> sums;
  approx.apply_into(b, 1.0, y, sums);
  const auto nn = static_cast<std::size_t>(g.num_nodes());
  for (int tr = 0; tr < approx.num_trees(); ++tr) {
    const RootedTree& tree = approx.tree(tr);
    const double* y_tree = y.data() + static_cast<std::size_t>(tr) * nn;
    for (NodeId v = 0; v < tree.num_nodes(); ++v) {
      if (v == tree.root) continue;
      const double c = std::abs(y_tree[static_cast<std::size_t>(v)]);
      if (c > best_congestion) {
        best_congestion = c;
        best_tree = tr;
        best_link = v;
      }
    }
  }
  DMF_REQUIRE(best_tree >= 0, "approx_min_cut: no cut found");
  // Mark subtree(best_link) of the winning tree.
  const RootedTree& tree = approx.tree(best_tree);
  const auto children = tree_children(tree);
  std::vector<char> inside(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<NodeId> stack = {best_link};
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    inside[static_cast<std::size_t>(x)] = 1;
    for (const NodeId c : children[static_cast<std::size_t>(x)]) {
      stack.push_back(c);
    }
  }
  ApproxMinCut cut;
  // Orient so that the source side is marked.
  const bool s_inside = inside[static_cast<std::size_t>(s)] != 0;
  cut.source_side.assign(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const bool in = inside[static_cast<std::size_t>(v)] != 0;
    cut.source_side[static_cast<std::size_t>(v)] = (in == s_inside) ? 1 : 0;
  }
  const EdgeEndpoints* eps = g.endpoints_data();
  const double* cap = g.capacities_data();
  const auto m = static_cast<std::size_t>(g.num_edges());
  for (std::size_t e = 0; e < m; ++e) {
    if (cut.source_side[static_cast<std::size_t>(eps[e].u)] !=
        cut.source_side[static_cast<std::size_t>(eps[e].v)]) {
      cut.capacity += cap[e];
    }
  }
  return cut;
}

MaxFlowApproxResult approx_max_flow(const Graph& g, NodeId s, NodeId t,
                                    double epsilon, Rng& rng) {
  ShermanOptions options;
  options.epsilon = epsilon;
  options.almost_route.epsilon = std::min(0.5, epsilon);
  const ShermanSolver solver(g, options, rng);
  return solver.max_flow(s, t);
}

}  // namespace dmf
