#include "capprox/approximator.h"

#include <algorithm>
#include <cmath>

#include "baselines/dinic.h"
#include "graph/flow.h"

namespace dmf {

CongestionApproximator::CongestionApproximator(std::vector<RootedTree> trees)
    : trees_(std::move(trees)) {
  DMF_REQUIRE(!trees_.empty(), "CongestionApproximator: need >= 1 tree");
  n_ = trees_.front().num_nodes();
  orders_.reserve(trees_.size());
  inv_cap_.reserve(trees_.size());
  for (const RootedTree& tree : trees_) {
    DMF_REQUIRE(tree.num_nodes() == n_,
                "CongestionApproximator: tree size mismatch");
    orders_.push_back(tree_order(tree));
    std::vector<double> inv(static_cast<std::size_t>(n_), 0.0);
    for (NodeId v = 0; v < n_; ++v) {
      if (v == tree.root) continue;
      const double cap = tree.parent_cap[static_cast<std::size_t>(v)];
      DMF_REQUIRE(cap > 0.0,
                  "CongestionApproximator: non-positive link capacity");
      inv[static_cast<std::size_t>(v)] = 1.0 / cap;
    }
    inv_cap_.push_back(std::move(inv));
  }
}

CongestionApproximator CongestionApproximator::from_samples(
    std::vector<VirtualTreeSample> samples) {
  std::vector<RootedTree> trees;
  trees.reserve(samples.size());
  for (VirtualTreeSample& sample : samples) {
    trees.push_back(std::move(sample.tree));
  }
  return CongestionApproximator(std::move(trees));
}

double CongestionApproximator::congestion_norm(
    const std::vector<double>& b) const {
  DMF_REQUIRE(b.size() == static_cast<std::size_t>(n_),
              "congestion_norm: demand size mismatch");
  double worst = 0.0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    // Subtree sums of b, bottom-up over the precomputed order.
    std::vector<double> sums = b;
    const auto& order = orders_[t].topdown;
    const RootedTree& tree = trees_[t];
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId v = *it;
      const NodeId p = tree.parent[static_cast<std::size_t>(v)];
      if (p != kInvalidNode) {
        sums[static_cast<std::size_t>(p)] += sums[static_cast<std::size_t>(v)];
        worst = std::max(worst, std::abs(sums[static_cast<std::size_t>(v)]) *
                                    inv_cap_[t][static_cast<std::size_t>(v)]);
      }
    }
  }
  return worst;
}

void CongestionApproximator::apply_into(
    const std::vector<double>& b, double scale, std::vector<double>& y_flat,
    std::vector<double>& sums_workspace) const {
  DMF_REQUIRE(b.size() == static_cast<std::size_t>(n_),
              "apply_into: demand size mismatch");
  const auto nn = static_cast<std::size_t>(n_);
  // No bulk zeroing: the tree pass writes every non-root entry and the
  // root entry is pinned to 0 explicitly, so a resize (first call only)
  // suffices. Safe because every tree is spanning — the constructor ran
  // tree_order() on each, which DMF_REQUIREs exactly one parentless
  // node (the root) and a top-down order covering all n nodes.
  y_flat.resize(trees_.size() * nn);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    sums_workspace = b;
    double* sums = sums_workspace.data();
    double* y = y_flat.data() + t * nn;
    const double* inv = inv_cap_[t].data();
    const auto& order = orders_[t].topdown;
    const NodeId* parent = trees_[t].parent.data();
    y[static_cast<std::size_t>(trees_[t].root)] = 0.0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto v = static_cast<std::size_t>(*it);
      const NodeId p = parent[v];
      if (p != kInvalidNode) {
        sums[static_cast<std::size_t>(p)] += sums[v];
        y[v] = scale * sums[v] * inv[v];
      }
    }
  }
}

void CongestionApproximator::potentials_into(
    const std::vector<double>& price_flat, std::vector<double>& pi,
    std::vector<double>& acc_workspace) const {
  const auto nn = static_cast<std::size_t>(n_);
  DMF_REQUIRE(price_flat.size() == trees_.size() * nn,
              "potentials_into: price size mismatch");
  pi.assign(nn, 0.0);
  acc_workspace.resize(nn);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    double* acc = acc_workspace.data();
    const double* price = price_flat.data() + t * nn;
    const NodeId* parent = trees_[t].parent.data();
    // The top-down order writes every node exactly once (parents before
    // children); only the root needs pinning, so no bulk zeroing.
    acc[static_cast<std::size_t>(trees_[t].root)] = 0.0;
    for (const NodeId v : orders_[t].topdown) {
      const auto vi = static_cast<std::size_t>(v);
      const NodeId p = parent[vi];
      if (p != kInvalidNode) {
        acc[vi] = acc[static_cast<std::size_t>(p)] + price[vi];
      }
    }
    for (std::size_t v = 0; v < nn; ++v) pi[v] += acc[v];
  }
}

double CongestionApproximator::rounds_per_application(int diameter) const {
  const double sqrt_n = std::sqrt(static_cast<double>(n_));
  const double log_n = std::log2(static_cast<double>(std::max<NodeId>(2, n_)));
  return static_cast<double>(trees_.size()) *
         (static_cast<double>(diameter) + 2.0 * sqrt_n * log_n);
}

AlphaEstimate estimate_alpha(const Graph& g,
                             const CongestionApproximator& approximator,
                             int samples, Rng& rng) {
  DMF_REQUIRE(g.num_nodes() == approximator.num_nodes(),
              "estimate_alpha: size mismatch");
  DMF_REQUIRE(g.num_nodes() >= 2, "estimate_alpha: need >= 2 nodes");
  AlphaEstimate est;
  const CsrGraph csr(g);  // one pack shared by all Dinic probes
  for (int i = 0; i < samples; ++i) {
    const auto s = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    auto t = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    if (t == s) t = (t + 1) % g.num_nodes();
    const double maxflow = dinic_max_flow_value(csr, s, t);
    if (maxflow <= 0.0) continue;
    const double opt = 1.0 / maxflow;  // optimal congestion of unit demand
    const double norm =
        approximator.congestion_norm(st_demand(g.num_nodes(), s, t, 1.0));
    if (norm <= 0.0) continue;
    est.alpha = std::max(est.alpha, opt / norm);
    est.lower_violation = std::max(est.lower_violation, norm / opt - 1.0);
    ++est.samples;
  }
  return est;
}

}  // namespace dmf
