#include "capprox/approximator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "baselines/dinic.h"
#include "graph/flow.h"
#include "util/rng.h"

namespace dmf {

namespace {

// Two slots with the same node set are one cut only if their link
// capacities agree to this relative tolerance. Recapacitated trees give
// one cut one capacity up to the rounding of the load sums; trees with
// other capacities keep distinct rows of R apart.
constexpr double kSameCapacity = 1e-9;

bool same_capacity(double a, double b) {
  return std::abs(a - b) <= kSameCapacity * std::max(a, b);
}

}  // namespace

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
  std::vector<double> sums(b.size());
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    // Subtree sums of b, bottom-up over the precomputed order.
    std::copy(b.begin(), b.end(), sums.begin());
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

const CongestionApproximator::CutGroups& CongestionApproximator::cut_groups()
    const {
  std::call_once(lazy_->once, [this] { lazy_->groups = group_cuts(); });
  return lazy_->groups;
}

CongestionApproximator::CutGroups CongestionApproximator::group_cuts() const {
  const auto nn = static_cast<std::size_t>(n_);
  const std::size_t num_trees = trees_.size();
  CutGroups out;
  out.slot_cut.assign(num_trees * nn, -1);
  // Zobrist words: a fixed random word per node; a subtree's hash is the
  // sum of its nodes' words.
  std::vector<std::uint64_t> word(nn);
  std::uint64_t state = 0x6375742d67726f75ULL;
  for (std::uint64_t& w : word) w = splitmix64(state);

  // pre[t*n + v]: v's preorder position in tree t, numbered so that
  // subtree(v) is exactly [pre, pre + size).
  std::vector<std::int32_t> pre(num_trees * nn);
  std::vector<std::int32_t> size(nn);
  std::vector<std::uint64_t> hash(nn);
  std::vector<std::int32_t> cursor(nn);
  // Per cut: its subtree size, and the next cut with the same hash key.
  std::vector<std::int32_t> cut_size;
  std::vector<std::int32_t> next_same_key;
  std::vector<std::int32_t> leaf_cut(nn, -1);  // the cut {v}, once seen
  std::unordered_map<std::uint64_t, std::int32_t> first_with_key;
  // lo/hi[t'][v]: min and max over the current tree's subtree(v) of the
  // preorder positions in tree t'; filled on demand, once per tree.
  std::vector<std::vector<std::int32_t>> lo(num_trees);
  std::vector<std::vector<std::int32_t>> hi(num_trees);
  std::vector<char> spans_ready(num_trees);

  const auto new_cut = [&](std::size_t slot, double cap, std::int32_t sz) {
    const auto c = static_cast<std::int32_t>(out.rep_slot.size());
    out.rep_slot.push_back(slot);
    out.multiplicity.push_back(0);
    out.cap.push_back(cap);
    cut_size.push_back(sz);
    next_same_key.push_back(-1);
    return c;
  };

  for (std::size_t t = 0; t < num_trees; ++t) {
    const RootedTree& tree = trees_[t];
    const std::vector<NodeId>& order = orders_[t].topdown;
    const NodeId* parent = tree.parent.data();
    std::fill(size.begin(), size.end(), 1);
    hash = word;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const auto v = static_cast<std::size_t>(*it);
      if (parent[v] == kInvalidNode) continue;
      const auto p = static_cast<std::size_t>(parent[v]);
      size[p] += size[v];
      hash[p] += hash[v];
    }
    std::int32_t* pre_t = pre.data() + t * nn;
    for (const NodeId node : order) {
      const auto v = static_cast<std::size_t>(node);
      if (parent[v] == kInvalidNode) {
        pre_t[v] = 0;
      } else {
        const auto p = static_cast<std::size_t>(parent[v]);
        pre_t[v] = cursor[p];
        cursor[p] += size[v];
      }
      cursor[v] = pre_t[v] + 1;
    }
    std::fill(spans_ready.begin(), spans_ready.end(), 0);

    // Whether subtree(v) in this tree is the node set of cut c.
    const auto same_set = [&](std::size_t v, std::int32_t c) {
      const std::size_t rep = out.rep_slot[static_cast<std::size_t>(c)];
      const std::size_t t2 = rep / nn;
      if (!spans_ready[t2]) {
        const std::int32_t* pre2 = pre.data() + t2 * nn;
        lo[t2].assign(pre2, pre2 + nn);
        hi[t2].assign(pre2, pre2 + nn);
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
          const auto x = static_cast<std::size_t>(*it);
          if (parent[x] == kInvalidNode) continue;
          const auto p = static_cast<std::size_t>(parent[x]);
          lo[t2][p] = std::min(lo[t2][p], lo[t2][x]);
          hi[t2][p] = std::max(hi[t2][p], hi[t2][x]);
        }
        spans_ready[t2] = 1;
      }
      // size(v) distinct positions inside an interval of that length
      // fill it, so matching ends mean equal sets.
      const std::int32_t first = pre[rep];
      return lo[t2][v] == first && hi[t2][v] == first + size[v] - 1;
    };

    for (std::size_t v = 0; v < nn; ++v) {
      if (parent[v] == kInvalidNode) continue;
      const std::size_t slot = t * nn + v;
      const double cap = tree.parent_cap[v];
      std::int32_t c = -1;
      if (size[v] == 1) {
        c = leaf_cut[v];
        if (c < 0 || !same_capacity(out.cap[static_cast<std::size_t>(c)],
                                    cap)) {
          c = new_cut(slot, cap, 1);
          leaf_cut[v] = c;
        }
      } else {
        const std::uint64_t key =
            hash[v] ^ (static_cast<std::uint64_t>(size[v]) *
                       0x9e3779b97f4a7c15ULL);
        const auto it = first_with_key.try_emplace(key, -1).first;
        std::int32_t last = -1;
        for (c = it->second; c >= 0;
             last = c, c = next_same_key[static_cast<std::size_t>(c)]) {
          const auto ci = static_cast<std::size_t>(c);
          if (cut_size[ci] == size[v] && same_capacity(out.cap[ci], cap) &&
              same_set(v, c)) {
            break;
          }
        }
        if (c < 0) {
          c = new_cut(slot, cap, size[v]);
          if (last < 0) {
            it->second = c;
          } else {
            next_same_key[static_cast<std::size_t>(last)] = c;
          }
        }
      }
      out.slot_cut[slot] = c;
      ++out.multiplicity[static_cast<std::size_t>(c)];
    }
  }
  return out;
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
