// The congestion approximator R (Lemma 3.3, §9.2).
//
// R's rows are the cuts induced by the edges of O(log n) sampled virtual
// trees. The two operations the gradient descent needs (§9.1):
//
//   * apply:      y = scale * R b — for each tree, route b on the tree
//                 (subtree sums) and divide by the link capacities;
//                 O(n) per tree via one bottom-up pass.
//   * potentials: pi = R^T p — given a price per tree link, each node's
//                 potential is the sum of prices along its root path;
//                 O(n) per tree via one top-down pass.
//
// In CONGEST both are convergecast/downcast pipelines over the cluster
// hierarchy, Õ(sqrt(n) + D) rounds per tree (Corollary 9.3); rounds()
// reports that accounting.
#pragma once

#include <vector>

#include "capprox/hierarchy.h"
#include "graph/graph.h"
#include "graph/tree.h"

namespace dmf {

class CongestionApproximator {
 public:
  // Trees must span the same node set; parent_cap holds positive virtual
  // capacities.
  explicit CongestionApproximator(std::vector<RootedTree> trees);

  [[nodiscard]] static CongestionApproximator from_samples(
      std::vector<VirtualTreeSample> samples);

  [[nodiscard]] int num_trees() const {
    return static_cast<int>(trees_.size());
  }
  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] const RootedTree& tree(int t) const {
    return trees_[static_cast<std::size_t>(t)];
  }

  // ||R b||_inf: the most congested tree cut when routing b.
  [[nodiscard]] double congestion_norm(const std::vector<double>& b) const;

  // The two gradient-descent sweeps, flattened over the trees into one
  // num_trees*n array indexed [t*n + v]; every output/workspace buffer is
  // caller-owned, so an iteration reuses its allocations.
  //
  // apply_into:      y_flat[t*n + v] = scale * (subtree sum of b at v) /
  //                  cap(v -> parent) in tree t; entries at roots are 0.
  // potentials_into: pi[v] = sum over trees t of the sum of
  //                  price_flat[t*n + w] over links (w -> parent) on v's
  //                  root path.
  void apply_into(const std::vector<double>& b, double scale,
                  std::vector<double>& y_flat,
                  std::vector<double>& sums_workspace) const;
  void potentials_into(const std::vector<double>& price_flat,
                       std::vector<double>& pi,
                       std::vector<double>& acc_workspace) const;

  // CONGEST rounds for one apply or potentials call: one Õ(sqrt n + D)
  // convergecast/downcast per tree (Corollary 9.3).
  [[nodiscard]] double rounds_per_application(int diameter) const;

 private:
  NodeId n_ = 0;
  std::vector<RootedTree> trees_;
  std::vector<TreeOrder> orders_;
  std::vector<std::vector<double>> inv_cap_;
};

// Empirical alpha of the approximator on s-t demands: for unit demand
// b = e_s - e_t, opt(b) = 1 / maxflow(s, t) exactly; the approximation
// guarantee is ||Rb||inf <= opt(b) <= alpha * ||Rb||inf.
struct AlphaEstimate {
  double alpha = 1.0;          // max over samples of opt / ||Rb||
  double lower_violation = 0;  // max over samples of (||Rb|| / opt - 1)+
  int samples = 0;
};

AlphaEstimate estimate_alpha(const Graph& g,
                             const CongestionApproximator& approximator,
                             int samples, Rng& rng);

}  // namespace dmf
