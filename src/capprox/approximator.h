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
//
// Distinct cuts. Many tree slots induce the same cut: only 29-48% of the
// slots on the benchmark's graphs are distinct node sets, and a leaf
// slot is always the singleton {v}. cut_groups() maps every non-root slot
// [t*n + v] to a cut id, with a representative (the first slot in
// [t*n + v] order) and an integer multiplicity per cut, so AlmostRoute
// pays one soft-max term per distinct cut. Two slots share a cut only
// when their subtrees are the same node set (so the same orientation)
// and their link capacities agree to rounding; the recapacitated trees
// give one cut one capacity in real arithmetic, so the grouped soft-max
// equals the per-slot one for every demand, balanced or not.
//  * Leaves need no hashing: their cut is {v}.
//  * Any other slot finds its candidates by a Zobrist hash (a sum of
//    per-node random words) plus the subtree size, and each candidate is
//    confirmed exactly: the subtree of v in tree t equals that of w in
//    tree t' iff the sizes agree and the preorder positions in t' of
//    v's subtree span exactly w's interval. A hash collision therefore
//    never merges two cuts.
//  * The grouping is computed on first use (std::call_once), not in the
//    constructor: at n = 16384 with 42 trees it takes ~0.2 s and ~23 MB
//    of transient memory, which a hierarchy that never runs AlmostRoute
//    (exact-only serving, mutation rebuilds, cold starts) must not pay.
//    It is a pure function of the trees, so every constructor (build,
//    from_parts, from_samples, super-terminal hierarchies) gets the same
//    grouping, and nothing is persisted.
//  * The CONGEST accounting stays per tree: grouping is a local
//    arithmetic saving, the sweeps still run on every tree.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "capprox/hierarchy.h"
#include "graph/graph.h"
#include "graph/tree.h"

namespace dmf {

class CongestionApproximator {
 public:
  // The distinct cuts among the non-root slots (see the file comment).
  // Cut ids follow the order of first appearance in [t*n + v].
  struct CutGroups {
    std::vector<std::int32_t> slot_cut;  // [t*n + v] -> cut id; -1 at roots
    std::vector<std::size_t> rep_slot;   // cut -> its first slot t*n + v
    std::vector<std::int32_t> multiplicity;  // cut -> slots inducing it
    std::vector<double> cap;  // cut -> link capacity of its representative
    [[nodiscard]] std::size_t num_cuts() const { return rep_slot.size(); }
  };

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

  // The slots grouped by cut; computed once, on the first call from any
  // thread, and safe to call concurrently.
  [[nodiscard]] const CutGroups& cut_groups() const;

 private:
  struct LazyGroups {
    std::once_flag once;
    CutGroups groups;
  };

  [[nodiscard]] CutGroups group_cuts() const;

  NodeId n_ = 0;
  std::vector<RootedTree> trees_;
  std::vector<TreeOrder> orders_;
  std::vector<std::vector<double>> inv_cap_;
  // Behind a pointer so the approximator stays movable (callers move it
  // into owning pointers); std::once_flag is neither movable nor
  // copyable.
  std::unique_ptr<LazyGroups> lazy_ = std::make_unique<LazyGroups>();
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
