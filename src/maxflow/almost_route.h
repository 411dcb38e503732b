// AlmostRoute — Sherman's gradient descent on the soft-max potential
// (§9.1, Algorithm 2).
//
// Given a demand vector b, minimize
//
//   phi(f) = smax(C^-1 f) + smax(2 alpha R (b - B f))
//
// where smax(y) = log sum_i (e^{y_i} + e^{-y_i}) is the symmetric
// soft-max, C the capacity diagonal, B the incidence operator
// (divergence), and R the congestion approximator. The first term
// penalizes congestion, the second (scaled by 2 alpha) penalizes
// unrouted demand strongly enough that fixing conservation always pays.
//
// Implementation notes:
//  * all soft-max evaluations use max-shifted log-sum-exp, so potentials
//    in the hundreds (the 16 eps^-1 log n operating point) are stable;
//  * two exp per soft-max element: with M = max_i |x_i| and
//    sum = sum_i (e^{x_i-M} + e^{-x_i-M}), phi = M + log(sum), so
//    e^{+-x_i-phi} = e^{+-x_i-M} / sum. The sum pass keeps the difference
//    d_i = e^{x_i-M} - e^{-x_i-M}, and the gradient and the link prices
//    are d_i * (1/sum) instead of two more exp each. 1/sum is safe: the
//    element with |x_i| = M contributes e^0 = 1, so sum >= 1;
//  * phi_2 has one term per distinct tree cut, not per tree slot:
//    phi_2 = log sum_c w_c (e^{y_c} + e^{-y_c}), where w_c counts the
//    slots inducing cut c (CongestionApproximator::cut_groups). It equals
//    the per-slot soft-max in real arithmetic and pays two exp per cut;
//    y_c is read at the cut's representative slot after the R
//    application, and the cut's link price 2 alpha inv_sum d_c / cap_c
//    is computed once and scattered to its slots before the R^T
//    application;
//  * dphi2/df_e = pi_v - pi_u (Eq. 4): one R application (subtree sums)
//    and one R^T application (root-path prefix sums) per iteration;
//  * the 17/16 rescaling loop keeps phi in [16 eps^-1 log n, ~17/16 of
//    it], exactly as in Algorithm 2;
//  * termination when delta = sum_e |c_e dphi/df_e| < eps/4; Sherman
//    proves O(alpha^2 eps^-3 log n) iterations.
//
// The step. Sherman's step delta / (1 + 4 alpha^2) comes from a
// worst-case smoothness bound; on real instances a longer one lowers phi
// further. Each step is mu * delta / (1 + 4 alpha^2), with mu adapted
// from values the loop computes anyway (so results stay deterministic):
//  * mu starts at 1 in each call and is carried across the 17/16
//    rescales;
//  * after an accepted step, mu <- min(64, 1.2 mu);
//  * a step taken at mu > 1 that raises phi at the next evaluation is
//    rejected: the flow before it is restored, mu <- max(1, mu / 2), and
//    the step is retried from there with the gradient already computed.
// So phi never rises from one accepted step to the next: the descent
// stays monotone, as in Sherman's analysis. A step at mu = 1 is
// Sherman's own, which his lemma shows lowers phi, so it is never
// rejected; mu halves on each rejection, so at most log2(64) = 6
// rejections separate two accepted steps and the loop cannot cycle.
// An accepted longer step may lower phi less than Sherman's would, so
// his iteration bound is not a proof for this rule: over 480 calls on
// e7's graph families the rule took 5.1x fewer iterations in total,
// yet two calls took more than the fixed step, the worst 1.46x. A
// rejected step counts as an iteration and in `rejected_steps`; it
// costs one R application and the scalar aggregations, no R^T
// application.
//
// The returned flow approximately routes b: callers (Algorithm 1) clean
// up the small residual via further calls and a spanning-tree rerouting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "capprox/approximator.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

struct AlmostRouteOptions {
  double epsilon = 0.5;
  // Approximation quality of R used for the 2*alpha scaling and the
  // step size. Values below 1 clamp to 1 (estimating alpha from the
  // approximator is the caller's job); a non-finite value is rejected.
  double alpha = 2.0;
  int max_iterations = 50000;
};

struct AlmostRouteResult {
  std::vector<double> flow;  // signed flow per edge
  // Evaluations of phi: accepted steps, rejected steps, rescales and the
  // final converged evaluation.
  int iterations = 0;
  // Steps taken at mu > 1 that raised phi and were undone.
  int rejected_steps = 0;
  double final_delta = 0.0;
  double potential = 0.0;
  bool converged = false;
  // CONGEST rounds: per iteration, one R and one R^T application
  // (Corollary 9.3) plus O(D) for the scalar aggregations; a rejected
  // step pays the R application and the O(D) only.
  double rounds = 0.0;
};

// The core implementation runs on the flat CSR snapshot view — the
// gradient sweeps index the packed capacity/endpoint arrays directly.
AlmostRouteResult almost_route(const CsrGraph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options);

namespace detail {

// The symmetric soft-max smax(x) = log sum_i (e^{x_i} + e^{-x_i}) over
// x[0..k), max-shifted, with two exp per element. Overwrites each x_i
// with d_i = e^{x_i-M} - e^{-x_i-M}; then
// e^{x_i-phi} - e^{-x_i-phi} = d_i * inv_sum. Exposed for tests.
struct SoftMax {
  double phi = 0.0;
  double inv_sum = 0.0;  // 1 / sum_i w_i (e^{x_i-M} + e^{-x_i-M}), <= 1
};
SoftMax symmetric_softmax_in_place(double* x, std::size_t k);
// The weighted form log sum_i w_i (e^{x_i} + e^{-x_i}) with integer
// weights w_i >= 1: equal in real arithmetic to the unweighted soft-max
// over x with each x_i repeated w_i times.
SoftMax symmetric_softmax_in_place(double* x, const std::int32_t* weight,
                                   std::size_t k);

}  // namespace detail

}  // namespace dmf
