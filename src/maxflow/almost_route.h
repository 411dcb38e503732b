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
//  * dphi2/df_e = pi_v - pi_u (Eq. 4): one R application (subtree sums)
//    and one R^T application (root-path prefix sums) per iteration;
//  * the 17/16 rescaling loop keeps phi in [16 eps^-1 log n, ~17/16 of
//    it], exactly as in Algorithm 2;
//  * termination when delta = sum_e |c_e dphi/df_e| < eps/4; Sherman
//    proves O(alpha^2 eps^-3 log n) iterations.
//
// The returned flow approximately routes b: callers (Algorithm 1) clean
// up the small residual via further calls and a spanning-tree rerouting.
#pragma once

#include <vector>

#include "capprox/approximator.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace dmf {

struct AlmostRouteOptions {
  double epsilon = 0.5;
  // Approximation quality of R used for the 2*alpha scaling and the
  // step size; <= 0 means "estimate from the approximator" is the
  // caller's job and 2.0 is used.
  double alpha = 2.0;
  int max_iterations = 50000;
  // Heavy-ball momentum, the practical stand-in for the accelerated
  // method of the paper's footnote 3 (Nesterov: O(eps^-2 alpha log^2 n)
  // instead of O(eps^-3 alpha^2 log^2 n)). Momentum is reset whenever
  // the 17/16 rescaling fires. E7 measures the effect.
  bool accelerate = false;
};

struct AlmostRouteResult {
  std::vector<double> flow;  // signed flow per edge
  int iterations = 0;
  double final_delta = 0.0;
  double potential = 0.0;
  bool converged = false;
  // CONGEST rounds: per iteration, one R and one R^T application
  // (Corollary 9.3) plus O(D) for the scalar aggregations.
  double rounds = 0.0;
};

// The core implementation runs on the flat CSR snapshot view — the
// gradient sweeps index the packed capacity/endpoint arrays directly.
AlmostRouteResult almost_route(const CsrGraph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options);

// Convenience shim for callers holding only a Graph: packs a transient
// CSR view (O(n + m), dwarfed by the descent) and delegates.
AlmostRouteResult almost_route(const Graph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options);

}  // namespace dmf
