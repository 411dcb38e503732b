#include "maxflow/almost_route.h"

#include <algorithm>
#include <cmath>

#include "graph/flow.h"

namespace dmf {

namespace {

// The adaptive step's constants (see the header): the growth of mu after
// each accepted step, and its cap. Over e7's graph families the total
// iteration count is flat in them (growth 1.1-1.5 and cap 8-64 all land
// within 15% of each other, 4.8-5.6x below the fixed step); these also
// keep route_mix's grid calls under a third of the fixed step's count.
constexpr double kStepGrowth = 1.2;
constexpr double kStepCap = 64.0;

// The unweighted soft-max's weights: w * t folds to t for w = 1.0, so
// it sums exactly what an unweighted loop would.
struct UnitWeights {
  double operator[](std::size_t /*i*/) const { return 1.0; }
};

template <class Weights>
detail::SoftMax softmax_in_place(double* x, const Weights& weight,
                                 std::size_t k) {
  // Four running maxima, so consecutive compares do not wait on each
  // other; a max is exact, so the split does not change the result.
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      lane[j] = std::max(lane[j], std::abs(x[i + j]));
    }
  }
  for (; i < k; ++i) lane[0] = std::max(lane[0], std::abs(x[i]));
  const double max =
      std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  double sum = 0.0;
  for (i = 0; i < k; ++i) {
    const double plus = std::exp(x[i] - max);
    const double minus = std::exp(-x[i] - max);
    sum += static_cast<double>(weight[i]) * (plus + minus);
    x[i] = plus - minus;
  }
  // The max element contributes w e^0 >= 1, so sum >= 1 when k > 0.
  return {max + std::log(sum), 1.0 / sum};
}

}  // namespace

namespace detail {

SoftMax symmetric_softmax_in_place(double* x, std::size_t k) {
  return softmax_in_place(x, UnitWeights{}, k);
}

SoftMax symmetric_softmax_in_place(double* x, const std::int32_t* weight,
                                   std::size_t k) {
  return softmax_in_place(x, weight, k);
}

}  // namespace detail

AlmostRouteResult almost_route(const CsrGraph& g,
                               const CongestionApproximator& approximator,
                               const std::vector<double>& demand,
                               const AlmostRouteOptions& options) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  const double* cap = g.capacities_data();
  const EdgeEndpoints* eps_arr = g.endpoints_data();
  DMF_REQUIRE(demand.size() == n, "almost_route: demand size mismatch");
  DMF_REQUIRE(options.epsilon > 0.0 && options.epsilon <= 1.0,
              "almost_route: epsilon in (0, 1] required");
  DMF_REQUIRE(std::isfinite(options.alpha),
              "almost_route: alpha must be finite");
  const double alpha = std::max(1.0, options.alpha);
  const double eps = options.epsilon;
  const double log_n =
      std::log(static_cast<double>(std::max<std::size_t>(2, n)));
  const double target_potential = 16.0 * log_n / eps;

  AlmostRouteResult result;
  result.flow.assign(m, 0.0);

  // --- Line 1: scale b so that 2 alpha ||Rb|| ~ target_potential. ---
  std::vector<double> b = demand;
  const double norm0 = approximator.congestion_norm(b);
  if (norm0 <= 0.0) {
    result.converged = true;
    return result;  // nothing to route
  }
  const double kb = target_potential / (2.0 * alpha * norm0);
  for (double& x : b) x *= kb;
  double kf = 1.0;

  const int diameter_rounds = 8;  // O(D) scalar aggregations per iteration
  const double rounds_per_application =
      approximator.rounds_per_application(diameter_rounds);
  const double rounds_per_iter = 2.0 * rounds_per_application + diameter_rounds;
  // A rejected step evaluates phi (one R application and the scalar
  // aggregations) but takes no gradient (no R^T application).
  const double rounds_per_rejection = rounds_per_application + diameter_rounds;

  const auto num_trees = static_cast<std::size_t>(approximator.num_trees());
  const CongestionApproximator::CutGroups& cuts = approximator.cut_groups();
  const std::size_t num_cuts = cuts.num_cuts();
  std::vector<double> gradient(m, 0.0);
  std::vector<double> residual(n, 0.0);
  // The flow before the last step; a rejected step swaps it back.
  std::vector<double> previous_flow(m, 0.0);
  // Per-iteration buffers, allocated once: the flattened [t*n + v]
  // R-application and link prices, the divergence/potential vectors, and
  // the tree-pass workspace (see apply_into/potentials_into).
  std::vector<double> div;
  std::vector<double> y_flat;
  std::vector<double> price_flat;
  std::vector<double> pi;
  std::vector<double> tree_workspace;
  // Soft-max differences e^{x-M} - e^{-x-M} (see symmetric_softmax_in_place)
  // for the edges and for the distinct tree cuts, and each cut's price.
  std::vector<double> edge_diff(m);
  std::vector<double> cut_diff(num_cuts);
  std::vector<double> cut_price(num_cuts);

  // The step multiplier (see the header): mu scales Sherman's step.
  double mu = 1.0;
  bool stepped = false;           // a step was taken since the last phi
  double potential_before = 0.0;  // phi where that step started
  double delta = 0.0;             // sum_e |c_e dphi/df_e| at that phi

  // Step from the current flow along -sign(gradient) by mu times
  // Sherman's step; the flow it starts from stays in previous_flow.
  const auto take_step = [&] {
    const double step = mu * delta / (1.0 + 4.0 * alpha * alpha);
    for (std::size_t e = 0; e < m; ++e) {
      const double sign = gradient[e] > 0.0 ? 1.0 : -1.0;
      previous_flow[e] = result.flow[e] - sign * cap[e] * step;
    }
    result.flow.swap(previous_flow);
    potential_before = result.potential;
    stepped = true;
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;

    // Residual demand r = b - div(f).
    flow_divergence_into(g, result.flow, div);
    for (std::size_t v = 0; v < n; ++v) residual[v] = b[v] - div[v];

    // phi_1 = smax(C^-1 f) over the per-edge congestion f_e / cap_e.
    for (std::size_t e = 0; e < m; ++e) {
      edge_diff[e] = result.flow[e] / cap[e];
    }
    const detail::SoftMax sm1 =
        detail::symmetric_softmax_in_place(edge_diff.data(), m);

    // phi_2 = smax(2 alpha R r): one term per distinct cut, read at its
    // representative slot and weighted by the slots inducing it.
    approximator.apply_into(residual, 2.0 * alpha, y_flat, tree_workspace);
    for (std::size_t c = 0; c < num_cuts; ++c) {
      cut_diff[c] = y_flat[cuts.rep_slot[c]];
    }
    const detail::SoftMax sm2 = detail::symmetric_softmax_in_place(
        cut_diff.data(), cuts.multiplicity.data(), num_cuts);
    const double potential = sm1.phi + sm2.phi;

    // --- The adaptive step: judge the step just taken. ---
    if (stepped) {
      stepped = false;
      if (mu > 1.0 && potential > potential_before) {
        // Reject: back to the flow, phi and gradient before the step,
        // and retry it at half the multiplier.
        ++result.rejected_steps;
        result.rounds += rounds_per_rejection;
        result.flow.swap(previous_flow);
        mu = std::max(1.0, mu / 2.0);
        take_step();
        continue;
      }
      mu = std::min(kStepCap, kStepGrowth * mu);
    }
    result.rounds += rounds_per_iter;
    result.potential = potential;

    // --- Lines 4-5: rescale until phi >= 16 eps^-1 log n. ---
    if (result.potential < target_potential) {
      const double factor = 17.0 / 16.0;
      for (double& f : result.flow) f *= factor;
      for (double& x : b) x *= factor;
      kf *= factor;
      continue;  // re-evaluate phi at the new scale
    }

    // --- Gradient. ---
    // phi_1 part: (e^{y_e - phi1} - e^{-y_e - phi1}) / cap(e), which is
    // the stored difference times 1/sum1 (see the header notes).
    for (std::size_t e = 0; e < m; ++e) {
      gradient[e] = edge_diff[e] * sm1.inv_sum / cap[e];
    }
    // phi_2 part via potentials: price of link (v -> parent) in tree t is
    // 2 alpha (e^{y-phi2} - e^{-y-phi2}) / cap_T(link), again the stored
    // difference times 1/sum2, computed once per cut and scattered to
    // its slots; then dphi2/df_e = pi_v - pi_u for e = (u, v).
    const double price_scale = 2.0 * alpha * sm2.inv_sum;
    for (std::size_t c = 0; c < num_cuts; ++c) {
      cut_price[c] = price_scale * cut_diff[c] / cuts.cap[c];
    }
    price_flat.resize(num_trees * n);
    for (std::size_t slot = 0; slot < num_trees * n; ++slot) {
      const std::int32_t c = cuts.slot_cut[slot];
      price_flat[slot] = c < 0 ? 0.0 : cut_price[static_cast<std::size_t>(c)];
    }
    approximator.potentials_into(price_flat, pi, tree_workspace);
    for (std::size_t e = 0; e < m; ++e) {
      // r = b - Bf loses flow that leaves u and gains at v; the sign
      // works out to pi_u - pi_v for flow oriented u -> v:
      // pushing on e reduces residual demand at u and raises it at v.
      gradient[e] += pi[static_cast<std::size_t>(eps_arr[e].v)] -
                     pi[static_cast<std::size_t>(eps_arr[e].u)];
    }

    // --- Lines 6-11: step or terminate. ---
    delta = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      delta += cap[e] * std::abs(gradient[e]);
    }
    result.final_delta = delta;
    if (delta >= eps / 4.0) {
      take_step();
    } else {
      result.converged = true;
      break;
    }
  }

  // Undo the scaling: return a flow for the *original* b.
  const double unscale = 1.0 / (kb * kf);
  for (double& f : result.flow) f *= unscale;
  return result;
}

}  // namespace dmf
