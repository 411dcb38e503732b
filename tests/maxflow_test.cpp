// End-to-end tests for AlmostRoute and the Sherman max-flow driver:
// conservation, feasibility, and the (1-eps) value guarantee against the
// exact Dinic baseline (Theorem 1.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "baselines/dinic.h"
#include "capprox/hierarchy.h"
#include "capprox/racke.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/almost_route.h"
#include "maxflow/hierarchy_io.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace dmf {
namespace {

CongestionApproximator racke_approximator(const Graph& g, int trees,
                                          Rng& rng) {
  RackeOptions options;
  options.num_trees = trees;
  return CongestionApproximator(build_racke_trees(g, options, rng).trees);
}

TEST(AlmostRoute, ZeroDemandReturnsZeroFlow) {
  Rng rng(601);
  const Graph g = make_grid(4, 4, {1, 4}, rng);
  const CongestionApproximator approx = racke_approximator(g, 3, rng);
  const AlmostRouteResult result =
      almost_route(CsrGraph(g), approx, std::vector<double>(16, 0.0),
                   AlmostRouteOptions{});
  EXPECT_TRUE(result.converged);
  for (const double f : result.flow) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(AlmostRoute, RoutesMostOfTheDemand) {
  Rng rng(607);
  const Graph g = make_gnp_connected(30, 0.15, {2, 8}, rng);
  const CongestionApproximator approx = racke_approximator(g, 4, rng);
  const std::vector<double> b = st_demand(30, 0, 29, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.5;
  options.alpha = 3.0;
  const AlmostRouteResult result =
      almost_route(CsrGraph(g), approx, b, options);
  EXPECT_TRUE(result.converged);
  // The returned flow must have routed a significant fraction of b:
  // residual well below the original demand.
  const std::vector<double> div = flow_divergence(g, result.flow);
  double residual = 0.0;
  for (NodeId v = 0; v < 30; ++v) {
    residual += std::abs(b[static_cast<std::size_t>(v)] -
                         div[static_cast<std::size_t>(v)]);
  }
  EXPECT_LT(residual, 1.0);  // |b|_1 = 2
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.rounds, 0.0);
}

TEST(AlmostRoute, CongestionNearOptimal) {
  // Two-node graph, one edge: optimal congestion for unit demand is
  // 1/cap; AlmostRoute + exact cleanup must land near it.
  Rng rng(613);
  Graph g(2);
  g.add_edge(0, 1, 4.0);
  const CongestionApproximator approx = racke_approximator(g, 2, rng);
  const std::vector<double> b = st_demand(2, 0, 1, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.3;
  const AlmostRouteResult result =
      almost_route(CsrGraph(g), approx, b, options);
  EXPECT_TRUE(result.converged);
  // Flow should be close to 1.0 on the single edge.
  EXPECT_NEAR(result.flow[0], 1.0, 0.4);
}

// --- The symmetric soft-max behind every AlmostRoute iteration. ---

std::vector<std::vector<double>> softmax_cases() {
  return {
      {-3.5, 0.0, 1e-3, 2.25, -40.0, 17.0, 0.5},
      {1e-9, -2e-6, 0.75, -0.75, 6.0},
      {700.0, -700.0, 699.5, -0.25, 0.0, 350.0, -123.0},
  };
}

TEST(SymmetricSoftMax, PotentialMatchesLongDoubleReference) {
  for (const std::vector<double>& x : softmax_cases()) {
    long double sum = 0.0L;
    for (const double v : x) {
      sum += std::exp(static_cast<long double>(v)) +
             std::exp(-static_cast<long double>(v));
    }
    const auto reference = static_cast<double>(std::log(sum));
    std::vector<double> d = x;
    const detail::SoftMax sm =
        detail::symmetric_softmax_in_place(d.data(), d.size());
    EXPECT_NEAR(sm.phi, reference, 1e-13 * std::abs(reference));
  }
}

TEST(SymmetricSoftMax, DifferencesMatchTheFourExpForm) {
  for (const std::vector<double>& x : softmax_cases()) {
    std::vector<double> d = x;
    const detail::SoftMax sm =
        detail::symmetric_softmax_in_place(d.data(), d.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double plus = std::exp(x[i] - sm.phi);
      const double minus = std::exp(-x[i] - sm.phi);
      // Relative to the terms, not to their difference: near x = 0 both
      // forms cancel alike, so the difference carries no more digits.
      EXPECT_LE(std::abs(d[i] * sm.inv_sum - (plus - minus)),
                1e-12 * (plus + minus))
          << "x = " << x[i];
    }
  }
}

TEST(SymmetricSoftMax, LargeInputsStayFinite) {
  std::vector<double> d = {700.0, -700.0, 699.9, -699.9, 0.0, 1e-300};
  const detail::SoftMax sm =
      detail::symmetric_softmax_in_place(d.data(), d.size());
  EXPECT_TRUE(std::isfinite(sm.phi));
  EXPECT_GT(sm.inv_sum, 0.0);
  EXPECT_LE(sm.inv_sum, 1.0);
  for (const double v : d) EXPECT_TRUE(std::isfinite(v));
}

// The weighted form AlmostRoute runs over distinct cuts: each term
// weighted w_c equals w_c copies of it, against a long-double reference
// over the expanded input, and the differences are those of the copies.
TEST(SymmetricSoftMax, WeightedEqualsExpandedDuplicates) {
  std::vector<std::vector<double>> cases = softmax_cases();
  cases.push_back({700.0, -700.0, 699.9, -699.9, 0.0, 1e-300});
  for (const std::vector<double>& x : cases) {
    std::vector<std::int32_t> weight(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      weight[i] = static_cast<std::int32_t>(1 + (7 * i + 3) % 11) *
                  (i % 3 == 0 ? 400 : 1);
    }
    std::vector<double> expanded;
    long double max = 0.0L;
    for (std::size_t i = 0; i < x.size(); ++i) {
      expanded.insert(expanded.end(), static_cast<std::size_t>(weight[i]),
                      x[i]);
      max = std::max(max, std::abs(static_cast<long double>(x[i])));
    }
    long double shifted = 0.0L;
    for (const double v : expanded) {
      shifted += std::exp(static_cast<long double>(v) - max) +
                 std::exp(-static_cast<long double>(v) - max);
    }
    const auto phi_ref = static_cast<double>(max + std::log(shifted));
    const auto inv_sum_ref = static_cast<double>(1.0L / shifted);

    std::vector<double> d = x;
    const detail::SoftMax sm =
        detail::symmetric_softmax_in_place(d.data(), weight.data(), d.size());
    EXPECT_TRUE(std::isfinite(sm.phi));
    EXPECT_NEAR(sm.phi, phi_ref, 1e-13 * std::abs(phi_ref));
    EXPECT_NEAR(sm.inv_sum, inv_sum_ref, 1e-13 * inv_sum_ref);
    EXPECT_GT(sm.inv_sum, 0.0);
    EXPECT_LE(sm.inv_sum, 1.0);

    std::vector<double> de = expanded;
    const detail::SoftMax sme =
        detail::symmetric_softmax_in_place(de.data(), de.size());
    EXPECT_NEAR(sm.phi, sme.phi, 1e-13 * std::abs(sme.phi));
    std::size_t k = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(std::isfinite(d[i]));
      for (std::int32_t r = 0; r < weight[i]; ++r) {
        EXPECT_EQ(d[i], de[k++]) << "x = " << x[i];
      }
    }
  }
}

TEST(SymmetricSoftMax, AllZeroInputIsLogTwoK) {
  for (const std::size_t k : {1, 7, 6120}) {
    std::vector<double> d(k, 0.0);
    const detail::SoftMax sm = detail::symmetric_softmax_in_place(d.data(), k);
    EXPECT_DOUBLE_EQ(sm.phi, std::log(2.0 * static_cast<double>(k)));
    EXPECT_DOUBLE_EQ(sm.inv_sum, 1.0 / (2.0 * static_cast<double>(k)));
    for (const double v : d) EXPECT_EQ(v, 0.0);
  }
}

// A pinned instance: gnp n=256 with 24 sampled trees, unit 0 -> 255
// demand, default options. Sherman's fixed step took 709 iterations; the
// adaptive step takes 112. The final potential stays within 1% of the
// fixed step's, and a second call is bitwise equal to the first.
TEST(AlmostRoute, IterationCountIsThatOfTheFourExpForm) {
  Rng rng(1717);
  const Graph g = make_gnp_connected(256, 4.0 / 256, {1, 8}, rng);
  const CongestionApproximator approx = CongestionApproximator::from_samples(
      sample_virtual_trees(g, 24, HierarchyOptions{}, rng));
  const std::vector<double> b = st_demand(256, 0, 255, 1.0);
  const CsrGraph csr(g);
  const AlmostRouteResult first =
      almost_route(csr, approx, b, AlmostRouteOptions{});
  constexpr int kAdaptiveIterations = 112;
  constexpr double kFixedStepPotential = 187.63655072045398;
  EXPECT_TRUE(first.converged);
  EXPECT_EQ(first.iterations, kAdaptiveIterations);
  EXPECT_NEAR(first.potential, kFixedStepPotential,
              0.01 * kFixedStepPotential);

  const AlmostRouteResult second =
      almost_route(csr, approx, b, AlmostRouteOptions{});
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_EQ(second.rejected_steps, first.rejected_steps);
  ASSERT_EQ(second.flow.size(), first.flow.size());
  EXPECT_EQ(std::memcmp(second.flow.data(), first.flow.data(),
                        first.flow.size() * sizeof(double)),
            0);
}

// route_mix's 16x16 grid with the engine's serving options (24 trees,
// AlmostRoute eps = 0.25, capacity buckets one octave wide), at the
// three pairs whose answers fell below 0.75 OPT with the fixed step.
// Sherman's fixed step took 7807, 7723 and 7586 iterations on the unit
// demands; the adaptive step must take at most a third of that on each.
TEST(AlmostRoute, AdaptiveStepCutsGridIterationsThreefold) {
  Rng grid_rng(0x726f7574656d6978ULL);
  const Graph g = make_grid(16, 16, {1, 8}, grid_rng);
  ShermanOptions options;
  options.num_trees = 24;
  options.almost_route.epsilon = 0.25;
  options.hierarchy.capacity_bucket_octaves = 1.0;
  Rng rng(1);
  const ShermanSolver solver(g, options, rng);
  AlmostRouteOptions ar = options.almost_route;
  ar.alpha = solver.alpha();
  struct Case {
    NodeId s;
    NodeId t;
    int fixed_step_iterations;
  };
  for (const Case& c : {Case{220, 58, 7807}, Case{210, 252, 7723},
                        Case{210, 220, 7586}}) {
    const AlmostRouteResult result =
        almost_route(solver.hierarchy().csr(), solver.approximator(),
                     st_demand(256, c.s, c.t, 1.0), ar);
    EXPECT_TRUE(result.converged) << c.s << " -> " << c.t;
    EXPECT_LE(3 * result.iterations, c.fixed_step_iterations)
        << c.s << " -> " << c.t;
    EXPECT_LT(result.rejected_steps, result.iterations) << c.s << " -> " << c.t;
  }
}

// Every iteration but a rejected one pays one R and one R^T application
// plus the O(D) aggregations (charged as 8 rounds); a rejected step pays
// the R application and the O(D) only.
TEST(AlmostRoute, RoundsChargeRejectedStepsOneApplication) {
  Rng rng(1717);
  const Graph g = make_gnp_connected(256, 4.0 / 256, {1, 8}, rng);
  const CongestionApproximator approx = CongestionApproximator::from_samples(
      sample_virtual_trees(g, 24, HierarchyOptions{}, rng));
  const AlmostRouteResult result = almost_route(
      CsrGraph(g), approx, st_demand(256, 0, 255, 1.0), AlmostRouteOptions{});
  ASSERT_GT(result.rejected_steps, 0);
  const double r = approx.rounds_per_application(8);
  const double full = 2.0 * r + 8.0;
  const double expected =
      static_cast<double>(result.iterations - result.rejected_steps) * full +
      static_cast<double>(result.rejected_steps) * (r + 8.0);
  EXPECT_NEAR(result.rounds, expected, 1e-9 * expected);
}

// At eps = 0.25 the adaptive step still converges and routes the bulk
// of an s-t demand.
TEST(AlmostRoute, RoutesMostOfTheDemandAtQuarterEpsilon) {
  Rng rng(929);
  const Graph g = make_gnp_connected(40, 0.12, {1, 8}, rng);
  const CongestionApproximator approx = racke_approximator(g, 6, rng);
  const std::vector<double> b =
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0);
  AlmostRouteOptions options;
  options.epsilon = 0.25;
  options.alpha = 2.0;
  const AlmostRouteResult result =
      almost_route(CsrGraph(g), approx, b, options);
  EXPECT_TRUE(result.converged);
  const std::vector<double> div = flow_divergence(g, result.flow);
  double residual = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    residual += std::abs(b[static_cast<std::size_t>(v)] -
                         div[static_cast<std::size_t>(v)]);
  }
  EXPECT_LT(residual, 1.0);  // |b|_1 = 2
}

TEST(ShermanRoute, RoutesDemandExactly) {
  Rng rng(617);
  const Graph g = make_gnp_connected(25, 0.2, {1, 9}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  std::vector<double> b(25, 0.0);
  b[1] = 2.0;
  b[13] = 1.0;
  b[24] = -3.0;
  const RouteResult result = solver.route(b);
  const std::vector<double> div = flow_divergence(g, result.flow);
  for (NodeId v = 0; v < 25; ++v) {
    EXPECT_NEAR(div[static_cast<std::size_t>(v)],
                b[static_cast<std::size_t>(v)], 1e-6);
  }
}

TEST(ShermanRoute, CongestionWithinFactorOfOptimal) {
  // For s-t demands the optimal congestion is known exactly via Dinic.
  Rng rng(619);
  const Graph g = make_gnp_connected(30, 0.15, {1, 6}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  const NodeId s = 0;
  const NodeId t = 29;
  const double maxflow = dinic_max_flow_value(g, s, t);
  const RouteResult result = solver.route(st_demand(30, s, t, 1.0));
  const double opt = 1.0 / maxflow;
  EXPECT_GE(result.congestion, opt * (1.0 - 1e-9));
  EXPECT_LE(result.congestion, opt * 3.0);  // near-optimal; E2 quantifies
}

TEST(ShermanMaxFlow, FeasibleConservedAndNearOptimal) {
  Rng rng(631);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = make_gnp_connected(24, 0.2, {1, 8}, rng);
    const NodeId s = 0;
    const NodeId t = 23;
    const double exact = dinic_max_flow_value(g, s, t);
    const MaxFlowApproxResult approx = approx_max_flow(g, s, t, 0.25, rng);
    EXPECT_TRUE(is_feasible(g, approx.flow, 1e-6)) << "trial " << trial;
    EXPECT_NEAR(max_conservation_violation(g, approx.flow, s, t), 0.0, 1e-6);
    EXPECT_NEAR(flow_value(CsrGraph(g), approx.flow, s), approx.value, 1e-6);
    EXPECT_GE(approx.value, 0.6 * exact) << "trial " << trial;
    EXPECT_LE(approx.value, exact * (1.0 + 1e-6)) << "trial " << trial;
  }
}

TEST(ShermanMaxFlow, PathGraphIsExact) {
  Rng rng(641);
  Graph g(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 7.0);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 3, 0.2, rng);
  // On a path there is only one routing; the value is limited by the
  // bottleneck and the algorithm should find (nearly) all of it.
  EXPECT_GE(result.value, 0.8 * 2.0);
  EXPECT_LE(result.value, 2.0 + 1e-9);
}

TEST(ShermanMaxFlow, BarbellBridge) {
  Rng rng(643);
  const Graph g = make_barbell(5, {6, 6}, 2.0, rng);
  const double exact = dinic_max_flow_value(g, 0, 9);
  EXPECT_DOUBLE_EQ(exact, 2.0);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 9, 0.25, rng);
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
}

TEST(ShermanMaxFlow, LayeredBottleneck) {
  Rng rng(647);
  NodeId s = 0;
  NodeId t = 0;
  const Graph g = make_layered_bottleneck(4, 3, 50.0, 6.0, rng, &s, &t);
  const double exact = dinic_max_flow_value(g, s, t);
  const MaxFlowApproxResult result = approx_max_flow(g, s, t, 0.25, rng);
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
}

TEST(ShermanMaxFlow, GridFeasibleAndNearOptimal) {
  Rng rng(937);
  const Graph g = make_grid(5, 5, {1, 7}, rng);
  ShermanOptions options;
  options.epsilon = 0.25;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult result = solver.max_flow(0, 24);
  const double exact = dinic_max_flow_value(g, 0, 24);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
  EXPECT_GE(result.value, 0.6 * exact);
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
}

TEST(ShermanMaxFlow, RoundsAccountedAndSubquadratic) {
  Rng rng(653);
  const Graph g = make_gnp_connected(40, 0.12, {1, 5}, rng);
  const MaxFlowApproxResult result = approx_max_flow(g, 0, 39, 0.3, rng);
  EXPECT_GT(result.rounds, 0.0);
  EXPECT_GT(result.gradient_iterations, 0);
}

TEST(ShermanSolver, ReusableAcrossQueries) {
  Rng rng(659);
  const Graph g = make_grid(5, 5, {1, 6}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  const MaxFlowApproxResult a = solver.max_flow(0, 24);
  const MaxFlowApproxResult b = solver.max_flow(4, 20);
  EXPECT_GT(a.value, 0.0);
  EXPECT_GT(b.value, 0.0);
  EXPECT_TRUE(is_feasible(g, a.flow, 1e-6));
  EXPECT_TRUE(is_feasible(g, b.flow, 1e-6));
}

TEST(ShermanSolver, RejectsBadInput) {
  Rng rng(661);
  const Graph g = make_path(5, {1, 1}, rng);
  const ShermanSolver solver(g, ShermanOptions{}, rng);
  EXPECT_THROW(solver.max_flow(0, 0), RequirementError);
  EXPECT_THROW(solver.route({1.0, 0.0, 0.0, 0.0, 0.5}), RequirementError);
  Graph disconnected(3);
  disconnected.add_edge(0, 1, 1.0);
  EXPECT_THROW(ShermanSolver(disconnected, ShermanOptions{}, rng),
               RequirementError);
}

// The headline guarantee, swept over families and epsilons (the precise
// curve is E2's job; here we bound from below with slack for the small-n
// constants).
struct ApproxCase {
  int family;
  double epsilon;
};

class ShermanFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ShermanFamilies, ValueWithinBand) {
  const int param = GetParam();
  Rng rng(static_cast<std::uint64_t>(param) * 2749 + 23);
  Graph g;
  switch (param % 3) {
    case 0: g = make_gnp_connected(20, 0.25, {1, 7}, rng); break;
    case 1: g = make_grid(5, 4, {1, 7}, rng); break;
    default: g = make_tree_plus_chords(20, 10, {1, 7}, rng); break;
  }
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  const double exact = dinic_max_flow_value(g, s, t);
  const MaxFlowApproxResult result = approx_max_flow(g, s, t, 0.25, rng);
  EXPECT_TRUE(is_feasible(g, result.flow, 1e-6));
  EXPECT_GE(result.value, 0.55 * exact) << "family " << param % 3;
  EXPECT_LE(result.value, exact * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Families, ShermanFamilies, ::testing::Range(0, 9));

// --- Golden build: the virtual-tree build's constants (beta, trees per
// level, sparsifier and AKPW parameters) fix every tree bit, and
// hierarchy_fingerprint keys every persisted hierarchy by them. A change
// to any constant must change the fingerprint too; it shows up here
// first. ---

std::uint64_t fnv1a_word(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(GoldenBuild, FingerprintOfDefaultOptions) {
  EXPECT_EQ(hierarchy_fingerprint(ShermanOptions{}, 0x5eed0f10eULL),
            0xcffce7ecbd31177eULL);
}

TEST(GoldenBuild, DefaultBuildIsBitwiseStable) {
  Rng graph_rng(1);
  const Graph g = make_gnp_connected(256, 1.0 / 64, {1, 8}, graph_rng);
  ShermanOptions options;
  options.num_trees = 24;
  Rng rng(1);
  const ShermanHierarchy h(g, options, rng);
  std::uint64_t hash = 14695981039346656037ull;
  for (int t = 0; t < h.approximator().num_trees(); ++t) {
    const RootedTree& tree = h.approximator().tree(t);
    for (const NodeId p : tree.parent) {
      hash = fnv1a_word(hash, static_cast<std::uint64_t>(p));
    }
    for (const double c : tree.parent_cap) hash = fnv1a_word(hash, bits_of(c));
  }
  hash = fnv1a_word(hash, bits_of(h.alpha()));
  EXPECT_EQ(h.approximator().num_trees(), 24);
  EXPECT_EQ(hash, 0xea876acb9442a2f9ULL);
}

}  // namespace
}  // namespace dmf
