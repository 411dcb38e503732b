// Using the congestion approximator as a standalone cut/congestion
// oracle.
//
// The paper's key data structure — O(log n) sampled virtual trees — is
// useful beyond max flow: given ANY demand vector (a traffic matrix
// row, a migration plan, a failover scenario), ||R b||_inf estimates in
// Õ(sqrt(n)+D) rounds how congested the network must get to serve it,
// without computing any flow. This example builds the oracle once and
// scores a batch of scenarios against exact optima.
//
//   ./example_cut_oracle [n] [scenarios] [seed]
#include <cstdio>
#include <cstdlib>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 80;
  const int scenarios = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 11;

  Rng rng(seed);
  const Graph g = make_tree_plus_chords(n, n / 2, {1, 12}, rng);
  std::printf("network: %s\n", g.summary().c_str());

  HierarchyOptions options;
  double build_rounds = 0.0;
  std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 0 /* = O(log n) */, options, rng);
  for (const auto& sample : samples) build_rounds += sample.rounds;
  const int num_trees = static_cast<int>(samples.size());
  const CongestionApproximator oracle =
      CongestionApproximator::from_samples(std::move(samples));
  const int diameter = diameter_double_sweep(CsrGraph(g));
  std::printf("oracle: %d virtual trees, build rounds %.0f, "
              "query rounds %.0f\n\n",
              num_trees, build_rounds,
              oracle.rounds_per_application(diameter));

  std::printf("%-10s %12s %12s %8s\n", "scenario", "oracle est.",
              "exact opt", "ratio");
  Summary ratios;
  for (int i = 0; i < scenarios; ++i) {
    // Scenario: an s-t transfer of one unit (exact optimum computable).
    const auto s = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    auto t = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(n)));
    if (t == s) t = (t + 1) % n;
    const double estimate =
        oracle.congestion_norm(st_demand(n, s, t, 1.0));
    const double exact = 1.0 / dinic_max_flow_value(g, s, t);
    ratios.add(exact / estimate);
    std::printf("%3d->%-5d %12.5f %12.5f %8.2f\n", s, t, estimate, exact,
                exact / estimate);
  }
  std::printf("\nempirical alpha over %d scenarios: %.2f "
              "(oracle never overestimates: Lemma 3.3 lower side)\n",
              scenarios, ratios.max());

  // A multi-site scenario (no exact oracle needed to be useful).
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  b[0] = 3.0;
  b[static_cast<std::size_t>(n / 3)] = 2.0;
  b[static_cast<std::size_t>(n / 2)] = -4.0;
  b[static_cast<std::size_t>(n - 1)] = -1.0;
  std::printf("\nmulti-site scenario (2 sources, 2 sinks): estimated "
              "min achievable congestion %.4f\n",
              oracle.congestion_norm(b));
  return 0;
}
