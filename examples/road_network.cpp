// Evacuation planning on a road grid.
//
// Scenario from the paper's motivation: max flow on a real communication
// or transport network where no node knows the global topology. We model
// a city as a grid with capacity-graded roads (arterials vs side
// streets) and a river crossed by a handful of bridges — the min cut.
// The planner asks: how many vehicles per minute can move from the
// stadium district to the evacuation zone?
//
//   ./example_road_network [width] [height] [bridges] [seed]
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <vector>

#include "baselines/dinic.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "maxflow/sherman.h"
#include "util/rng.h"

namespace {

// Grid with a horizontal river in the middle; only `bridges` columns keep
// their crossing edge, with moderate capacity.
dmf::Graph make_city(int width, int height, int bridges, dmf::Rng& rng,
                     dmf::NodeId* stadium, dmf::NodeId* evacuation) {
  using namespace dmf;
  Graph g(static_cast<NodeId>(width) * height);
  const auto id = [width](int x, int y) {
    return static_cast<NodeId>(y * width + x);
  };
  const int river_y = height / 2;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Horizontal roads: arterials every 4th row.
      if (x + 1 < width) {
        const double cap = (y % 4 == 0) ? 12.0 : rng.next_int(2, 5);
        g.add_edge(id(x, y), id(x + 1, y), cap);
      }
      // Vertical roads; crossing the river only on bridge columns.
      if (y + 1 < height) {
        const bool crosses_river = (y + 1 == river_y + 1 && y == river_y);
        (void)crosses_river;
        if (y == river_y) {
          const int spacing = width / (bridges + 1);
          const bool is_bridge =
              spacing > 0 && x % spacing == spacing / 2 &&
              x / spacing < bridges;
          if (!is_bridge) continue;
          g.add_edge(id(x, y), id(x, y + 1), 8.0);
        } else {
          const double cap = (x % 4 == 0) ? 12.0 : rng.next_int(2, 5);
          g.add_edge(id(x, y), id(x, y + 1), cap);
        }
      }
    }
  }
  *stadium = id(width / 2, 1);
  *evacuation = id(width / 2, height - 2);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmf;
  const int width = argc > 1 ? std::atoi(argv[1]) : 16;
  const int height = argc > 2 ? std::atoi(argv[2]) : 12;
  const int bridges = argc > 3 ? std::atoi(argv[3]) : 3;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;

  Rng rng(seed);
  NodeId stadium = 0;
  NodeId evacuation = 0;
  const Graph g = make_city(width, height, bridges, rng, &stadium, &evacuation);
  const CsrGraph csr(g);
  if (!is_connected(csr)) {
    std::fprintf(stderr, "city generation produced a disconnected graph; "
                         "increase bridges\n");
    return 2;
  }
  std::printf("city: %dx%d grid, %d bridges, %s\n", width, height, bridges,
              g.summary().c_str());

  ShermanOptions options;
  options.epsilon = 0.2;
  options.almost_route.epsilon = 0.2;
  const ShermanSolver solver(g, options, rng);
  const MaxFlowApproxResult flow = solver.max_flow(stadium, evacuation);
  const MinCutResult cut = dinic_min_cut(csr, stadium, evacuation);

  std::printf("\nevacuation throughput (approximate): %.2f vehicles/min\n",
              flow.value);
  std::printf("exact capacity (min cut over the river): %.2f\n", cut.capacity);
  std::printf("achieved fraction: %.1f%%\n", 100.0 * flow.value / cut.capacity);
  std::printf("feasible: %s, conservation violation: %.2e\n",
              is_feasible(g, flow.flow, 1e-6) ? "yes" : "NO",
              max_conservation_violation(g, flow.flow, stadium, evacuation));

  // Report the three most congested roads — the bottleneck bridges.
  std::printf("\nmost congested roads:\n");
  std::vector<std::pair<double, EdgeId>> congested;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    congested.emplace_back(
        std::abs(flow.flow[static_cast<std::size_t>(e)]) / g.capacity(e), e);
  }
  std::sort(congested.rbegin(), congested.rend());
  for (int i = 0; i < 5 && i < static_cast<int>(congested.size()); ++i) {
    const auto [load, e] = congested[static_cast<std::size_t>(i)];
    const EdgeEndpoints ep = g.endpoints(e);
    std::printf("  road (%d,%d)-(%d,%d): %.0f%% of capacity %.0f\n",
                ep.u % width, ep.u / width, ep.v % width, ep.v / width,
                100.0 * load, g.capacity(e));
  }
  std::printf("\naccounted CONGEST rounds: %.0f (trivial O(m) = %d)\n",
              flow.rounds, g.num_edges());
  return 0;
}
