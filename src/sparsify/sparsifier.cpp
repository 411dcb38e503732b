#include "sparsify/sparsifier.h"

#include <algorithm>
#include <cmath>

#include "sparsify/spanner.h"

namespace dmf {
namespace {

// Cap on peel-and-sample rounds; whatever survives them is kept as is.
constexpr int kMaxRounds = 30;

}  // namespace

SparsifyResult sparsify(const Multigraph& g, const SparsifierOptions& options,
                        Rng& rng) {
  const NodeId n = g.num_nodes();
  SparsifyResult result;
  result.graph = Multigraph(n);

  int bundle = options.bundle_size;
  if (bundle <= 0) {
    const auto floor_n = static_cast<double>(std::max<NodeId>(2, n));
    bundle = 3 * std::max(1, static_cast<int>(std::ceil(std::log2(floor_n))));
  }
  double target_degree = options.target_degree;
  if (target_degree <= 0.0) target_degree = 4.0 * bundle;
  const double target_edges =
      target_degree * static_cast<double>(std::max<NodeId>(1, n));

  // Working pool of edges still subject to sampling.
  Multigraph pool = g;

  for (int iter = 0; iter < kMaxRounds; ++iter) {
    if (static_cast<double>(pool.num_edges()) <= target_edges) break;
    ++result.iterations;

    // --- Peel a bundle of spanners; bundle edges are kept verbatim. ---
    std::vector<char> in_bundle(pool.num_edges(), 0);
    std::size_t remaining = pool.num_edges();
    for (int b = 0; b < bundle && remaining > 0; ++b) {
      // Build the residual pool (edges not yet in the bundle).
      Multigraph residual(n);
      std::vector<std::size_t> back_map;
      back_map.reserve(remaining);
      for (std::size_t i = 0; i < pool.num_edges(); ++i) {
        if (!in_bundle[i]) {
          residual.add_edge(pool.edge(i));
          back_map.push_back(i);
        }
      }
      if (residual.num_edges() == 0) break;
      const SpannerResult spanner = baswana_sen_spanner(residual, 0, rng);
      result.rounds += spanner.rounds;
      for (const std::size_t ri : spanner.edges) {
        in_bundle[back_map[ri]] = 1;
        --remaining;
      }
    }

    // Bundle edges go to the output; the rest are subsampled at 1/4 with
    // quadrupled weight and stay in the pool.
    Multigraph next_pool(n);
    for (std::size_t i = 0; i < pool.num_edges(); ++i) {
      const MultiEdge& e = pool.edge(i);
      if (in_bundle[i]) {
        result.graph.add_edge(e);
      } else if (rng.next_bool(0.25)) {
        MultiEdge scaled = e;
        scaled.cap *= 4.0;
        scaled.length = 1.0 / scaled.cap;
        next_pool.add_edge(scaled);
      }
    }
    pool = std::move(next_pool);
  }

  // Whatever survives the loop is kept as is.
  for (std::size_t i = 0; i < pool.num_edges(); ++i) {
    result.graph.add_edge(pool.edge(i));
  }
  return result;
}

double cut_capacity(const Multigraph& g, const std::vector<char>& side) {
  DMF_REQUIRE(side.size() == static_cast<std::size_t>(g.num_nodes()),
              "cut_capacity: side mask size mismatch");
  double total = 0.0;
  for (const MultiEdge& e : g.edges()) {
    if (side[static_cast<std::size_t>(e.u)] !=
        side[static_cast<std::size_t>(e.v)]) {
      total += e.cap;
    }
  }
  return total;
}

std::vector<char> orient_low_outdegree(const Multigraph& g) {
  const auto nn = static_cast<std::size_t>(g.num_nodes());
  std::vector<char> orientation(g.num_edges(), 0);
  std::vector<char> oriented(g.num_edges(), 0);
  if (g.num_edges() == 0) return orientation;

  const double avg_degree =
      2.0 * static_cast<double>(g.num_edges()) /
      static_cast<double>(std::max<NodeId>(1, g.num_nodes()));
  const MultiAdjacency adjacency(g);
  std::vector<char> halted(nn, 0);

  const int rounds = std::max(
      1, static_cast<int>(std::ceil(std::log2(
             static_cast<double>(std::max<NodeId>(2, g.num_nodes()))))) + 1);
  for (int r = 0; r < rounds; ++r) {
    // Nodes with few unoriented incident edges claim them all outward.
    std::vector<NodeId> claim_order;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (halted[static_cast<std::size_t>(v)]) continue;
      std::size_t unoriented = 0;
      for (const auto& [to, idx] : adjacency.row(v)) {
        (void)to;
        if (!oriented[idx]) ++unoriented;
      }
      if (static_cast<double>(unoriented) <= 2.0 * avg_degree) {
        claim_order.push_back(v);
      }
    }
    for (const NodeId v : claim_order) {
      for (const auto& [to, idx] : adjacency.row(v)) {
        (void)to;
        if (oriented[idx]) continue;
        oriented[idx] = 1;
        // 0 = u->v; v must be the tail.
        orientation[idx] = (g.edge(idx).u == v) ? 0 : 1;
      }
      halted[static_cast<std::size_t>(v)] = 1;
    }
  }
  // Any leftovers (cannot happen given the halving argument, but be
  // safe): orient arbitrarily.
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    if (!oriented[i]) orientation[i] = 0;
  }
  return orientation;
}

}  // namespace dmf
