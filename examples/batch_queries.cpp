// Batched query serving with the FlowEngine session API.
//
// Builds one graph, constructs the engine (= one congestion-approximator
// hierarchy build plus a persistent worker pool), then *submits* a mixed
// workload: many s-t max-flow queries, a multi-demand route() call, an
// exact query that select_solver sends to a baseline, and two
// multi-terminal queries over the same terminal set — the second is a
// hierarchy-cache hit. Tickets are collected after all submissions, so
// queries execute concurrently while the submitter runs ahead.
//
//   ./example_batch_queries [n] [queries] [threads] [seed]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 200;
  const int num_queries = argc > 2 ? std::atoi(argv[2]) : 32;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 0;  // 0 = hardware
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;

  Rng rng(seed);
  const Graph g = make_gnp_connected(n, 3.5 / n, {1, 16}, rng);
  std::printf("graph: %s\n", g.summary().c_str());

  EngineOptions options;
  options.threads = threads;
  options.seed = seed;
  FlowEngine engine(g, options);
  std::printf("hierarchy: %d trees, alpha=%.2f, built in %.3fs (%.0f rounds)\n",
              engine.stats().num_trees, engine.stats().alpha,
              engine.stats().build_seconds, engine.stats().build_rounds);

  // Submit the s-t workload; tickets resolve out of order on the pool.
  std::vector<MaxFlowTicket> max_flow_tickets;
  for (int i = 0; i < num_queries; ++i) {
    const NodeId s = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    NodeId t = s;
    while (t == s) {
      t = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    }
    max_flow_tickets.push_back(engine.submit(MaxFlowQuery{s, t}));
  }
  // An exact query: the registry sends it to Dinic / push-relabel. High
  // priority: it jumps the queue (the result is unaffected).
  MaxFlowTicket exact_ticket =
      engine.submit(MaxFlowQuery{0, n - 1, 0.0, /*exact=*/true},
                    SubmitOptions{/*priority=*/10});
  // A three-terminal demand routed directly on the hierarchy.
  std::vector<double> demand(static_cast<std::size_t>(n), 0.0);
  demand[0] = 3.0;
  demand[static_cast<std::size_t>(n / 2)] = -2.0;
  demand[static_cast<std::size_t>(n - 1)] = -1.0;
  RouteTicket route_ticket = engine.submit(RouteQuery{demand});
  // Multi-terminal max flow via the super-terminal reduction.
  MultiTerminalTicket multi_a =
      engine.submit(MultiTerminalQuery{{0, 1, 2}, {n - 3, n - 2, n - 1}});

  // Collect. get() blocks only on queries not yet finished.
  int shown = 0;
  for (std::size_t i = 0; i < max_flow_tickets.size(); ++i) {
    Result<MaxFlowApproxResult> r = max_flow_tickets[i].get();
    if (!r.ok()) {
      std::printf("  query %zu FAILED [%s]: %s\n", i,
                  error_code_name(r.code), r.message.c_str());
      continue;
    }
    if (shown < 4) {
      std::printf("  query %zu [%s]: max-flow value %.4f (%.1fms)\n", i,
                  r.solver.c_str(), r.value().value, 1e3 * r.seconds);
      ++shown;
    } else if (shown == 4) {
      std::printf("  ...\n");
      ++shown;
    }
  }
  const Result<MaxFlowApproxResult> exact = exact_ticket.get();
  if (exact.ok()) {
    std::printf("  exact [%s]: max-flow value %.4f (%.1fms)\n",
                exact.solver.c_str(), exact.value().value,
                1e3 * exact.seconds);
  }
  const Result<RouteResult> routed = route_ticket.get();
  if (routed.ok()) {
    std::printf("  route [%s]: congestion %.4f (%.1fms)\n",
                routed.solver.c_str(), routed.value().congestion,
                1e3 * routed.seconds);
  }
  const Result<MultiTerminalMaxFlowResult> ma = multi_a.get();
  // Re-submit the same terminal set (permuted: canonicalization makes it
  // the same cache key) only after the first resolved, so the measured
  // time is a clean cache hit rather than a wait on the in-flight build.
  const Result<MultiTerminalMaxFlowResult> mb =
      engine.submit(MultiTerminalQuery{{2, 1, 0}, {n - 1, n - 2, n - 3}})
          .get();
  if (ma.ok() && mb.ok()) {
    std::printf("  multi-terminal [%s]: value %.4f (%.1fms build+solve, "
                "then %.1fms on the cached hierarchy)\n",
                ma.solver.c_str(), ma.value().value, 1e3 * ma.seconds,
                1e3 * mb.seconds);
  }

  const EngineStats stats = engine.stats();
  std::printf("\nserved %lld queries (%lld failed) in %.3fs total\n",
              static_cast<long long>(stats.queries_served),
              static_cast<long long>(stats.queries_failed),
              stats.query_seconds_total);
  std::printf("amortized hierarchy build: %.4fs/query\n",
              stats.amortized_build_seconds_per_query());
  std::printf("hierarchy cache: %lld hits / %lld misses\n",
              static_cast<long long>(stats.hierarchy_cache_hits),
              static_cast<long long>(stats.hierarchy_cache_misses));
  for (const auto& [solver, count] : stats.queries_by_solver) {
    std::printf("  %-20s %lld queries\n", solver.c_str(),
                static_cast<long long>(count));
  }
  return 0;
}
