// E14: mutation throughput through a rolling capacity-update workload.
//
// The versioned mutation path's thesis, upgraded by the repair path: a
// capacity-only apply(MutationBatch) publishes a new snapshot and
// refreshes the hierarchy in the background by resampling ONLY the
// virtual trees whose structural capacity view changed (see
// HierarchyOptions::capacity_bucket_octaves) — the engine keeps serving
// meanwhile, and the refresh itself is a fraction of a full rebuild.
// Four scenarios:
//
//   e14a steady:   query throughput with no mutations, for scale.
//   e14b rolling:  ONE long-lived engine, apply() + background refresh —
//                  the query wave overlaps the refresh; stale_served
//                  counts queries answered from the pre-mutation
//                  snapshot meanwhile.
//   e14c repair:   pure capacity-update throughput (apply + wait until
//                  servable, no queries): the repair path vs a teardown
//                  baseline that pays one full hierarchy build per
//                  update. This is the ISSUE-6 ">= 5x" number.
//   e14d teardown: the pre-GraphStore way — fresh engine per mutation,
//                  then serve the wave; the comparator for e14b.
//
// The mutation workload is a small multiplicative capacity jitter
// (+/-0.8% on 8 edges per round): rolling reconfiguration in the small,
// the regime the repair path is designed for. Bucket-crossing is
// per-tree-dithered, so each jitter dirties only a ~|log2 ratio|/W
// fraction of the trees and the rest splice through bitwise.
//
// Acceptance: every rolling round sustains non-zero throughput (no
// full-stop), and after the dust settles a probe query on the final
// snapshot matches a fresh engine built directly on that graph bitwise
// — which, since every e14b refresh was a repair, is exactly the
// repaired-hierarchy == full-rebuild identity.
//
//   ./bench_e14_mutation_throughput [n] [wave_queries] [rounds] [seed]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "graph/graph_store.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The round's capacity jitter: +/-0.8% on 8 rotating edges, a pure
// function of (round, current graph) so every mode walks the identical
// graph trajectory. The ratio keeps each tree's dirty probability near
// 8 * log2(1.008) ~ 9%, the sparse-repair regime.
dmf::MutationBatch jitter_batch(const dmf::Graph& cur, int round) {
  dmf::MutationBatch batch;
  const auto m = static_cast<int>(cur.num_edges());
  for (int k = 0; k < 8; ++k) {
    const auto e = static_cast<dmf::EdgeId>((round * 13 + k * 5) % m);
    const double factor = k % 2 == 0 ? 1.008 : 1.0 / 1.008;
    batch.set_capacity(e, cur.capacity(e) * factor);
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 180;
  const int wave_queries = argc > 2 ? std::atoi(argv[2]) : 24;
  const int rounds = argc > 3 ? std::atoi(argv[3]) : 6;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1337;

  bench::JsonArtifact artifact("BENCH_e14.json");
  Rng rng(seed);
  const Graph g = bench::make_family("gnp", n, rng);

  // Fixed query mix reused by every wave (and both modes).
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < wave_queries; ++i) {
    const NodeId s = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    NodeId t = s;
    while (t == s) {
      t = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_nodes())));
    }
    pairs.emplace_back(s, t);
  }

  EngineOptions options;
  options.threads = 4;  // >= 2: workers keep serving while one rebuilds
  // 12 trees (near the 3 log2 n default at these sizes): enough that
  // per-tree resampling dominates the refresh and the fixed per-refresh
  // work (recapacitation, alpha, MWST) amortizes.
  options.sherman.num_trees = 12;
  options.seed = seed;

  // --- E14a: steady-state throughput (no mutations), for scale. ---
  bench::print_header("E14a", "steady state (no mutations)");
  bench::print_row({"queries", "seconds", "qps"});
  FlowEngine engine(g, options);
  double steady_qps = 0.0;
  {
    const auto start = Clock::now();
    std::vector<MaxFlowTicket> tickets;
    for (const auto& [s, t] : pairs) {
      tickets.push_back(engine.submit(MaxFlowQuery{s, t}));
    }
    int ok = 0;
    for (MaxFlowTicket& t : tickets) ok += t.get().ok() ? 1 : 0;
    const double secs = seconds_since(start);
    steady_qps = ok / secs;
    bench::print_row({bench::fmt_int(ok), bench::fmt(secs),
                      bench::fmt(steady_qps, 1)});
    artifact.add({{"scenario", "e14a_steady"},
                  {"n", static_cast<int>(n)},
                  {"queries", ok},
                  {"throughput_qps", steady_qps},
                  {"value_ratio", 1.0}});
  }

  // --- E14b: rolling updates on the live engine. ---
  bench::print_header("E14b",
                      "rolling capacity updates, background refresh");
  // first_s: mutation -> first answered query. The rolling engine keeps
  // serving from the previous snapshot, so this stays at one query's
  // latency; the teardown baseline below pays a full hierarchy build
  // first — that difference is the stall this experiment is about.
  bench::print_row({"round", "version", "plan", "dirty", "wave_s", "qps",
                    "first_s", "stale", "served_from"});
  const auto rolling_start = Clock::now();
  int rolling_ok = 0;
  double rolling_first_sum = 0.0;
  std::int64_t last_stale = 0;
  bool any_stale = false;
  bool every_round_served = true;
  for (int round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    const ApplyResult applied = engine.apply(
        jitter_batch(*engine.store()->snapshot().graph, round));
    const GraphVersion version = applied.version;
    std::vector<MaxFlowTicket> tickets;
    for (const auto& [s, t] : pairs) {
      tickets.push_back(engine.submit(MaxFlowQuery{s, t}));
    }
    int ok = 0;
    GraphVersion min_served = version;
    GraphVersion max_served = 0;
    double first_seconds = 0.0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      // Workers pop in submission order here, so ticket 0 resolves
      // first (up to scheduling noise): its get() bounds the
      // mutation-to-first-answer latency.
      const Result<MaxFlowApproxResult> r = tickets[i].get();
      if (i == 0) first_seconds = seconds_since(round_start);
      if (r.ok()) {
        ++ok;
        min_served = std::min(min_served, r.served_version);
        max_served = std::max(max_served, r.served_version);
      }
    }
    const double wave_seconds = seconds_since(round_start);
    rolling_ok += ok;
    rolling_first_sum += first_seconds;
    if (ok == 0) every_round_served = false;
    const EngineStats mid = engine.stats();
    const std::int64_t stale_this_wave =
        mid.queries_served_stale - last_stale;
    last_stale = mid.queries_served_stale;
    any_stale = any_stale || stale_this_wave > 0;
    bench::print_row(
        {bench::fmt_int(round), bench::fmt_int(static_cast<long long>(version)),
         applied.plan == RebuildPlan::kTreeRepair   ? "repair"
         : applied.plan == RebuildPlan::kNoOp       ? "noop"
                                                    : "rebuild",
         bench::fmt_int(applied.trees_dirty) + "/" +
             bench::fmt_int(applied.trees_total),
         bench::fmt(wave_seconds), bench::fmt(ok / wave_seconds, 1),
         bench::fmt(first_seconds), bench::fmt_int(stale_this_wave),
         "v" + std::to_string(min_served) + "..v" +
             std::to_string(max_served)});
  }
  const double rolling_seconds = seconds_since(rolling_start);
  const double rolling_qps = rolling_ok / rolling_seconds;
  const double rolling_first_mean = rolling_first_sum / rounds;

  // Let the last refresh land, then probe the final snapshot.
  const GraphVersion final_version = engine.latest_version();
  engine.wait_for_version(final_version);
  const EngineStats rolled = engine.stats();

  // --- E14c: repair vs rebuild, pure update throughput. ---
  // Each round is apply + wait-until-servable — no queries, so the
  // number is the capacity-update throughput of the refresh machinery
  // itself. The teardown side walks the identical graph trajectory but
  // pays a full synchronous hierarchy build per update.
  bench::print_header("E14c", "repair vs rebuild (updates/s, no queries)");
  const int update_rounds = std::max(12, 4 * rounds);
  FlowEngine repair_engine(g, options);
  const auto repair_start = Clock::now();
  for (int round = 0; round < update_rounds; ++round) {
    const ApplyResult applied = repair_engine.apply(
        jitter_batch(*repair_engine.store()->snapshot().graph, round));
    repair_engine.wait_for_version(applied.version);
  }
  const double repair_seconds = seconds_since(repair_start);
  const double repair_ups = update_rounds / repair_seconds;
  const EngineStats repair_stats = repair_engine.stats();

  GraphStore rebuild_store{Graph(g)};
  const auto rebuild_start = Clock::now();
  for (int round = 0; round < update_rounds; ++round) {
    const GraphSnapshot snap = rebuild_store.apply(
        jitter_batch(*rebuild_store.snapshot().graph, round));
    FlowEngine fresh(Graph(*snap.graph), options);  // full build, the stall
  }
  const double rebuild_seconds = seconds_since(rebuild_start);
  const double rebuild_ups = update_rounds / rebuild_seconds;
  const double repair_speedup =
      repair_seconds > 0.0 ? rebuild_seconds / repair_seconds : 0.0;

  bench::print_row({"mode", "updates", "seconds", "updates/s", "speedup"});
  bench::print_row({"repair", bench::fmt_int(update_rounds),
                    bench::fmt(repair_seconds), bench::fmt(repair_ups, 1),
                    bench::fmt(repair_speedup, 2)});
  bench::print_row({"rebuild", bench::fmt_int(update_rounds),
                    bench::fmt(rebuild_seconds), bench::fmt(rebuild_ups, 1),
                    "-"});
  std::printf("repairs %lld/%lld completed/started, trees %lld resampled / "
              "%lld spliced (%.1f%% dirty)\n",
              static_cast<long long>(repair_stats.rebuild.repairs_completed),
              static_cast<long long>(repair_stats.rebuild.repairs_started),
              static_cast<long long>(repair_stats.rebuild.trees_repaired),
              static_cast<long long>(repair_stats.rebuild.trees_reused),
              100.0 * repair_stats.rebuild.trees_repaired /
                  std::max<std::int64_t>(
                      1, repair_stats.rebuild.trees_repaired +
                             repair_stats.rebuild.trees_reused));

  // --- E14d: teardown baseline (fresh engine per mutation + wave). ---
  bench::print_header("E14d", "teardown baseline (fresh engine per update)");
  bench::print_row({"round", "build+wave_s", "qps", "first_s"});
  GraphStore baseline_store{Graph(g)};
  const auto teardown_start = Clock::now();
  int teardown_ok = 0;
  double teardown_first_sum = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    const GraphSnapshot snap = baseline_store.apply(
        jitter_batch(*baseline_store.snapshot().graph, round));
    FlowEngine fresh(Graph(*snap.graph), options);  // the stall
    std::vector<MaxFlowTicket> tickets;
    for (const auto& [s, t] : pairs) {
      tickets.push_back(fresh.submit(MaxFlowQuery{s, t}));
    }
    int ok = 0;
    double first_seconds = 0.0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ok += tickets[i].get().ok() ? 1 : 0;
      if (i == 0) first_seconds = seconds_since(round_start);
    }
    teardown_ok += ok;
    teardown_first_sum += first_seconds;
    const double round_seconds = seconds_since(round_start);
    bench::print_row({bench::fmt_int(round), bench::fmt(round_seconds),
                      bench::fmt(ok / round_seconds, 1),
                      bench::fmt(first_seconds)});
  }
  const double teardown_seconds = seconds_since(teardown_start);
  const double teardown_qps = teardown_ok / teardown_seconds;
  const double teardown_first_mean = teardown_first_sum / rounds;

  // --- Post-swap correctness: the rolled engine vs a fresh build. ---
  // Every e14b refresh took the repair path, so this bitwise probe is
  // the repaired-hierarchy == full-rebuild identity on a live chain.
  const MaxFlowQuery probe_query{pairs[0].first, pairs[0].second};
  const Result<MaxFlowApproxResult> probe = engine.submit(probe_query).get();
  FlowEngine reference(Graph(*engine.snapshot().graph), options);
  const Result<MaxFlowApproxResult> want =
      reference.submit(probe_query).get();
  const bool post_swap_match =
      probe.ok() && want.ok() && probe.served_version == final_version &&
      probe.value().value == want.value().value &&
      probe.value().flow == want.value().flow;
  const double post_swap_ratio =
      probe.ok() && want.ok() && want.value().value > 0.0
          ? probe.value().value / want.value().value
          : 0.0;

  bench::print_header("E14", "summary");
  bench::print_row(
      {"mode", "queries", "seconds", "qps", "first_s", "speedup"});
  bench::print_row({"rolling", bench::fmt_int(rolling_ok),
                    bench::fmt(rolling_seconds), bench::fmt(rolling_qps, 1),
                    bench::fmt(rolling_first_mean),
                    bench::fmt(teardown_seconds / rolling_seconds, 2)});
  bench::print_row({"teardown", bench::fmt_int(teardown_ok),
                    bench::fmt(teardown_seconds), bench::fmt(teardown_qps, 1),
                    bench::fmt(teardown_first_mean), "-"});
  std::printf("capacity-update throughput: %.2fx the teardown baseline "
              "(repair path, e14c)\n", repair_speedup);
  std::printf("mutation-to-first-answer stall: %.2fx lower with "
              "background refresh\n",
              rolling_first_mean > 0.0
                  ? teardown_first_mean / rolling_first_mean
                  : 0.0);
  std::printf(
      "refreshes started %lld, completed %lld, failed %lld (repairs "
      "%lld); stale-served %lld of %lld; parked %lld\n",
      static_cast<long long>(rolled.rebuild.started),
      static_cast<long long>(rolled.rebuild.completed),
      static_cast<long long>(rolled.rebuild.failed),
      static_cast<long long>(rolled.rebuild.repairs_completed),
      static_cast<long long>(rolled.queries_served_stale),
      static_cast<long long>(rolled.queries_served),
      static_cast<long long>(rolled.queries_parked));
  std::printf("served during refreshes: %s; every round served: %s; "
              "post-swap matches fresh engine: %s\n",
              any_stale ? "yes" : "NO (refreshes landed between waves)",
              every_round_served ? "yes" : "NO",
              post_swap_match ? "yes (bitwise)" : "NO");

  artifact.add({{"scenario", "e14b_rolling_updates"},
                {"n", static_cast<int>(n)},
                {"queries", rolling_ok},
                {"rounds", rounds},
                {"throughput_qps", rolling_qps},
                {"speedup", teardown_seconds / rolling_seconds},
                {"first_result_s", rolling_first_mean},
                {"stale_served",
                 static_cast<long long>(rolled.queries_served_stale)},
                {"rebuilds_completed",
                 static_cast<long long>(rolled.rebuild.completed)},
                {"repairs_completed",
                 static_cast<long long>(rolled.rebuild.repairs_completed)},
                {"value_ratio", post_swap_ratio}});
  artifact.add({{"scenario", "e14c_repair_vs_rebuild"},
                {"n", static_cast<int>(n)},
                {"rounds", update_rounds},
                {"throughput_qps", repair_ups},
                {"rebuild_updates_per_s", rebuild_ups},
                {"speedup", repair_speedup},
                {"trees_repaired",
                 static_cast<long long>(repair_stats.rebuild.trees_repaired)},
                {"trees_reused",
                 static_cast<long long>(repair_stats.rebuild.trees_reused)},
                {"value_ratio", 1.0}});
  artifact.add({{"scenario", "e14d_teardown_baseline"},
                {"n", static_cast<int>(n)},
                {"queries", teardown_ok},
                {"rounds", rounds},
                {"throughput_qps", teardown_qps},
                {"first_result_s", teardown_first_mean},
                {"value_ratio", 1.0}});
  artifact.write();
  return every_round_served && post_swap_match ? 0 : 1;
}
