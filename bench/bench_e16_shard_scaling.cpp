// E16: sharded engine vs the single worker pool at a fixed workload.
//
// The workload is locality-friendly by construction: a small set of hot
// s-t pairs, each drawn from within one cluster of the snapshot's own
// ShardPlan (clusters are the unit of shard placement, so such a pair
// lands on one shard at EVERY shard count), and each pair repeated —
// the repeated-query shape a serving system actually sees. A sharded
// engine exploits both properties: the terminal router keeps each hot
// pair on one pinned single-worker lane, and that lane's generation-
// scoped result store replays repeats bitwise instead of recomputing.
// On a multi-core box the per-shard lanes additionally scale the
// compute; on a single-core runner the replay store carries the win —
// either way the `speedup` column is the machine-independent ratio the
// regression gate guards (acceptance bar: >= 2x at 4 shards).
//
// E16b sweeps the cross-shard fraction of the same shape at a fixed
// shard count: as more pairs straddle shards, more queries take the
// aggregate-through-the-top-levels path and the routing split shifts —
// informational rows (field `qps`, not `throughput_qps`), not gated.
//
//   ./bench_e16_shard_scaling [n] [distinct_pairs] [seed]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "engine/shard_plan.h"
#include "util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using dmf::NodeId;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WorkloadResult {
  double seconds = 0.0;
  std::vector<double> values;  // one per submission, submission order
  dmf::EngineStats stats;
};

// Submit `repeats` interleaved rounds of the pair set and collect every
// result. Every submission has the same priority, and a lane runs
// equal priorities first-in, first-out, so round r of a pair executes
// before round r+1 and repeats hit the replay store once the first
// round landed.
WorkloadResult run_pairs(dmf::FlowEngine& engine,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs,
                         int repeats) {
  WorkloadResult out;
  std::vector<dmf::MaxFlowTicket> tickets;
  tickets.reserve(pairs.size() * static_cast<std::size_t>(repeats));
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const auto& [s, t] : pairs) {
      tickets.push_back(engine.submit(dmf::MaxFlowQuery{s, t}));
    }
  }
  for (dmf::MaxFlowTicket& t : tickets) {
    const dmf::Result<dmf::MaxFlowApproxResult> r = t.get();
    out.values.push_back(r.ok() ? r.value().value : -1.0);
  }
  out.seconds = seconds_since(start);
  engine.wait_all();
  out.stats = engine.stats();
  return out;
}

// Mean current/reference value over all submissions: 1.0 exactly when
// the sharded backend reproduced the single pool bitwise.
double value_ratio(const std::vector<double>& current,
                   const std::vector<double>& reference) {
  double sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < current.size() && i < reference.size(); ++i) {
    if (current[i] > 0.0 && reference[i] > 0.0) {
      sum += current[i] / reference[i];
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 96;
  const int distinct = argc > 2 ? std::atoi(argv[2]) : 16;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1337;
  const int repeats = 8;

  Rng rng(seed);
  const Graph g = bench::make_family("torus", n, rng);
  bench::JsonArtifact artifact("BENCH_e16.json");

  // Hot pairs from within ShardPlan clusters: same-shard at any K.
  const ShardPlan plan = ShardPlan::build(g);
  std::vector<std::vector<NodeId>> cluster_nodes(
      static_cast<std::size_t>(plan.num_clusters));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    cluster_nodes[static_cast<std::size_t>(
                      plan.cluster[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  std::vector<std::vector<std::pair<NodeId, NodeId>>> cluster_pairs;
  for (const auto& nodes : cluster_nodes) {
    if (nodes.size() < 2) continue;
    auto& pairs = cluster_pairs.emplace_back();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        pairs.emplace_back(nodes[i], nodes[j]);
      }
    }
  }
  std::vector<std::pair<NodeId, NodeId>> hot_pairs;
  for (std::size_t round = 0;
       static_cast<int>(hot_pairs.size()) < distinct; ++round) {
    bool any = false;
    for (const auto& pairs : cluster_pairs) {
      if (round < pairs.size() &&
          static_cast<int>(hot_pairs.size()) < distinct) {
        hot_pairs.push_back(pairs[round]);
        any = true;
      }
    }
    if (!any) break;  // graph too small for `distinct` in-cluster pairs
  }
  const int total = static_cast<int>(hot_pairs.size()) * repeats;

  bench::print_header("E16", "sharded lanes vs single pool (hot pairs)");
  std::printf("  torus n=%d, %d clusters, %zu hot in-cluster pairs x %d "
              "repeats = %d queries\n",
              static_cast<int>(g.num_nodes()), plan.num_clusters,
              hot_pairs.size(), repeats, total);
  bench::print_row({"config", "seconds", "qps", "speedup", "local_frac",
                    "store_hits", "value_ratio"});

  EngineOptions base_options;
  base_options.sherman.num_trees = 6;
  base_options.seed = seed;

  // Reference: the classic mutexed pool at 4 threads, no replay store.
  WorkloadResult reference;
  double single_pool_qps = 0.0;
  {
    EngineOptions options = base_options;
    options.threads = 4;
    FlowEngine engine(g, options);  // build excluded from the timing
    reference = run_pairs(engine, hot_pairs, repeats);
    single_pool_qps = static_cast<double>(total) / reference.seconds;
    bench::print_row({"single_pool_t4", bench::fmt(reference.seconds),
                      bench::fmt(single_pool_qps, 1), "1.0", "-", "0",
                      "1.000"});
    artifact.add({{"scenario", "e16_single_pool"},
                  {"n", static_cast<int>(g.num_nodes())},
                  {"queries", total},
                  {"throughput_qps", single_pool_qps},
                  {"speedup", 1.0},
                  {"value_ratio", 1.0}});
  }

  for (const int shards : {1, 2, 4}) {
    EngineOptions options = base_options;
    options.shards = shards;
    FlowEngine engine(g, options);
    const WorkloadResult got = run_pairs(engine, hot_pairs, repeats);
    const double qps = static_cast<double>(total) / got.seconds;
    const double speedup = qps / single_pool_qps;
    const double ratio = value_ratio(got.values, reference.values);
    const auto routed = static_cast<double>(got.stats.queries_routed_local +
                                            got.stats.queries_routed_cross);
    const double local_frac =
        routed > 0.0
            ? static_cast<double>(got.stats.queries_routed_local) / routed
            : 0.0;
    bench::print_row(
        {"shards_k" + std::to_string(shards), bench::fmt(got.seconds),
         bench::fmt(qps, 1), bench::fmt(speedup, 2), bench::fmt(local_frac),
         bench::fmt_int(got.stats.result_store_hits), bench::fmt(ratio)});
    artifact.add({{"scenario", "e16_shard_k" + std::to_string(shards)},
                  {"n", static_cast<int>(g.num_nodes())},
                  {"queries", total},
                  {"throughput_qps", qps},
                  {"speedup", speedup},
                  {"value_ratio", ratio},
                  {"local_fraction", local_frac},
                  {"store_hit_rate",
                   total > 0 ? static_cast<double>(
                                   got.stats.result_store_hits) /
                                   static_cast<double>(total)
                             : 0.0},
                  {"shard_locality", got.stats.shard_locality}});
  }

  // --- E16b: cross-shard fraction sweep at a fixed shard count. ---
  // The pair set shifts from all-local to all-cross against the actual
  // K=4 assignment; informational (absolute qps, machine-dependent).
  bench::print_header("E16b", "cross-shard fraction sweep (4 shards)");
  bench::print_row({"target_cross", "seconds", "qps", "observed_cross",
                    "store_hit_rate"});
  {
    EngineOptions probe_options = base_options;
    probe_options.shards = 4;
    std::shared_ptr<const ShardAssignment> assignment;
    {
      FlowEngine probe(g, probe_options);
      assignment = probe.shard_assignment();
    }
    std::vector<std::pair<NodeId, NodeId>> cross_pairs;
    for (NodeId u = 0; u < g.num_nodes() &&
                       static_cast<int>(cross_pairs.size()) < distinct;
         ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1);
           v < g.num_nodes() &&
           static_cast<int>(cross_pairs.size()) < distinct;
           ++v) {
        if (assignment->shard_of(u) != assignment->shard_of(v)) {
          cross_pairs.emplace_back(u, v);
        }
      }
    }
    for (const double fraction : {0.0, 0.25, 0.5, 1.0}) {
      const int want_cross = std::min(
          static_cast<int>(cross_pairs.size()),
          static_cast<int>(fraction * static_cast<double>(hot_pairs.size()) +
                           0.5));
      std::vector<std::pair<NodeId, NodeId>> mixed;
      for (int i = 0; i < want_cross; ++i) {
        mixed.push_back(cross_pairs[static_cast<std::size_t>(i)]);
      }
      for (std::size_t i = mixed.size(); i < hot_pairs.size(); ++i) {
        mixed.push_back(hot_pairs[i]);
      }
      FlowEngine engine(g, probe_options);  // fresh store per point
      const WorkloadResult got = run_pairs(engine, mixed, repeats);
      const int point_total = static_cast<int>(mixed.size()) * repeats;
      const double qps = static_cast<double>(point_total) / got.seconds;
      const auto routed =
          static_cast<double>(got.stats.queries_routed_local +
                              got.stats.queries_routed_cross);
      const double observed_cross =
          routed > 0.0
              ? static_cast<double>(got.stats.queries_routed_cross) / routed
              : 0.0;
      const double hit_rate =
          point_total > 0
              ? static_cast<double>(got.stats.result_store_hits) /
                    static_cast<double>(point_total)
              : 0.0;
      bench::print_row({bench::fmt(fraction, 2), bench::fmt(got.seconds),
                        bench::fmt(qps, 1), bench::fmt(observed_cross),
                        bench::fmt(hit_rate)});
      artifact.add({{"scenario",
                     "e16b_cross_fraction_" + bench::fmt(fraction, 2)},
                    {"n", static_cast<int>(g.num_nodes())},
                    {"queries", point_total},
                    {"qps", qps},
                    {"cross_fraction", observed_cross},
                    {"store_hit_rate", hit_rate}});
    }
  }

  artifact.write();
  return 0;
}
