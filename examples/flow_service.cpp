// A long-lived flow service loop on the FlowEngine session API — the
// IN-PROCESS shape. For serving the same engine over the network (HTTP
// or binary frames, with admission control, tenant quotas, deadlines,
// and graceful drain) use the dmf-serve daemon in apps/dmf_serve.cpp;
// examples/http_client.cpp shows the client side of both protocols.
// This example stays valuable for what a network hop hides: direct
// Ticket handles, priorities, and cancellation from the caller's side.
//
// Models the ROADMAP's "heavy traffic" shape: a service thread keeps
// submitting work in waves while completions stream back out of order
// through callbacks, stats are polled mid-flight, a low-priority batch
// job coexists with high-priority interactive queries, stragglers are
// cancelled when their wave's deadline passes — and the graph itself
// changes underneath the traffic: every other wave applies a capacity
// update (MutationBatch), the hierarchy refreshes in the background
// while queries keep being served from the previous snapshot, and one
// read-your-writes probe per update parks on min_version until the
// fresh snapshot is servable.
//
// The engine runs sharded (EngineOptions::shards): each query is routed
// by a hash of its content to a lane of the worker pool, each with one
// pinned worker, and the final report prints the per-shard breakdown —
// executed count and replay-store hits.
// Results are bitwise identical to shards = 0; pass 0 to compare.
//
//   ./example_flow_service [n] [waves] [wave_queries] [threads] [seed]
//                          [shards]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace dmf;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 200;
  const int waves = argc > 2 ? std::atoi(argv[2]) : 4;
  const int wave_queries = argc > 3 ? std::atoi(argv[3]) : 12;
  const int threads = argc > 4 ? std::atoi(argv[4]) : 0;
  const std::uint64_t seed =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 99;
  const int shards = argc > 6 ? std::atoi(argv[6]) : 2;

  Rng rng(seed);
  const Graph g = make_gnp_connected(n, 3.5 / n, {1, 16}, rng);
  EngineOptions options;
  options.threads = threads;
  options.seed = seed;
  options.shards = shards;
  FlowEngine engine(g, options);
  std::printf("service up: %s; %d trees, built in %.3fs; %s\n",
              g.summary().c_str(), engine.stats().num_trees,
              engine.stats().build_seconds,
              shards > 0 ? "one lane per shard" : "single worker pool");

  // A background batch job at low priority: it only runs when the
  // interactive waves leave workers idle. Completion lands in a callback.
  std::atomic<int> background_done{0};
  std::vector<MultiTerminalTicket> background;
  for (int d = 0; d < 3; ++d) {
    background.push_back(engine.submit(
        MultiTerminalQuery{{static_cast<NodeId>(d),
                            static_cast<NodeId>(d + 1)},
                           {static_cast<NodeId>(n - 1 - d),
                            static_cast<NodeId>(n - 2 - d)}},
        [&background_done](const Result<MultiTerminalMaxFlowResult>& r) {
          if (r.ok()) background_done.fetch_add(1);
        },
        SubmitOptions{/*priority=*/-10}));
  }

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  double value_sum = 0.0;  // only touched after wait_all
  std::vector<MaxFlowTicket> fresh_probes;  // min_version read-your-writes
  for (int wave = 0; wave < waves; ++wave) {
    // Live reconfiguration: every other wave bumps a few capacities.
    // apply() returns immediately — the hierarchy rebuild runs on the
    // pool while this wave's queries are served from the previous
    // snapshot (their results carry served_version).
    if (wave % 2 == 1) {
      MutationBatch update;
      for (int k = 0; k < 4; ++k) {
        const auto e = static_cast<EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
        update.set_capacity(e, 1.0 + static_cast<double>(
                                         rng.next_below(16)));
      }
      const ApplyResult applied = engine.apply(update);
      const GraphVersion v = applied.version;
      std::printf("wave %d: applied capacity update -> v%llu (%s, %d/%d "
                  "trees dirty; serving v%llu meanwhile)\n",
                  wave, static_cast<unsigned long long>(v),
                  applied.plan == RebuildPlan::kTreeRepair   ? "tree repair"
                  : applied.plan == RebuildPlan::kNoOp       ? "no-op"
                                                             : "full rebuild",
                  applied.trees_dirty, applied.trees_total,
                  static_cast<unsigned long long>(engine.serving_version()));
      // Read-your-writes: this probe parks until v is servable, then
      // runs against the updated snapshot.
      SubmitOptions fresh_only;
      fresh_only.min_version = v;
      fresh_probes.push_back(
          engine.submit(MaxFlowQuery{0, static_cast<NodeId>(n - 1)},
                        fresh_only));
    }
    std::vector<MaxFlowTicket> inflight;
    std::atomic<int> wave_completed{0};
    for (int i = 0; i < wave_queries; ++i) {
      const NodeId s = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      NodeId t = s;
      while (t == s) {
        t = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(n)));
      }
      // Interactive traffic outranks the background job; completions
      // stream through the callback as workers finish, in whatever order
      // the pool reaches them.
      inflight.push_back(engine.submit(
          MaxFlowQuery{s, t},
          [&completed, &failed, &wave_completed](
              const Result<MaxFlowApproxResult>& r) {
            if (r.ok()) {
              completed.fetch_add(1);
            } else if (r.code != ErrorCode::kCancelled) {
              failed.fetch_add(1);
            }
            wave_completed.fetch_add(1);
          },
          SubmitOptions{/*priority=*/wave}));
    }
    // Poll mid-wave, like a metrics endpoint would.
    const EngineStats mid = engine.stats();
    std::printf(
        "wave %d: %d submitted, %d of them already done; served so far "
        "%lld, cache %lld/%lld hit/miss\n",
        wave, wave_queries, wave_completed.load(),
        static_cast<long long>(mid.queries_served),
        static_cast<long long>(mid.hierarchy_cache_hits),
        static_cast<long long>(mid.hierarchy_cache_misses));
    // Deadline: cancel the back half of the wave if it has not started
    // yet — a stand-in for request timeouts. Cancelled tickets resolve
    // with ErrorCode::kCancelled instead of hanging around.
    int cancelled_in_wave = 0;
    if (wave % 2 == 1) {
      for (std::size_t i = inflight.size() / 2; i < inflight.size(); ++i) {
        if (inflight[i].cancel()) ++cancelled_in_wave;
      }
    }
    for (MaxFlowTicket& ticket : inflight) {
      Result<MaxFlowApproxResult> r = ticket.get();
      if (r.ok()) value_sum += r.value().value;
    }
    if (cancelled_in_wave > 0) {
      std::printf("wave %d: cancelled %d queued stragglers\n", wave,
                  cancelled_in_wave);
    }
  }

  engine.wait_all();  // background job and parked probes included
  for (MultiTerminalTicket& ticket : background) {
    Result<MultiTerminalMaxFlowResult> r = ticket.get();
    if (r.ok()) value_sum += r.value().value;
  }
  for (MaxFlowTicket& ticket : fresh_probes) {
    Result<MaxFlowApproxResult> r = ticket.get();
    if (r.ok()) {
      std::printf("read-your-writes probe served from v%llu: value %.3f\n",
                  static_cast<unsigned long long>(r.served_version),
                  r.value().value);
    }
  }

  const EngineStats stats = engine.stats();
  std::printf("\nshutting down: %d interactive ok, %d failed, %d background "
              "ok, value sum %.3f\n",
              completed.load(), failed.load(), background_done.load(),
              value_sum);
  std::printf("served %lld (stale %lld, parked %lld), cancelled %lld, "
              "amortized build %.4fs/query\n",
              static_cast<long long>(stats.queries_served),
              static_cast<long long>(stats.queries_served_stale),
              static_cast<long long>(stats.queries_parked),
              static_cast<long long>(stats.queries_cancelled),
              stats.amortized_build_seconds_per_query());
  std::printf("graph versions: serving v%llu of latest v%llu; refreshes "
              "%lld/%lld completed/started in %.3fs total, of which %lld "
              "repairs (%lld trees resampled, %lld reused)\n",
              static_cast<unsigned long long>(stats.serving_version),
              static_cast<unsigned long long>(stats.latest_version),
              static_cast<long long>(stats.rebuild.completed),
              static_cast<long long>(stats.rebuild.started),
              stats.rebuild.seconds_total,
              static_cast<long long>(stats.rebuild.repairs_completed),
              static_cast<long long>(stats.rebuild.trees_repaired),
              static_cast<long long>(stats.rebuild.trees_reused));
  if (stats.num_shards > 0) {
    std::printf("sharding: %d shards, replay store %lld/%lld hit/miss\n",
                stats.num_shards,
                static_cast<long long>(stats.result_store_hits),
                static_cast<long long>(stats.result_store_misses));
    for (const ShardStats& shard : stats.shards) {
      std::printf("  shard %d: executed %lld, store hits %lld\n", shard.shard,
                  static_cast<long long>(shard.executed),
                  static_cast<long long>(shard.result_store_hits));
    }
  }
  return 0;
}
