// E1 (Theorem 1.1): round complexity of the full pipeline vs the
// distributed push-relabel strawman and the trivial O(m) collect-all
// baseline, as n grows.
//
// The paper's claim is asymptotic: (D + sqrt(n)) n^o(1) eps^-3 rounds
// against Omega(n^2) for push-relabel and O(m) for collecting the
// topology. At laptop scale the n^o(1) polylogs dominate the pipeline's
// absolute counts, so the honest presentation is the *growth rate*: the
// table reports seed-averaged rounds and the log-log slope across the
// whole size range. Push-relabel is measured on its classic bad case
// (a high-capacity path feeding a unit bottleneck: almost all injected
// excess must be drained back, forcing Theta(n^2) pulse work); the
// pipeline runs on the same instances.
//
// CongestSim v2 regenerated these curves at 10x the node counts the
// sequential simulator could reach: E1a now runs to n = 640 (was 64),
// dispatched through FlowEngine::submit(CongestQuery) like any other
// engine workload. E1c measures the simulator itself — the flat
// arena + worklist core vs the committed sequential reference at equal
// (bitwise) transcripts — and emits the gated rounds/sec record.
//
//   ./bench_e1_round_complexity [pushrel_max_n] [compare_n] [seed]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "congest/push_relabel_dist.h"
#include "congest/reference_network.h"
#include "engine/engine.h"
#include "graph/algorithms.h"
#include "maxflow/sherman.h"
#include "util/stats.h"

namespace {

using namespace dmf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Path with generous capacities and a unit bottleneck at the sink side.
Graph bottleneck_path(NodeId n, Rng& rng) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    const bool last = (v + 2 == n);
    g.add_edge(v, v + 1,
               last ? 1.0 : static_cast<double>(rng.next_int(8, 12)));
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmf::bench;
  const NodeId pushrel_max_n = argc > 1 ? std::atoi(argv[1]) : 640;
  const NodeId compare_n = argc > 2 ? std::atoi(argv[2]) : 320;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 100;

  JsonArtifact artifact("BENCH_e1.json");

  print_header("E1a",
               "push-relabel rounds on the bottleneck path "
               "(FlowEngine CongestQuery)");
  print_row({"n", "D", "m", "pushrel_mean", "pushrel/n^2", "sim_rounds/s"});
  std::vector<double> pr_sizes;
  std::vector<double> pr_rounds;
  for (const NodeId n : {80, 160, 320, 640}) {
    if (n > pushrel_max_n) break;
    const int trials = n >= 320 ? 2 : 3;
    Summary rounds;
    double sim_seconds = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(seed + static_cast<std::uint64_t>(n) +
              static_cast<std::uint64_t>(trial));
      Graph g = bottleneck_path(n, rng);
      // Round-complexity queries dispatch through the engine like any
      // other workload: the registry routes them to the simulator.
      EngineOptions options;
      options.threads = 1;
      options.sherman.num_trees = 4;
      options.seed = seed;
      FlowEngine engine(std::move(g), options);
      const auto start = Clock::now();
      const Result<CongestRunResult> result =
          engine.submit(CongestQuery{0, n - 1}).get();
      sim_seconds += seconds_since(start);
      if (!result.ok()) {
        std::fprintf(stderr, "E1a query failed: %s\n",
                     result.message.c_str());
        return 1;
      }
      rounds.add(static_cast<double>(result->stats.rounds));
    }
    pr_sizes.push_back(static_cast<double>(n));
    pr_rounds.push_back(rounds.mean());
    const double rounds_per_sec =
        rounds.mean() * trials / std::max(1e-9, sim_seconds);
    print_row({fmt_int(n), fmt_int(n - 1), fmt_int(n - 1),
               fmt(rounds.mean(), 0),
               fmt(rounds.mean() / (static_cast<double>(n) * n), 3),
               fmt(rounds_per_sec, 0)});
    artifact.add({{"scenario", "e1a_pushrel_n" + std::to_string(n)},
                  {"n", static_cast<long long>(n)},
                  {"rounds_mean", rounds.mean()},
                  {"rounds_per_n2",
                   rounds.mean() / (static_cast<double>(n) * n)},
                  {"sim_rounds_per_s", rounds_per_sec}});
  }
  if (pr_rounds.size() < 2) {
    std::fprintf(stderr,
                 "E1a needs at least two sizes (pushrel_max_n >= 160) for "
                 "a growth exponent\n");
    return 1;
  }
  const double pr_slope =
      std::log(pr_rounds.back() / pr_rounds.front()) /
      std::log(pr_sizes.back() / pr_sizes.front());

  // A note on dispersion (the former "e1b anomaly"): the route phase's
  // AlmostRoute gradient-iteration count is heavily conditioned on the
  // sampled hierarchy — across seeds at the SAME n it swings by up to
  // ~8x (e.g. 3.5k vs 18.9k iterations at n=64), while the hierarchy
  // BUILD rounds are smooth and monotone in n. The old seed-averaged
  // mean over 2-3 trials was therefore dominated by which seeds drew a
  // well- or ill-conditioned hierarchy, and came out wildly
  // non-monotone (15.3M -> 7.4M -> 90.3M -> 28.7M -> 100.9M). The
  // honest estimator is the MEDIAN over more seeds, with the spread
  // reported alongside and the build rounds (the smooth component)
  // broken out.
  print_header("E1b", "pipeline rounds vs n (grid family, seed-median)");
  print_row({"n", "D", "m(trivial)", "pipeline_med", "min..max",
             "build_mean", "D+sqrt(n)"});
  std::vector<double> pl_sizes;
  std::vector<double> pl_rounds;
  for (const NodeId n : {64, 144, 256, 400, 576}) {
    std::vector<double> rounds;
    Summary build_rounds;
    int diameter = 0;
    EdgeId m = 0;
    const int trials = n >= 400 ? 3 : 5;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(1000 + static_cast<std::uint64_t>(n) +
              static_cast<std::uint64_t>(trial));
      const Graph g = make_family("grid", n, rng);
      diameter = diameter_double_sweep(CsrGraph(g));
      m = g.num_edges();
      ShermanOptions options;
      options.epsilon = 0.4;
      options.almost_route.epsilon = 0.4;
      options.num_trees = 6;
      const ShermanSolver solver(g, options, rng);
      const MaxFlowApproxResult flow = solver.max_flow(0, g.num_nodes() - 1);
      rounds.push_back(flow.rounds);
      build_rounds.add(solver.build_rounds());
    }
    const double rounds_median = median(rounds);
    const double rounds_min = *std::min_element(rounds.begin(), rounds.end());
    const double rounds_max = *std::max_element(rounds.begin(), rounds.end());
    pl_sizes.push_back(static_cast<double>(n));
    pl_rounds.push_back(rounds_median);
    print_row({fmt_int(n), fmt_int(diameter), fmt_int(m),
               fmt(rounds_median, 0),
               fmt(rounds_min / 1e6, 1) + ".." + fmt(rounds_max / 1e6, 1) +
                   "M",
               fmt(build_rounds.mean(), 0),
               fmt(diameter + std::sqrt(static_cast<double>(n)), 1)});
    artifact.add({{"scenario", "e1b_pipeline_n" + std::to_string(n)},
                  {"n", static_cast<long long>(n)},
                  {"diameter", static_cast<long long>(diameter)},
                  {"trials", trials},
                  {"pipeline_rounds_median", rounds_median},
                  {"pipeline_rounds_min", rounds_min},
                  {"pipeline_rounds_max", rounds_max},
                  {"build_rounds_mean", build_rounds.mean()},
                  {"d_plus_sqrt_n",
                   diameter + std::sqrt(static_cast<double>(n))}});
  }
  const double pl_slope =
      std::log(pl_rounds.back() / pl_rounds.front()) /
      std::log(pl_sizes.back() / pl_sizes.front());

  print_header("E1c",
               "simulator throughput: flat arenas + worklist vs the "
               "sequential reference (equal transcripts)");
  print_row({"n", "rounds", "flat_s", "ref_s", "flat_r/s", "ref_r/s",
             "speedup", "transcripts"});
  {
    Rng rng(seed + 7);
    const Graph g = bottleneck_path(compare_n, rng);
    const NodeId source = 0;
    const NodeId sink = compare_n - 1;
    const congest::RunOptions run_options =
        congest::push_relabel_run_options(compare_n,
                                          {0, /*threads=*/1});
    const auto make_programs = [&] {
      std::vector<congest::PushRelabelProgram> programs;
      programs.reserve(static_cast<std::size_t>(compare_n));
      for (NodeId v = 0; v < compare_n; ++v) {
        programs.emplace_back(
            congest::PushRelabelProgram::Config{source, sink});
      }
      return programs;
    };

    // Flat simulator (CongestSim v2), single thread for a like-for-like
    // architecture comparison. The flat core finishes a run in
    // milliseconds, so the gated timing spans kRepeats runs to stay
    // well above scheduler noise (every run is bitwise identical — the
    // loop double-checks).
    constexpr int kRepeats = 20;
    const CsrGraph csr(g);
    congest::Network flat(csr);
    auto warm = make_programs();  // one warm-up run off the clock
    (void)flat.run(warm, run_options);
    auto flat_programs = make_programs();
    const auto flat_start = Clock::now();
    congest::RunStats flat_stats = flat.run(flat_programs, run_options);
    for (int repeat = 1; repeat < kRepeats; ++repeat) {
      flat_programs = make_programs();
      const congest::RunStats again = flat.run(flat_programs, run_options);
      if (again.transcript_hash != flat_stats.transcript_hash) {
        std::fprintf(stderr, "E1c: repeated flat runs diverged\n");
        return 1;
      }
    }
    const double flat_seconds =
        seconds_since(flat_start) / static_cast<double>(kRepeats);

    // Committed sequential reference (ragged inboxes, full scans).
    congest::ReferenceNetwork reference(g);
    auto ref_programs = make_programs();
    const auto ref_start = Clock::now();
    const congest::RunStats ref_stats =
        reference.run(ref_programs, run_options);
    const double ref_seconds = seconds_since(ref_start);

    const bool equal =
        flat_stats.transcript_hash == ref_stats.transcript_hash &&
        flat_stats.rounds == ref_stats.rounds &&
        flat_stats.messages == ref_stats.messages;
    if (!equal) {
      std::fprintf(stderr,
                   "E1c: simulator transcripts DIVERGED (flat %d rounds "
                   "%llx vs ref %d rounds %llx)\n",
                   flat_stats.rounds,
                   static_cast<unsigned long long>(
                       flat_stats.transcript_hash),
                   ref_stats.rounds,
                   static_cast<unsigned long long>(
                       ref_stats.transcript_hash));
      return 1;
    }
    const double flat_rps =
        static_cast<double>(flat_stats.rounds) / std::max(1e-9, flat_seconds);
    const double ref_rps =
        static_cast<double>(ref_stats.rounds) / std::max(1e-9, ref_seconds);
    const double speedup = flat_rps / std::max(1e-9, ref_rps);
    print_row({fmt_int(compare_n), fmt_int(flat_stats.rounds),
               fmt(flat_seconds, 3), fmt(ref_seconds, 3), fmt(flat_rps, 0),
               fmt(ref_rps, 0), fmt(speedup, 1), equal ? "EQUAL" : "DIFF"});
    // The gated record: simulator throughput in rounds/sec, compared by
    // scripts/check_bench_regression.py like the E13/E14 qps fields.
    artifact.add({{"scenario", "e1_sim_throughput"},
                  {"n", static_cast<long long>(compare_n)},
                  {"rounds", static_cast<long long>(flat_stats.rounds)},
                  {"throughput_qps", flat_rps},
                  {"reference_rounds_per_s", ref_rps},
                  {"speedup_vs_reference", speedup},
                  {"transcripts_equal", equal ? 1 : 0}});
  }

  std::printf("\nend-to-end log-log growth exponents:\n");
  std::printf("  push-relabel (bottleneck path): %.2f  (theory: ~2)\n",
              pr_slope);
  std::printf("  pipeline (grid):                %.2f  (theory: ~0.5-1 from "
              "D+sqrt(n); iteration count is n^o(1))\n",
              pl_slope);
  std::printf("\nexpected shape: the pipeline's exponent is well below "
              "push-relabel's; its absolute counts at laptop n are "
              "dominated by the n^o(1) polylog factors (see "
              "EXPERIMENTS.md for the crossover discussion).\n");
  artifact.add({{"scenario", "e1_slopes"},
                {"pushrel_loglog_slope", pr_slope},
                {"pipeline_loglog_slope", pl_slope}});
  artifact.write();
  return 0;
}
