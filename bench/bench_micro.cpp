// E13: micro-benchmarks of the core data-structure operations
// (google-benchmark). These are the per-iteration costs behind the
// wall-clock of the pipeline: BFS, tree loads, R apply / R^T apply,
// LSST construction, an AlmostRoute iteration, and the exact baselines.
#include <benchmark/benchmark.h>

#include "baselines/dinic.h"
#include "capprox/approximator.h"
#include "capprox/hierarchy.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "lsst/akpw.h"
#include "maxflow/almost_route.h"
#include "util/rng.h"

namespace {

using namespace dmf;

Graph bench_graph(std::int64_t n) {
  Rng rng(static_cast<std::uint64_t>(n) * 2 + 1);
  return make_gnp_connected(static_cast<NodeId>(n),
                            4.0 / static_cast<double>(n), {1, 10}, rng);
}

void BM_BfsTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_bfs_tree(CsrGraph(g), 0).height);
  }
}
BENCHMARK(BM_BfsTree)->Arg(256)->Arg(1024)->Arg(4096);

// The same BFS over a CSR view packed once outside the loop; the delta
// against BM_BfsTree (which packs a view per call) is the pack.
void BM_CsrBfsTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CsrGraph csr(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_bfs_tree(csr, 0).height);
  }
}
BENCHMARK(BM_CsrBfsTree)->Arg(256)->Arg(1024)->Arg(4096);

// Publish-time cost of packing a snapshot's CSR view (what
// GraphStore::apply pays on a structural batch).
void BM_CsrBuild(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    const CsrGraph csr(g);
    benchmark::DoNotOptimize(csr.degree(0));
  }
}
BENCHMARK(BM_CsrBuild)->Arg(256)->Arg(1024)->Arg(4096);

// Weighted-degree sweep: per-node capacity accumulation over CSR rows.
void BM_CsrWeightedSweep(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const CsrGraph csr(g);
  for (auto _ : state) {
    double total = 0.0;
    for (NodeId v = 0; v < csr.num_nodes(); ++v) {
      total += csr.weighted_degree(v);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CsrWeightedSweep)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TreeEdgeLoads(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const RootedTree tree = bfs_spanning_tree(g, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree_edge_loads(g, tree).size());
  }
}
BENCHMARK(BM_TreeEdgeLoads)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AkpwLsst(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  const Multigraph mg = Multigraph::from_graph(g);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        akpw_low_stretch_tree(mg, PartitionOptions{}, rng).tree_edges.size());
  }
}
BENCHMARK(BM_AkpwLsst)->Arg(256)->Arg(1024);

void BM_SampleVirtualTree(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sample_virtual_tree(g, HierarchyOptions{}, rng).levels);
  }
}
BENCHMARK(BM_SampleVirtualTree)->Arg(256)->Arg(1024);

void BM_ApproximatorApply(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  Rng rng(13);
  const std::vector<VirtualTreeSample> samples =
      sample_virtual_trees(g, 8, HierarchyOptions{}, rng);
  const CongestionApproximator approx =
      CongestionApproximator::from_samples(samples);
  const std::vector<double> b =
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(approx.congestion_norm(b));
  }
}
BENCHMARK(BM_ApproximatorApply)->Arg(256)->Arg(1024)->Arg(4096);

// One AlmostRoute call per benchmark iteration: a unit s-t demand over
// 24 sampled virtual trees, as the Sherman s-t path serves it. The
// ns_per_iter counter divides the time by the gradient iterations run,
// so it is the per-iteration cost the soft-max passes dominate. One
// untimed call first pays the approximator's one-time cut grouping.
void BM_AlmostRouteIteration(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  Rng rng(17);
  const CongestionApproximator approx = CongestionApproximator::from_samples(
      sample_virtual_trees(g, 24, HierarchyOptions{}, rng));
  const std::vector<double> b =
      st_demand(g.num_nodes(), 0, g.num_nodes() - 1, 1.0);
  const CsrGraph csr(g);
  benchmark::DoNotOptimize(
      almost_route(csr, approx, b, AlmostRouteOptions{}).potential);
  double iterations = 0.0;
  for (auto _ : state) {
    const AlmostRouteResult r =
        almost_route(csr, approx, b, AlmostRouteOptions{});
    iterations += r.iterations;
    benchmark::DoNotOptimize(r.potential);
  }
  state.counters["ns_per_iter"] = benchmark::Counter(
      iterations * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AlmostRouteIteration)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_DinicExact(benchmark::State& state) {
  const Graph g = bench_graph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dinic_max_flow_value(g, 0, g.num_nodes() - 1));
  }
}
BENCHMARK(BM_DinicExact)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
