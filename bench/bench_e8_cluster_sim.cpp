// E8 (Lemma 5.1): cost of simulating one cluster-graph round on the real
// message-passing simulator. The lemma's bound is O(D + sqrt(n)) per
// round (intra-cluster trees + pipelined handling of large clusters);
// measured rounds must track 2*depth + O(1), and the pipelined-broadcast
// column validates the D + k pipelining fact the lemma rests on.
#include "bench_util.h"
#include "cluster/cluster_graph.h"
#include "congest/programs.h"
#include "graph/algorithms.h"

namespace {

std::vector<int> stripes(int width, int height, int stripe) {
  std::vector<int> cluster(static_cast<std::size_t>(width) * height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      cluster[static_cast<std::size_t>(y * width + x)] = x / stripe;
    }
  }
  return cluster;
}

}  // namespace

int main() {
  using namespace dmf;
  using namespace dmf::bench;

  print_header("E8a", "cluster-round cost vs cluster depth (grid stripes)");
  print_row({"grid", "clusters", "depth", "rounds", "2*depth+6"});
  Rng rng(8000);
  for (const int side : {8, 12, 16, 20}) {
    const Graph g = make_grid(side, side, {1, 3}, rng);
    const int stripe = side / 4;
    const ClusterGraph cg = make_cluster_graph(g, stripes(side, side, stripe));
    const ClusterExchangeResult result = simulate_cluster_exchange(
        cg, std::vector<double>(cg.count, 1.0));
    print_row({std::to_string(side) + "x" + std::to_string(side),
               fmt_int(cg.count), fmt_int(cg.max_tree_depth()),
               fmt_int(result.stats.rounds),
               fmt_int(2 * cg.max_tree_depth() + 6)});
  }

  print_header("E8b", "pipelined broadcast: rounds vs D + k");
  print_row({"path_n", "k", "rounds", "D+k+4"});
  for (const int n : {40, 80}) {
    for (const int k : {10, 40}) {
      const Graph g = make_path(n, {1, 1}, rng);
      const congest::DistributedBfsResult bfs =
          congest::run_distributed_bfs(g, 0);
      const auto children = congest::children_ports_from_bfs(g, bfs);
      const CsrGraph csr(g);
      congest::Network net(csr);
      std::vector<congest::PipelinedBroadcastProgram> programs;
      std::vector<std::int64_t> tokens(static_cast<std::size_t>(k), 7);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        congest::PipelinedBroadcastProgram::Config config;
        config.is_root = (v == 0);
        config.parent_port = bfs.parent_port[static_cast<std::size_t>(v)];
        config.children_ports = children[static_cast<std::size_t>(v)];
        if (config.is_root) config.tokens = tokens;
        programs.emplace_back(std::move(config));
      }
      const congest::RunStats stats = net.run(programs);
      print_row({fmt_int(n), fmt_int(k), fmt_int(stats.rounds),
                 fmt_int((n - 1) + k + 4)});
    }
  }
  std::printf("\nexpected shape: measured rounds track the bounds with "
              "small additive constants (never multiplicative blowup).\n");
  return 0;
}
