// Tests for the CONGEST simulator and the primitive node programs:
// correctness of the computed structures AND the round bounds the paper's
// cost accounting relies on.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>

#include "baselines/dinic.h"
#include "congest/ledger.h"
#include "congest/network.h"
#include "congest/programs.h"
#include "congest/push_relabel_dist.h"
#include "congest/reference_network.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dmf::congest {
namespace {

TEST(Network, BandwidthBudgetEnforced) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);

  struct Oversender {
    void start(NodeContext& ctx) {
      if (ctx.id() == 0) {
        Message big;
        big.words.assign(kMaxWordsPerMessage + 1, 0);
        ctx.send(0, big);
      }
    }
    void round(NodeContext&) {}
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<Oversender> programs(2);
  EXPECT_THROW(net.run(programs), RequirementError);
}

TEST(Network, OneMessagePerEdgePerRound) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);

  struct DoubleSender {
    void start(NodeContext& ctx) {
      if (ctx.id() == 0) {
        ctx.send(0, Message{1});
        ctx.send(0, Message{2});  // must throw
      }
    }
    void round(NodeContext&) {}
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<DoubleSender> programs(2);
  EXPECT_THROW(net.run(programs), RequirementError);
}

TEST(Network, QuiescenceStopsRun) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  struct Silent {
    void start(NodeContext&) {}
    void round(NodeContext&) {}
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<Silent> programs(2);
  const RunStats stats = net.run(programs);
  // The two quiet rounds ARE stepped (programs observe their empty
  // inboxes) and counted before the quiescence stop.
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.messages, 0);
}

TEST(Network, DeterministicTranscripts) {
  Rng rng(101);
  const Graph g = make_gnp_connected(40, 0.1, {1, 5}, rng);
  const DistributedBfsResult a = run_distributed_bfs(g, 7);
  const DistributedBfsResult b = run_distributed_bfs(g, 7);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.parent_port, b.parent_port);
}

TEST(DistributedBfs, DepthsMatchCentralizedBfs) {
  Rng rng(103);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = make_gnp_connected(50, 0.08, {1, 3}, rng);
    const NodeId root = static_cast<NodeId>(rng.next_below(50));
    const DistributedBfsResult dist = run_distributed_bfs(g, root);
    const std::vector<int> expected = bfs_distances(CsrGraph(g), root);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(dist.depth[static_cast<std::size_t>(v)],
                expected[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(DistributedBfs, RoundsProportionalToEccentricity) {
  Rng rng(107);
  const Graph g = make_path(60, {1, 1}, rng);
  const DistributedBfsResult result = run_distributed_bfs(g, 0);
  // BFS over a path of 60 nodes: information must travel 59 hops. The
  // last node adopts (and halts) in round 59 and the run ends all-halted
  // — no quiet rounds are appended.
  EXPECT_EQ(result.stats.rounds, 59);
  EXPECT_TRUE(result.stats.all_halted);
  // On a path every rebroadcast goes strictly down the chain, so no
  // message ever lands on a halted node.
  EXPECT_EQ(result.stats.messages_dropped, 0);
}

TEST(DistributedBfs, ParentPortsFormTree) {
  Rng rng(109);
  const Graph g = make_grid(6, 6, {1, 1}, rng);
  const DistributedBfsResult result = run_distributed_bfs(g, 0);
  const CsrGraph csr(g);
  int roots = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (result.parent_port[static_cast<std::size_t>(v)] == kNoPort) {
      ++roots;
    } else {
      const NodeId p =
          csr.neighbors(v).to(result.parent_port[static_cast<std::size_t>(v)]);
      EXPECT_EQ(result.depth[static_cast<std::size_t>(v)],
                result.depth[static_cast<std::size_t>(p)] + 1);
    }
  }
  EXPECT_EQ(roots, 1);
}

TEST(FloodMax, ElectsMaximumId) {
  Rng rng(113);
  const Graph g = make_gnp_connected(30, 0.1, {1, 1}, rng);
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<FloodMaxProgram> programs(30);
  net.run(programs);
  for (const auto& p : programs) EXPECT_EQ(p.leader(), 29);
}

TEST(ConvergecastSum, ComputesGlobalSum) {
  Rng rng(127);
  const Graph g = make_gnp_connected(40, 0.1, {1, 4}, rng);
  const DistributedBfsResult bfs = run_distributed_bfs(g, 5);
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<ConvergecastSumProgram> programs;
  double expected = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double value = static_cast<double>(v) * 0.25;
    expected += value;
    programs.emplace_back(ConvergecastSumProgram::Config{
        v == 5, bfs.parent_port[static_cast<std::size_t>(v)], value});
  }
  const RunStats stats = net.run(programs);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_NEAR(programs[5].result(), expected, 1e-4);
}

TEST(ConvergecastSum, RoundsProportionalToDepth) {
  Rng rng(131);
  const Graph g = make_path(50, {1, 1}, rng);
  const DistributedBfsResult bfs = run_distributed_bfs(g, 0);
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<ConvergecastSumProgram> programs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.emplace_back(ConvergecastSumProgram::Config{
        v == 0, bfs.parent_port[static_cast<std::size_t>(v)], 1.0});
  }
  const RunStats stats = net.run(programs);
  EXPECT_NEAR(programs[0].result(), 50.0, 1e-4);
  // Depth-49 chain: the leaf reports in round 1, each level forwards one
  // round later, the root folds in round 50 and the run ends all-halted.
  EXPECT_EQ(stats.rounds, 50);
  EXPECT_TRUE(stats.all_halted);
}

TEST(PipelinedBroadcast, AllTokensReachAllNodes) {
  Rng rng(137);
  const Graph g = make_grid(5, 5, {1, 1}, rng);
  const DistributedBfsResult bfs = run_distributed_bfs(g, 0);
  auto children = children_ports_from_bfs(g, bfs);
  const int k = 12;
  std::vector<std::int64_t> tokens(k);
  std::iota(tokens.begin(), tokens.end(), 100);

  const CsrGraph csr(g);
  Network net(csr);
  std::vector<PipelinedBroadcastProgram> programs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    PipelinedBroadcastProgram::Config config;
    config.is_root = (v == 0);
    config.parent_port = bfs.parent_port[static_cast<std::size_t>(v)];
    config.children_ports = std::move(children[static_cast<std::size_t>(v)]);
    if (config.is_root) config.tokens = tokens;
    programs.emplace_back(std::move(config));
  }
  RunOptions options;
  options.quiet_rounds_to_stop = 2;
  const RunStats stats = net.run(programs, options);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(programs[static_cast<std::size_t>(v)].received_tokens(), tokens)
        << "node " << v;
  }
  // Pipelining bound: depth + k + small constant (quiescence detection
  // adds the quiet rounds).
  const int depth = *std::max_element(bfs.depth.begin(), bfs.depth.end());
  EXPECT_LE(stats.rounds, depth + k + 4);
}

TEST(PipelinedBroadcast, PathPipelineBound) {
  // Over a path (depth n-1), k tokens must take ~ depth + k rounds, NOT
  // depth * k — this is the pipelining fact Lemma 5.1 builds on.
  Rng rng(139);
  const int n = 40;
  const Graph g = make_path(n, {1, 1}, rng);
  const DistributedBfsResult bfs = run_distributed_bfs(g, 0);
  auto children = children_ports_from_bfs(g, bfs);
  const int k = 30;
  std::vector<std::int64_t> tokens(k);
  std::iota(tokens.begin(), tokens.end(), 0);
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<PipelinedBroadcastProgram> programs;
  for (NodeId v = 0; v < n; ++v) {
    PipelinedBroadcastProgram::Config config;
    config.is_root = (v == 0);
    config.parent_port = bfs.parent_port[static_cast<std::size_t>(v)];
    config.children_ports = std::move(children[static_cast<std::size_t>(v)]);
    if (config.is_root) config.tokens = tokens;
    programs.emplace_back(std::move(config));
  }
  const RunStats stats = net.run(programs);
  EXPECT_EQ(programs[n - 1].received_tokens().size(),
            static_cast<std::size_t>(k));
  // Last token: injected in round k - 1, arrives after n - 1 hops; the
  // run then steps the two default quiet rounds before stopping.
  EXPECT_EQ(stats.rounds, (n - 1) + (k - 1) + 2);
}

TEST(DistributedPushRelabel, MatchesDinicOnSmallGraphs) {
  Rng rng(149);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = make_gnp_connected(14, 0.3, {1, 6}, rng);
    const NodeId s = 0;
    const NodeId t = g.num_nodes() - 1;
    const double exact = dinic_max_flow_value(g, s, t);
    const DistributedPushRelabelResult result =
        run_distributed_push_relabel(CsrGraph(g), s, t);
    EXPECT_NEAR(result.flow_value, exact, 1e-4) << "trial " << trial;
  }
}

TEST(DistributedPushRelabel, PathInstance) {
  Rng rng(151);
  Graph g(5);
  g.add_edge(0, 1, 7.0);
  g.add_edge(1, 2, 4.0);
  g.add_edge(2, 3, 9.0);
  g.add_edge(3, 4, 6.0);
  const DistributedPushRelabelResult result =
      run_distributed_push_relabel(CsrGraph(g), 0, 4);
  EXPECT_NEAR(result.flow_value, 4.0, 1e-6);
  (void)rng;
}

TEST(DistributedPushRelabel, BarbellNeedsManyRounds) {
  // The barbell is the classic hard case: excess must be drained back
  // over the bridge, forcing many relabels.
  Rng rng(157);
  const Graph g = make_barbell(6, {10, 10}, 2.0, rng);
  const NodeId s = 0;
  const NodeId t = g.num_nodes() - 1;
  const CsrGraph csr(g);
  const DistributedPushRelabelResult result =
      run_distributed_push_relabel(csr, s, t);
  EXPECT_NEAR(result.flow_value, 2.0, 1e-4);
  // Far more rounds than the diameter (3): this is the phenomenon from
  // §1.2 that motivates the paper.
  EXPECT_GT(result.stats.rounds, 10 * diameter_exact(csr));
}


// --- CongestSim v2: message-semantics regressions ---------------------------

TEST(Network, CountsMessagesDroppedAtHaltedNodes) {
  // Regression: v1 moved messages into halted nodes' inboxes and
  // reported all_halted = true with no trace of the lost delivery.
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  struct SendAndHalt {
    void start(NodeContext& ctx) {
      if (ctx.id() == 0) ctx.send(0, Message{42});
      ctx.halt();
    }
    void round(NodeContext&) {}
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<SendAndHalt> programs(2);
  const RunStats stats = net.run(programs);
  EXPECT_TRUE(stats.all_halted);
  EXPECT_EQ(stats.messages, 1);
  EXPECT_EQ(stats.messages_dropped, 1);
}

TEST(Network, RequireDeliveryFailsLoudlyOnDrop) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  struct SendAndHalt {
    void start(NodeContext& ctx) {
      if (ctx.id() == 0) ctx.send(0, Message{42});
      ctx.halt();
    }
    void round(NodeContext&) {}
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<SendAndHalt> programs(2);
  RunOptions options;
  options.require_delivery = true;
  EXPECT_THROW(net.run(programs, options), RequirementError);
}

TEST(Network, QuietRoundsAreSteppedBeforeQuiescenceStop) {
  // Regression: v1 broke out of the loop BEFORE stepping programs on a
  // quiet round, so nodes never observed an all-empty-inbox round and
  // RunStats.rounds undercounted by up to quiet_rounds_to_stop.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  struct EmptyRoundObserver {
    int empty_rounds_seen = 0;
    void start(NodeContext& ctx) {
      for (std::size_t p = 0; p < ctx.degree(); ++p) {
        ctx.send(p, Message{1});
      }
    }
    void round(NodeContext& ctx) {
      bool any = false;
      for (std::size_t p = 0; p < ctx.degree(); ++p) {
        if (ctx.received(p).has_value()) any = true;
      }
      if (!any) ++empty_rounds_seen;
    }
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<EmptyRoundObserver> programs(3);
  RunOptions options;
  options.quiet_rounds_to_stop = 2;
  const RunStats stats = net.run(programs, options);
  // Round 1 delivers the start() messages; rounds 2 and 3 are the quiet
  // rounds — stepped, observed, and counted.
  EXPECT_EQ(stats.rounds, 3);
  for (const auto& program : programs) {
    EXPECT_EQ(program.empty_rounds_seen, 2);
  }
}

TEST(Network, StopPredicateConsultedOnIntervalBoundariesOnly) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  struct Chatter {  // keeps the run alive forever
    void start(NodeContext& ctx) {
      if (ctx.id() == 0) ctx.send(0, Message{0});
    }
    void round(NodeContext& ctx) {
      if (ctx.id() == 0) ctx.send(0, Message{ctx.round()});
    }
  };
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<Chatter> programs(2);
  RunOptions options;
  options.max_rounds = 12;
  options.stop_interval = 3;
  int stop_calls = 0;
  const RunStats stats =
      net.run(programs, options, [&stop_calls]() {
        ++stop_calls;
        return false;
      });
  EXPECT_EQ(stats.rounds, 12);
  EXPECT_EQ(stop_calls, 12 / 3);

  std::vector<Chatter> again(2);
  int calls2 = 0;
  const RunStats early = net.run(again, options, [&calls2]() {
    ++calls2;
    return true;
  });
  EXPECT_EQ(early.rounds, 3);  // first boundary, never mid-phase
  EXPECT_EQ(calls2, 1);
}

TEST(DistributedPushRelabel, FlowConservationAtEarlyPulseBoundaryStop) {
  // Regression: a stop honored mid-pulse could leave phase-B flow
  // updates sent but unapplied, so the two endpoints of an edge would
  // disagree about its flow. Stops land on pulse boundaries only; at
  // every such stop the global flow is conserved.
  Rng rng(163);
  const Graph g = make_gnp_connected(24, 0.18, {1, 6}, rng);
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;
  const CsrGraph csr(g);
  Network net(csr);
  std::vector<PushRelabelProgram> programs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.emplace_back(PushRelabelProgram::Config{source, sink});
  }
  RunOptions options = push_relabel_run_options(g.num_nodes());
  // Stop as early as the oracle allows: the first boundary where any
  // excess left the source at all — long before convergence.
  const auto stop_early = [&programs, source, sink]() {
    for (std::size_t v = 0; v < programs.size(); ++v) {
      const auto id = static_cast<NodeId>(v);
      if (id == source || id == sink) continue;
      if (programs[v].excess() > 1e-9) return true;
    }
    return false;
  };
  const RunStats stats = net.run(programs, options, stop_early);
  EXPECT_GT(stats.rounds, 0);
  EXPECT_EQ(stats.rounds % 3, 0);  // a pulse boundary
  // Edge antisymmetry: both endpoints agree on every edge's flow.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeEndpoints ep = g.endpoints(e);
    const auto port_of = [&csr](NodeId v, EdgeId edge) {
      const CsrRow ports = csr.neighbors(v);
      for (std::size_t p = 0; p < ports.size(); ++p) {
        if (ports.edge(p) == edge) return p;
      }
      return ports.size();
    };
    const std::size_t pu = port_of(ep.u, e);
    const std::size_t pv = port_of(ep.v, e);
    ASSERT_LT(pu, csr.degree(ep.u));
    ASSERT_LT(pv, csr.degree(ep.v));
    EXPECT_NEAR(programs[static_cast<std::size_t>(ep.u)].port_flow()[pu],
                -programs[static_cast<std::size_t>(ep.v)].port_flow()[pv],
                1e-6)
        << "edge " << e;
  }
  // ... hence total excess balances to zero.
  double total_excess = 0.0;
  for (const auto& program : programs) total_excess += program.excess();
  EXPECT_NEAR(total_excess, 0.0, 1e-5);
}

// --- CongestSim v2: determinism and backend parity --------------------------

TEST(Network, TranscriptsIdenticalAcrossThreadCounts) {
  Rng rng(167);
  const Graph g = make_gnp_connected(120, 0.05, {1, 8}, rng);
  const auto run_flood = [&g](int threads) {
    const CsrGraph csr(g);
    Network net(csr);
    std::vector<FloodMaxProgram> programs(
        static_cast<std::size_t>(g.num_nodes()));
    RunOptions options;
    options.threads = threads;
    options.parallel_grain = 1;  // force the parallel path at this size
    const RunStats stats = net.run(programs, options);
    std::vector<NodeId> leaders;
    for (const auto& p : programs) leaders.push_back(p.leader());
    return std::make_pair(stats, leaders);
  };
  const auto [s1, l1] = run_flood(1);
  const auto [s2, l2] = run_flood(2);
  const auto [smax, lmax] = run_flood(0);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.words, s2.words);
  EXPECT_EQ(s1.transcript_hash, s2.transcript_hash);
  EXPECT_EQ(s1.transcript_hash, smax.transcript_hash);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(l1, lmax);
}

TEST(Network, PushRelabelBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(173);
  const Graph g = make_gnp_connected(48, 0.12, {1, 6}, rng);
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;
  const auto run_once = [&](int threads) {
    const CsrGraph csr(g);
    Network net(csr);
    std::vector<PushRelabelProgram> programs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      programs.emplace_back(PushRelabelProgram::Config{source, sink});
    }
    RunOptions options = push_relabel_run_options(g.num_nodes());
    options.threads = threads;
    options.parallel_grain = 1;
    const RunStats stats = net.run(programs, options);
    std::vector<std::vector<double>> flows;
    for (const auto& p : programs) flows.push_back(p.port_flow());
    return std::make_pair(stats, flows);
  };
  const auto [s1, f1] = run_once(1);
  const auto [s2, f2] = run_once(2);
  const auto [s0, f0] = run_once(0);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.transcript_hash, s2.transcript_hash);
  EXPECT_EQ(s1.transcript_hash, s0.transcript_hash);
  EXPECT_EQ(f1, f2);  // port flows bitwise equal
  EXPECT_EQ(f1, f0);
}

TEST(Network, RepeatedRunsOnOneNetworkAreIdentical) {
  // reset() correctness: a Network is reusable, and each run is bitwise
  // identical to a run on a fresh Network.
  Rng rng(179);
  const Graph g = make_gnp_connected(40, 0.1, {1, 5}, rng);
  const CsrGraph csr(g);
  Network net(csr);
  RunStats first;
  for (int iteration = 0; iteration < 3; ++iteration) {
    std::vector<BfsTreeProgram> programs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      programs.emplace_back(BfsTreeProgram::Config{7});
    }
    const RunStats stats = net.run(programs);
    if (iteration == 0) {
      first = stats;
    } else {
      EXPECT_EQ(stats.rounds, first.rounds);
      EXPECT_EQ(stats.messages, first.messages);
      EXPECT_EQ(stats.words, first.words);
      EXPECT_EQ(stats.messages_dropped, first.messages_dropped);
      EXPECT_EQ(stats.transcript_hash, first.transcript_hash);
    }
  }
  Network fresh(csr);
  std::vector<BfsTreeProgram> programs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    programs.emplace_back(BfsTreeProgram::Config{7});
  }
  EXPECT_EQ(fresh.run(programs).transcript_hash, first.transcript_hash);
}

TEST(Network, MatchesSequentialReferenceBitwise) {
  // Differential oracle: the flat arena + worklist simulator and the
  // ragged sequential reference must agree on RunStats and transcripts
  // for every program family.
  Rng rng(181);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = make_gnp_connected(40, 0.12, {1, 6}, rng);
    const CsrGraph csr(g);

    {  // BFS (halting, drops)
      Network flat(csr);
      ReferenceNetwork ragged(g);
      std::vector<BfsTreeProgram> a;
      std::vector<BfsTreeProgram> b;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        a.emplace_back(BfsTreeProgram::Config{3});
        b.emplace_back(BfsTreeProgram::Config{3});
      }
      const RunStats sa = flat.run(a);
      const RunStats sb = ragged.run(b);
      EXPECT_EQ(sa.rounds, sb.rounds);
      EXPECT_EQ(sa.messages, sb.messages);
      EXPECT_EQ(sa.words, sb.words);
      EXPECT_EQ(sa.messages_dropped, sb.messages_dropped);
      EXPECT_EQ(sa.all_halted, sb.all_halted);
      EXPECT_EQ(sa.transcript_hash, sb.transcript_hash);
      for (std::size_t v = 0; v < a.size(); ++v) {
        EXPECT_EQ(a[v].depth(), b[v].depth());
        EXPECT_EQ(a[v].parent_port(), b[v].parent_port());
      }
    }

    {  // flood-max (sleep/wake, permanent quiescence)
      Network flat(csr);
      ReferenceNetwork ragged(g);
      std::vector<FloodMaxProgram> a(static_cast<std::size_t>(g.num_nodes()));
      std::vector<FloodMaxProgram> b(static_cast<std::size_t>(g.num_nodes()));
      const RunStats sa = flat.run(a);
      const RunStats sb = ragged.run(b);
      EXPECT_EQ(sa.rounds, sb.rounds);
      EXPECT_EQ(sa.transcript_hash, sb.transcript_hash);
    }

    {  // push-relabel (pulse phases, worklist churn)
      const NodeId source = 0;
      const NodeId sink = g.num_nodes() - 1;
      Network flat(csr);
      ReferenceNetwork ragged(g);
      std::vector<PushRelabelProgram> a;
      std::vector<PushRelabelProgram> b;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        a.emplace_back(PushRelabelProgram::Config{source, sink});
        b.emplace_back(PushRelabelProgram::Config{source, sink});
      }
      const RunOptions options = push_relabel_run_options(g.num_nodes());
      const RunStats sa = flat.run(a, options);
      const RunStats sb = ragged.run(b, options);
      EXPECT_EQ(sa.rounds, sb.rounds);
      EXPECT_EQ(sa.messages, sb.messages);
      EXPECT_EQ(sa.transcript_hash, sb.transcript_hash);
      EXPECT_NEAR(a[static_cast<std::size_t>(sink)].excess(),
                  b[static_cast<std::size_t>(sink)].excess(), 0.0);
    }
  }
}

TEST(RoundLedger, ChargesAccumulate) {
  RoundLedger ledger;
  ledger.charge("bfs", 10.0);
  ledger.charge("bfs", 5.0);
  ledger.charge("sparsify", 2.5);
  EXPECT_DOUBLE_EQ(ledger.total(), 17.5);
  EXPECT_DOUBLE_EQ(ledger.breakdown().at("bfs"), 15.0);
  RoundLedger other;
  other.charge("bfs", 1.0);
  ledger.merge(other);
  EXPECT_DOUBLE_EQ(ledger.total(), 18.5);
}

TEST(RoundLedger, RejectsNegativeCharge) {
  RoundLedger ledger;
  EXPECT_THROW(ledger.charge("x", -1.0), RequirementError);
}

TEST(CostModel, FormulasAreMonotone) {
  CostModel model{.n = 100, .diameter = 12};
  EXPECT_DOUBLE_EQ(model.bfs(), 13.0);
  EXPECT_DOUBLE_EQ(model.pipelined(10.0), 22.0);
  EXPECT_GT(model.cluster_step(10.0, 5.0), model.cluster_step(5.0, 5.0));
  EXPECT_NEAR(model.sqrt_n(), 10.0, 1e-12);
}

}  // namespace
}  // namespace dmf::congest
