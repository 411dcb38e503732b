// Traced layer replicas. Each one re-runs a layer of the engine from its
// public functions, in the order the engine calls them, timed with spans
// — and checks that it reproduced the engine bitwise, so the per-layer
// numbers describe the program that was measured.
//
//   build  : sample_virtual_tree per recorded seed, from_samples,
//            estimate_alpha, boruvka_max_weight_tree, build_bfs_tree
//   repair : hierarchy_dirty_set, resample dirty trees, tree_edge_loads
//            on clean ones (what ShermanHierarchy::repair does)
//   route  : almost_route, flow_divergence, route_demand_on_spanning_tree,
//            max_congestion (ShermanSolver::route's order)

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "baselines/dinic.h"
#include "baselines/push_relabel.h"
#include "baselines/tree_routing.h"
#include "capprox/approximator.h"
#include "cluster/boruvka.h"
#include "engine/congest_runner.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/graph_store.h"
#include "maxflow/almost_route.h"
#include "maxflow/hierarchy_io.h"
#include "maxflow/multi_terminal.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "workload.h"

namespace pb {

namespace {

namespace fs = std::filesystem;
using dmf::NodeId;
using dmf::serve::Json;

constexpr std::uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

// The options the engine derives from EngineOptions for its serving
// hierarchy and solver (FlowEngine::Core's constructor).
dmf::ShermanOptions serving_options(const dmf::EngineOptions& e) {
  dmf::ShermanOptions o = e.sherman;
  if (o.almost_route.epsilon == dmf::AlmostRouteOptions{}.epsilon) {
    o.almost_route.epsilon = std::min(0.5, o.epsilon);
  }
  if (e.tune_routing_for_throughput &&
      o.route_residual_tolerance ==
          dmf::ShermanOptions{}.route_residual_tolerance) {
    o.route_residual_tolerance = o.epsilon / 4.0;
  }
  if (e.capacity_quantization_octaves > 0.0 &&
      o.hierarchy.capacity_bucket_octaves ==
          dmf::HierarchyOptions{}.capacity_bucket_octaves) {
    o.hierarchy.capacity_bucket_octaves = e.capacity_quantization_octaves;
  }
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_tree(const dmf::RootedTree& a, const dmf::RootedTree& b) {
  if (a.root != b.root || a.parent != b.parent ||
      a.parent_cap.size() != b.parent_cap.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.parent_cap.size(); ++i) {
    if (!same_bits(a.parent_cap[i], b.parent_cap[i])) return false;
  }
  return true;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// The engine's answer to a wire query, serialized as dmf-serve would.
std::string engine_answer(dmf::FlowEngine& engine, const std::string& body) {
  dmf::serve::QueryEnvelope env =
      dmf::serve::parse_query_request(Json::parse(body));
  return std::visit(
      [&](auto&& query) -> std::string {
        auto res = engine.submit(std::move(query)).get();
        if (!res.ok()) return std::string("error:") + res.message;
        return dmf::serve::to_json(*res.payload, env.include_flow).dump();
      },
      std::move(env.query));
}

struct RouteReplica {
  std::vector<double> flow;
  double congestion = 0.0;
  int calls = 0;
  long iterations = 0;
};

// ShermanSolver::route, call for call.
RouteReplica route_replica(const dmf::ShermanHierarchy& h,
                           const dmf::ShermanOptions& options,
                           const std::vector<double>& demand, Tracer& tr,
                           std::uint64_t request) {
  ScopedSpan route_span(tr, "maxflow.route", request);
  const dmf::CsrGraph& g = h.csr();
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  const int max_calls =
      options.max_almost_route_calls > 0
          ? options.max_almost_route_calls
          : static_cast<int>(std::ceil(std::log2(
                static_cast<double>(std::max<std::size_t>(2, m))))) +
                2;
  RouteReplica out;
  out.flow.assign(m, 0.0);
  std::vector<double> residual = demand;
  double scale_hint = 0.0;
  for (const double d : demand) scale_hint = std::max(scale_hint, std::abs(d));
  dmf::AlmostRouteOptions ar = options.almost_route;
  ar.alpha = h.alpha();
  const double stop = options.route_residual_tolerance * scale_hint;
  for (int call = 0; call < max_calls; ++call) {
    double mass = 0.0;
    for (const double r : residual) mass += std::abs(r);
    if (mass <= stop) break;
    dmf::AlmostRouteResult step;
    {
      ScopedSpan s(tr, "maxflow.almost_route", request);
      step = dmf::almost_route(g, h.approximator(), residual, ar);
    }
    ++out.calls;
    out.iterations += step.iterations;
    for (std::size_t e = 0; e < m; ++e) out.flow[e] += step.flow[e];
    std::vector<double> div;
    {
      ScopedSpan s(tr, "maxflow.flow_divergence", request);
      div = dmf::flow_divergence(g, out.flow);
    }
    for (std::size_t v = 0; v < n; ++v) residual[v] = demand[v] - div[v];
  }
  std::vector<double> tree_flow;
  {
    ScopedSpan s(tr, "maxflow.tree_reroute", request);
    tree_flow = dmf::route_demand_on_spanning_tree(g, h.mwst(), residual);
  }
  for (std::size_t e = 0; e < m; ++e) out.flow[e] += tree_flow[e];
  {
    ScopedSpan s(tr, "maxflow.max_congestion", request);
    out.congestion = dmf::max_congestion(g, out.flow);
  }
  return out;
}

// FNV-1a over a double vector's bit patterns (replica parity).
std::uint64_t hash_doubles(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

double ms_per(double seconds, double count) {
  return count > 0 ? seconds * 1e3 / count : 0.0;
}

}  // namespace

void run_layers(const LayerInputs& in, Tracer& tr, Metrics* metrics,
                std::vector<std::string>* violations) {
  Metrics& m = *metrics;
  const dmf::Graph& g = *in.graph;
  const NodeId n = g.num_nodes();
  const dmf::ShermanOptions opts = serving_options(in.engine_options);
  const auto fail = [&](const std::string& what) {
    violations->push_back("replica parity: " + what);
  };

  // ---- in-process engine with the server's options ----
  auto store = std::make_shared<dmf::GraphStore>(g);
  std::unique_ptr<dmf::FlowEngine> engine;
  {
    ScopedSpan s(tr, "engine.construct");
    engine = std::make_unique<dmf::FlowEngine>(store, in.engine_options);
  }
  if (!in.parity_query.empty() &&
      engine_answer(*engine, in.parity_query) != in.parity_result) {
    fail("in-process engine answer differs from dmf-serve's");
  }

  // ---- engine replay: queue wait = submit -> callback minus exec ----
  {
    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;
    std::vector<double> waits;
    dmf::Rng rng(in.seed + 5);
    const double start = now_s();
    double next_send = start;
    for (std::size_t i = 0; i < in.query_bodies.size(); ++i) {
      if (now_s() - start >= in.budget_s) break;
      dmf::serve::QueryEnvelope env =
          dmf::serve::parse_query_request(Json::parse(in.query_bodies[i]));
      if (in.replay_rate_qps > 0) {
        next_send += -std::log(1.0 - rng.next_double()) / in.replay_rate_qps;
        sleep_until_s(next_send);
      } else {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return in_flight < in.conns; });
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++in_flight;
      }
      const double submitted = now_s();
      std::visit(
          [&](auto&& query) {
            using Q = std::decay_t<decltype(query)>;
            using P = std::conditional_t<
                std::is_same_v<Q, dmf::MaxFlowQuery>, dmf::MaxFlowApproxResult,
                std::conditional_t<
                    std::is_same_v<Q, dmf::RouteQuery>, dmf::RouteResult,
                    std::conditional_t<
                        std::is_same_v<Q, dmf::MultiTerminalQuery>,
                        dmf::MultiTerminalMaxFlowResult,
                        dmf::CongestRunResult>>>;
            (void)engine->submit(
                std::move(query), [&, submitted](const dmf::Result<P>& r) {
                  const double wait = now_s() - submitted - r.seconds;
                  std::lock_guard<std::mutex> lock(mu);
                  waits.push_back(std::max(0.0, wait) * 1e3);
                  --in_flight;
                  cv.notify_all();
                });
          },
          std::move(env.query));
    }
    engine->wait_all();
    put(m, "engine.queue_wait_ms_p50", quantile(waits, 0.5), "ms",
        static_cast<long>(waits.size()));
    put(m, "engine.queue_wait_ms_p90", quantile(waits, 0.9), "ms",
        static_cast<long>(waits.size()));
  }

  // ---- build replica ----
  const dmf::ShermanHierarchy& h = engine->hierarchy();
  const std::size_t count = h.tree_records().size();
  std::vector<dmf::VirtualTreeSample> samples(count);
  double levels = 0.0;
  {
    ScopedSpan build(tr, "capprox.build");
    dmf::Rng rng(in.engine_options.seed);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t seed = rng() ^ kSeedMix;
      if (seed != h.tree_records()[i].seed) fail("tree seed " + std::to_string(i));
      dmf::Rng tree_rng(seed);
      ScopedSpan s(tr, "capprox.sample_virtual_tree");
      samples[i] = dmf::sample_virtual_tree(g, opts.hierarchy, tree_rng);
    }
    for (std::size_t i = 0; i < count; ++i) {
      levels += samples[i].levels;
      if (!same_tree(samples[i].tree, h.approximator().tree(static_cast<int>(i)))) {
        fail("tree " + std::to_string(i) + " differs from the engine's");
      }
    }
    std::unique_ptr<dmf::CongestionApproximator> approx;
    {
      ScopedSpan s(tr, "capprox.from_samples");
      approx = std::make_unique<dmf::CongestionApproximator>(
          dmf::CongestionApproximator::from_samples(samples));
    }
    double alpha = 0.0;
    {
      ScopedSpan s(tr, "capprox.estimate_alpha");
      const dmf::AlphaEstimate est =
          dmf::estimate_alpha(g, *approx, opts.alpha_samples, rng);
      alpha = std::clamp(1.25 * est.alpha, 1.5, 12.0);
    }
    if (!same_bits(alpha, h.alpha())) fail("alpha differs from the engine's");
    {
      ScopedSpan s(tr, "cluster.mwst");
      const dmf::RootedTree mwst = dmf::boruvka_max_weight_tree(g, 0, nullptr);
      if (mwst.parent != h.mwst().parent) fail("max-weight spanning tree");
    }
    {
      ScopedSpan s(tr, "graph.bfs");
      if (dmf::build_bfs_tree(h.csr(), 0).height != h.bfs_height()) {
        fail("BFS height");
      }
    }
  }
  {
    ScopedSpan s(tr, "graph.csr_pack");
    const dmf::CsrGraph csr(g);
    (void)csr;
  }
  const std::vector<double> sample_s = tr.durations("capprox.sample_virtual_tree");
  put(m, "capprox.sample_trees_s", tr.total("capprox.sample_virtual_tree"), "s",
      static_cast<long>(count));
  put(m, "capprox.sample_tree_ms_p50", quantile(sample_s, 0.5) * 1e3, "ms",
      static_cast<long>(count));
  put(m, "capprox.levels_mean", count ? levels / count : 0.0, "count",
      static_cast<long>(count));
  put(m, "capprox.alpha_estimate_s", tr.total("capprox.estimate_alpha"), "s", 1);
  put(m, "capprox.alpha", h.alpha(), "ratio", 1);
  put(m, "cluster.mwst_s", tr.total("cluster.mwst"), "s", 1);
  put(m, "graph.csr_pack_ms", tr.total("graph.csr_pack") * 1e3, "ms", 1);

  // ---- approximator sweeps ----
  double apply_s = 0.0;
  double potentials_s = 0.0;
  {
    const dmf::CongestionApproximator& a = h.approximator();
    const std::vector<double> b =
        dmf::st_demand(n, in.pairs.front().first, in.pairs.front().second, 1.0);
    std::vector<double> y;
    std::vector<double> pi;
    std::vector<double> ws;
    a.apply_into(b, 2.0 * h.alpha(), y, ws);  // warm the buffers
    int reps = 1;
    while (true) {
      const double t0 = now_s();
      for (int r = 0; r < reps; ++r) a.apply_into(b, 2.0 * h.alpha(), y, ws);
      const double t1 = now_s();
      for (int r = 0; r < reps; ++r) a.potentials_into(y, pi, ws);
      const double t2 = now_s();
      if (t2 - t0 >= 0.2 || reps >= (1 << 20)) {
        tr.add("capprox.apply_into", t0, t1, -1, 0);
        tr.add("capprox.potentials_into", t1, t2, -1, 0);
        apply_s = (t1 - t0) / reps;
        potentials_s = (t2 - t1) / reps;
        break;
      }
      reps *= 2;
    }
  }
  put(m, "capprox.apply_us", apply_s * 1e6, "us", 1);
  put(m, "capprox.potentials_us", potentials_s * 1e6, "us", 1);

  // ---- route replica (max_flow and route queries of the run) ----
  {
    const std::size_t max_queries = in.workload == "serve_st" ? 6 : 3;
    std::size_t queries = 0;
    long iterations = 0;
    for (std::size_t i = 0; in.route_replica && i < in.query_bodies.size() &&
                            queries < max_queries;
         ++i) {
      dmf::serve::QueryEnvelope env =
          dmf::serve::parse_query_request(Json::parse(in.query_bodies[i]));
      std::vector<double> demand;
      const auto* mf = std::get_if<dmf::MaxFlowQuery>(&env.query);
      if (mf != nullptr && !mf->exact) {
        demand = dmf::st_demand(n, mf->s, mf->t, 1.0);
      } else if (const auto* rq = std::get_if<dmf::RouteQuery>(&env.query)) {
        demand = rq->demand;
      } else {
        continue;
      }
      ++queries;
      RouteReplica r = route_replica(h, opts, demand, tr, i + 1);
      iterations += r.iterations;
      std::vector<double> engine_flow;
      bool same = true;
      if (mf != nullptr) {
        auto res = engine->submit(*mf).get();
        const double lambda = 1.0 / r.congestion;
        for (double& f : r.flow) f *= lambda;
        same = res.ok() && same_bits(res.payload->value, lambda);
        if (res.ok()) engine_flow = res.payload->flow;
      } else {
        auto res = engine->submit(std::get<dmf::RouteQuery>(env.query)).get();
        same = res.ok() && same_bits(res.payload->congestion, r.congestion);
        if (res.ok()) engine_flow = res.payload->flow;
      }
      if (!same || hash_doubles(engine_flow) != hash_doubles(r.flow)) {
        fail("route replica flow hash differs from the engine's (query " +
             std::to_string(i) + ")");
      }
    }
    const double ar_s = tr.total("maxflow.almost_route");
    const auto ar_calls = static_cast<double>(tr.count("maxflow.almost_route"));
    const auto q = static_cast<double>(queries);
    put(m, "maxflow.almost_route_calls_per_query", q > 0 ? ar_calls / q : 0.0,
        "count", static_cast<long>(queries));
    put(m, "maxflow.almost_route_ms_per_call", ms_per(ar_s, ar_calls), "ms",
        static_cast<long>(ar_calls));
    put(m, "maxflow.almost_route_ns_per_iter",
        iterations > 0 ? ar_s * 1e9 / static_cast<double>(iterations) : 0.0,
        "ns", iterations);
    put(m, "maxflow.divergence_ms", ms_per(tr.total("maxflow.flow_divergence"), q),
        "ms", static_cast<long>(queries));
    put(m, "maxflow.tree_reroute_ms", ms_per(tr.total("maxflow.tree_reroute"), q),
        "ms", static_cast<long>(queries));
    // Computed, not traced: one apply + one potentials per iteration.
    const double sweep =
        ar_s > 0 ? static_cast<double>(iterations) * (apply_s + potentials_s) / ar_s
                 : 0.0;
    put(m, "capprox.sweep_share_computed", sweep, "share", iterations);
    put(m, "maxflow.softmax_share_computed", ar_s > 0 ? 1.0 - sweep : 0.0,
        "share", iterations);
  }

  // ---- super-terminal build (the multi_terminal hierarchy-cache miss) ----
  {
    double build_s = 0.0;
    if (in.super_terminal) {
      dmf::Rng rng(in.seed + 11);
      std::vector<std::size_t> idx = rng.sample_indices(static_cast<std::size_t>(n), 6);
      std::vector<NodeId> src{static_cast<NodeId>(idx[0]), static_cast<NodeId>(idx[1]),
                              static_cast<NodeId>(idx[2])};
      std::vector<NodeId> snk{static_cast<NodeId>(idx[3]), static_cast<NodeId>(idx[4]),
                              static_cast<NodeId>(idx[5])};
      dmf::ShermanOptions sopts = opts;
      sopts.hierarchy.threads = 1;  // as the engine's cache builds run
      ScopedSpan s(tr, "maxflow.super_terminal_build");
      const double t0 = now_s();
      const dmf::SuperTerminalHierarchy st =
          dmf::build_super_terminal_hierarchy(g, src, snk, sopts, rng);
      (void)st;
      build_s = now_s() - t0;
    }
    put(m, "maxflow.super_terminal_build_s", build_s, "s", in.super_terminal ? 1 : 0);
  }

  // ---- baselines on the run's pairs, same snapshot ----
  {
    const dmf::CsrGraph& csr = h.csr();
    std::vector<double> dinic_ms;
    std::vector<double> pr_ms;
    for (const auto& [s, t] : in.pairs) {
      double a = 0.0;
      double b = 0.0;
      {
        ScopedSpan span(tr, "baselines.dinic");
        const double t0 = now_s();
        a = dmf::dinic_max_flow(csr, s, t).value;
        dinic_ms.push_back((now_s() - t0) * 1e3);
      }
      {
        ScopedSpan span(tr, "baselines.push_relabel");
        const double t0 = now_s();
        b = dmf::push_relabel_max_flow(csr, s, t).value;
        pr_ms.push_back((now_s() - t0) * 1e3);
      }
      if (std::abs(a - b) > 1e-9 * (1.0 + a)) fail("Dinic and push-relabel disagree");
    }
    put(m, "baselines.dinic_ms_p50", quantile(dinic_ms, 0.5), "ms",
        static_cast<long>(dinic_ms.size()));
    put(m, "baselines.push_relabel_ms_p50", quantile(pr_ms, 0.5), "ms",
        static_cast<long>(pr_ms.size()));
  }

  // ---- CONGEST simulation ----
  {
    double rounds = 0.0;
    double messages = 0.0;
    std::size_t runs = 0;
    for (std::size_t i = 0; in.congest_replica && i < in.pairs.size() && i < 3; ++i) {
      dmf::CongestQuery q;
      q.source = in.pairs[i].first;
      q.sink = in.pairs[i].second;
      ScopedSpan s(tr, "congest.run");
      const dmf::CongestRunResult r = dmf::CongestRunner::run(h.csr(), q);
      rounds += r.stats.rounds;
      messages += static_cast<double>(r.stats.messages);
      ++runs;
    }
    const auto k = static_cast<double>(runs);
    put(m, "congest.rounds_per_query", k > 0 ? rounds / k : 0.0, "count",
        static_cast<long>(runs));
    put(m, "congest.messages_per_query", k > 0 ? messages / k : 0.0, "count",
        static_cast<long>(runs));
    put(m, "congest.ms_per_query", ms_per(tr.total("congest.run"), k), "ms",
        static_cast<long>(runs));
  }

  // ---- persistence: hierarchy save/load, publish, open ----
  {
    fs::remove_all(in.persist_dir);
    dmf::GraphStoreOptions o;
    o.data_dir = in.persist_dir;
    o.persist = dmf::PersistPolicy::kOnPublish;
    auto pstore = std::make_shared<dmf::GraphStore>(g, o);
    const std::uint64_t fp =
        dmf::hierarchy_fingerprint(opts, in.engine_options.seed);
    {
      ScopedSpan s(tr, "persist.hierarchy_save");
      dmf::save_hierarchy(in.persist_dir, h, fp);
    }
    {
      ScopedSpan s(tr, "persist.hierarchy_load");
      const auto loaded = dmf::load_hierarchy(in.persist_dir, pstore->snapshot(), fp);
      if (loaded == nullptr || !same_bits(loaded->alpha(), h.alpha())) {
        fail("persisted hierarchy does not load back");
      }
    }
    const std::uint64_t bytes0 = dir_bytes(in.persist_dir);
    dmf::Rng rng(in.seed + 13);
    for (int i = 0; i < 3; ++i) {
      dmf::MutationBatch batch;
      for (int k = 0; k < 6; ++k) {
        const auto e = static_cast<dmf::EdgeId>(
            rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
        batch.set_capacity(e, g.capacity(e) * 1.01);
      }
      ScopedSpan s(tr, "graph.publish_capacity");
      pstore->apply(batch);
    }
    const std::uint64_t bytes1 = dir_bytes(in.persist_dir);
    {
      dmf::MutationBatch batch;
      batch.add_edge(0, n - 1, 1.0);
      ScopedSpan s(tr, "graph.publish_topology");
      pstore->apply(batch);
    }
    const dmf::GraphVersion latest = pstore->latest_version();
    pstore.reset();
    {
      ScopedSpan s(tr, "graph.open");
      const auto reopened = dmf::GraphStore::open(in.persist_dir, o);
      if (reopened->latest_version() != latest) fail("reopened store version");
    }
    put(m, "persist.bytes_per_version",
        static_cast<double>(bytes1 - bytes0) / 3.0, "bytes", 3);
    put(m, "persist.hierarchy_save_ms", tr.total("persist.hierarchy_save") * 1e3,
        "ms", 1);
    put(m, "persist.hierarchy_load_ms", tr.total("persist.hierarchy_load") * 1e3,
        "ms", 1);
    put(m, "graph.publish_ms.capacity",
        ms_per(tr.total("graph.publish_capacity"), 3.0), "ms", 3);
    put(m, "graph.publish_ms.topology", tr.total("graph.publish_topology") * 1e3,
        "ms", 1);
    put(m, "graph.open_s", tr.total("graph.open"), "s", 1);
    fs::remove_all(in.persist_dir);
  }

  // ---- repair replica (last: the engine swaps its hierarchy here) ----
  {
    dmf::Rng rng(in.seed + 17);
    dmf::MutationBatch batch;
    for (int k = 0; k < 6; ++k) {
      const auto e = static_cast<dmf::EdgeId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
      batch.set_capacity(e, g.capacity(e) * std::exp(rng.next_double(-0.02, 0.02)));
    }
    dmf::GraphStore mirror(g);
    const std::shared_ptr<const dmf::Graph> next = mirror.apply(batch).graph;
    std::vector<dmf::VirtualTreeSample> repaired(count);
    double alpha = 0.0;
    int dirty = 0;
    {
      ScopedSpan repair(tr, "capprox.repair");
      dmf::HierarchyDirtySet diff;
      {
        ScopedSpan s(tr, "capprox.dirty_set");
        diff = dmf::hierarchy_dirty_set(h, *next);
      }
      dirty = diff.num_dirty;
      dmf::Rng seeds(in.engine_options.seed);
      std::vector<std::uint64_t> tree_seeds(count);
      for (std::uint64_t& s : tree_seeds) s = seeds() ^ kSeedMix;
      for (std::size_t i = 0; i < count; ++i) {
        if (diff.dirty[i]) {
          ScopedSpan s(tr, "capprox.resample_tree");
          dmf::Rng tree_rng(tree_seeds[i]);
          repaired[i] = dmf::sample_virtual_tree(*next, opts.hierarchy, tree_rng);
          continue;
        }
        ScopedSpan s(tr, "capprox.recapacitate");
        const dmf::RootedTree& prev = h.approximator().tree(static_cast<int>(i));
        dmf::RootedTree& t = repaired[i].tree;
        t.root = prev.root;
        t.parent = prev.parent;
        t.parent_edge = prev.parent_edge;
        t.parent_cap.assign(static_cast<std::size_t>(n), 0.0);
        const std::vector<double> loads = dmf::tree_edge_loads(*next, t);
        for (NodeId v = 0; v < n; ++v) {
          if (v == t.root) continue;
          t.parent_cap[static_cast<std::size_t>(v)] =
              std::max(loads[static_cast<std::size_t>(v)], 1e-12);
        }
        repaired[i].rounds = h.tree_records()[i].rounds;
      }
      const dmf::CongestionApproximator approx =
          dmf::CongestionApproximator::from_samples(repaired);
      ScopedSpan s(tr, "capprox.estimate_alpha_repair");
      alpha = std::clamp(
          1.25 * dmf::estimate_alpha(*next, approx, opts.alpha_samples, seeds).alpha,
          1.5, 12.0);
    }
    put(m, "capprox.recapacitate_s", tr.total("capprox.recapacitate"), "s",
        static_cast<long>(count) - dirty);
    const dmf::ApplyResult applied = engine->apply(batch);
    if (!engine->wait_for_version(applied.version, 120.0)) {
      fail("in-process engine never served the repaired version");
    } else {
      const dmf::ShermanHierarchy& after = engine->hierarchy();
      for (std::size_t i = 0; i < count; ++i) {
        if (!same_tree(repaired[i].tree, after.approximator().tree(static_cast<int>(i)))) {
          fail("repaired tree " + std::to_string(i) + " differs from the engine's");
          break;
        }
      }
      if (!same_bits(alpha, after.alpha())) fail("repaired alpha differs");
    }
  }
}

}  // namespace pb
