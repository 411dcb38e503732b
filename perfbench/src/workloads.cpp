// The three workloads against a real dmf-serve process, and the oracle
// that checks every answer. See README.md for why each workload exists.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "baselines/dinic.h"
#include "graph/csr_graph.h"
#include "graph/flow.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "maxflow/multi_terminal.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "workload.h"

namespace pb {

namespace {

namespace fs = std::filesystem;
using dmf::NodeId;
using dmf::serve::Json;

// Every server flag is pinned here; nothing rides on dmf-serve defaults.
constexpr int kServerThreads = 4;
constexpr std::uint64_t kServerSeed = 1;
constexpr int kMaxInFlight = 256;
constexpr double kEpsilon = 0.25;  // sent with every approximate query

enum Kind { kMaxFlow, kRoute, kMulti, kCongest, kExact, kMutate };

const char* kind_name(Kind k) {
  switch (k) {
    case kMaxFlow: return "max_flow";
    case kRoute: return "route";
    case kMulti: return "multi_terminal";
    case kCongest: return "congest";
    case kExact: return "exact";
    case kMutate: return "mutate";
  }
  return "?";
}

struct Request {
  Kind kind = kMaxFlow;
  std::string body;
  NodeId s = -1;
  NodeId t = -1;
  std::vector<double> demand;
  std::vector<NodeId> sources;
  std::vector<NodeId> sinks;
  dmf::MutationBatch batch;
};

struct Call {
  std::size_t req = 0;
  int conn = 0;
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool transport_ok = false;
  int status = 0;
  std::string body;
  bool ok() const { return transport_ok && status == 200; }
};

struct Workload {
  std::string name;
  std::shared_ptr<const dmf::Graph> graph;
  int trees = 0;
  bool binary = false;
  double limit_s = 1.0;  // latency limit on the p90
  // Spawns per run; the median is reported. A spawn of an n=256
  // instance takes ~25 ms, so many are cheap and steady the median
  // against host noise.
  int setup_reps = 31;
};

// Cold restarts per run after the SIGKILL; the median is reported.
constexpr int kColdRestarts = 3;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ids_json(const std::vector<NodeId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out += (i ? "," : "") + std::to_string(ids[i]);
  }
  return out + "]";
}

Request max_flow_request(NodeId s, NodeId t, bool exact, bool include_flow) {
  Request r;
  r.kind = exact ? kExact : kMaxFlow;
  r.s = s;
  r.t = t;
  r.body = "{\"kind\":\"max_flow\",\"s\":" + std::to_string(s) +
           ",\"t\":" + std::to_string(t) +
           (exact ? std::string(",\"exact\":true")
                  : ",\"epsilon\":" + fmt(kEpsilon)) +
           ",\"include_flow\":" + (include_flow ? "true" : "false") + "}";
  return r;
}

Request route_request(std::vector<double> demand) {
  Request r;
  r.kind = kRoute;
  r.body = "{\"kind\":\"route\",\"include_flow\":true,\"demand\":[";
  for (std::size_t i = 0; i < demand.size(); ++i) {
    r.body += (i ? "," : "") + fmt(demand[i]);
  }
  r.body += "]}";
  r.demand = std::move(demand);
  return r;
}

Request multi_request(std::vector<NodeId> sources, std::vector<NodeId> sinks) {
  Request r;
  r.kind = kMulti;
  r.body = "{\"kind\":\"multi_terminal\",\"include_flow\":true,\"epsilon\":" +
           fmt(kEpsilon) + ",\"sources\":" + ids_json(sources) +
           ",\"sinks\":" + ids_json(sinks) + "}";
  r.sources = std::move(sources);
  r.sinks = std::move(sinks);
  return r;
}

Request congest_request(NodeId s, NodeId t) {
  Request r;
  r.kind = kCongest;
  r.s = s;
  r.t = t;
  r.body = "{\"kind\":\"congest\",\"source\":" + std::to_string(s) +
           ",\"sink\":" + std::to_string(t) + ",\"threads\":1}";
  return r;
}

// Capacity jitter relative to the *original* capacities (so repeated
// batches never drift), rounded to 1e-6 so the JSON text round-trips to
// the same double the local mirror applies.
Request jitter_request(const dmf::Graph& g0, int edges, double spread,
                       dmf::Rng& rng) {
  Request r;
  r.kind = kMutate;
  r.body = "{\"wait_seconds\":120,\"ops\":[";
  for (int i = 0; i < edges; ++i) {
    const auto e = static_cast<dmf::EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g0.num_edges())));
    const double c = std::round(g0.capacity(e) *
                                std::exp(rng.next_double(-spread, spread)) *
                                1e6) /
                     1e6;
    r.batch.set_capacity(e, c);
    r.body += std::string(i ? "," : "") +
              "{\"op\":\"set_capacity\",\"edge\":" + std::to_string(e) +
              ",\"capacity\":" + fmt(c) + "}";
  }
  r.body += "]}";
  return r;
}

Request add_edge_request(NodeId n, dmf::Rng& rng) {
  Request r;
  r.kind = kMutate;
  const auto u = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
  auto v = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
  if (v >= u) ++v;
  const double c = static_cast<double>(rng.next_int(1, 8));
  r.batch.add_edge(u, v, c);
  r.body = "{\"wait_seconds\":120,\"ops\":[{\"op\":\"add_edge\",\"u\":" +
           std::to_string(u) + ",\"v\":" + std::to_string(v) +
           ",\"capacity\":" + fmt(c) + "}]}";
  return r;
}

// Distinct unordered pairs, uniform over the node set.
std::vector<std::pair<NodeId, NodeId>> distinct_pairs(NodeId n, std::size_t k,
                                                      dmf::Rng& rng) {
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<std::pair<NodeId, NodeId>> out;
  while (out.size() < k) {
    const auto s = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto t = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (s == t || !seen.insert({std::min(s, t), std::max(s, t)}).second) {
      continue;
    }
    out.emplace_back(s, t);
  }
  return out;
}

std::vector<std::string> server_args(const Workload& w,
                                     const std::string& data_dir) {
  return {"--port",          "0",
          "--binary-port",   "0",
          "--trees",         std::to_string(w.trees),
          "--threads",       std::to_string(kServerThreads),
          "--shards",        "0",
          "--max-in-flight", std::to_string(kMaxInFlight),
          "--tenant-qps",    "0",
          "--deadline-ms",   "0",
          "--seed",          std::to_string(kServerSeed),
          "--data-dir",      data_dir};
}

dmf::EngineOptions engine_options(const Workload& w) {
  // Mirrors what dmf-serve derives from the flags above.
  dmf::EngineOptions o;
  o.sherman.num_trees = w.trees;
  o.threads = kServerThreads;
  o.shards = 0;
  o.seed = kServerSeed;
  return o;
}

void write_store(const dmf::Graph& g, const std::string& dir) {
  fs::remove_all(dir);
  dmf::GraphStoreOptions o;
  o.data_dir = dir;
  o.persist = dmf::PersistPolicy::kOnPublish;
  dmf::GraphStore store(g, o);
}

// --- load loops --------------------------------------------------------------

struct LoopSpec {
  int port = 0;
  bool binary = false;
  int conns = 1;
  int conn_base = 0;
  const std::vector<Request>* requests = nullptr;
  std::size_t first = 0;
  // Open loop: absolute send times for requests first, first+1, ...
  std::vector<double> schedule;
  // Closed loop: past `deadline`, stop at the next multiple of `cycle`
  // requests, so a run always sends whole cycles of its mix. Open loop:
  // requests still unsent at `deadline` are dropped; only the overload
  // rung sets one (it would otherwise keep the run busy long after its
  // schedule ends).
  double deadline = 1e300;
  std::size_t cycle = 1;
  double think_s = 0.0;
  Tracer* tracer = nullptr;
};

std::vector<Call> run_loop(const LoopSpec& spec) {
  const bool open = !spec.schedule.empty();
  const std::size_t limit =
      open ? spec.schedule.size() : spec.requests->size() - spec.first;
  std::vector<Call> calls(limit);
  std::mutex mu;
  std::size_t next = 0;
  bool closed = false;
  // The deadline check and the draw happen under one lock, so the
  // stopping point is exact.
  const auto draw = [&]() -> std::size_t {
    std::lock_guard<std::mutex> lock(mu);
    if (!closed && (open || next % spec.cycle == 0) &&
        now_s() >= spec.deadline) {
      closed = true;
    }
    if (closed || next >= limit) return limit;
    return next++;
  };
  const auto worker = [&](int c) {
    Conn conn(spec.port, spec.binary);
    while (true) {
      const std::size_t i = draw();
      if (i >= limit) break;
      Call& call = calls[i];
      call.req = spec.first + i;
      call.conn = spec.conn_base + c;
      if (open) {
        call.scheduled = spec.schedule[i];
        sleep_until_s(call.scheduled);
      }
      call.sent = now_s();
      if (!open) call.scheduled = call.sent;
      const Reply reply =
          conn.call("POST",
                    (*spec.requests)[call.req].kind == kMutate ? "/v1/mutate"
                                                               : "/v1/query",
                    (*spec.requests)[call.req].body);
      call.done = now_s();
      call.transport_ok = reply.transport_ok;
      call.status = reply.status;
      call.body = reply.body;
      if (spec.tracer != nullptr && spec.tracer->enabled()) {
        const auto rid = static_cast<std::uint64_t>(call.req + 1);
        spec.tracer->add("client.lag", call.scheduled, call.sent, -1, rid);
        const int span =
            spec.tracer->add("serve.request", call.sent, call.done, -1, rid);
        if (call.ok()) {
          const Json doc = Json::parse(call.body);
          if (const Json* sec = doc.find("seconds")) {
            const double exec = std::min(sec->as_number("seconds"),
                                         call.done - call.sent);
            spec.tracer->add("engine.exec", call.done - exec, call.done, span,
                             rid);
          }
        }
      }
      if (!open && spec.think_s > 0) sleep_until_s(call.done + spec.think_s);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.conns; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  calls.resize(next);
  return calls;
}

// Stratified arrivals: `count` equal slots over [start, start + duration)
// with one arrival uniform in each. The rate is exact and the gaps are
// random, but at most two arrivals fall within one slot's length. Poisson
// arrivals were tried: their bursts queued requests behind the heavy
// pairs, and the p90 moved 0.35 (quartile range over median) from seed
// to seed.
std::vector<double> stratified_schedule(double start, std::size_t count,
                                        double duration, dmf::Rng& rng) {
  std::vector<double> out;
  const double slot = duration / static_cast<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(start + slot * (static_cast<double>(i) + rng.next_double()));
  }
  return out;
}

// --- oracle ------------------------------------------------------------------

class Oracle {
 public:
  // versions[v] is the graph the server serves as version v.
  explicit Oracle(std::vector<std::shared_ptr<const dmf::Graph>> versions)
      : versions_(std::move(versions)) {}

  const dmf::Graph& graph(std::size_t v) const { return *versions_.at(v); }
  std::size_t num_versions() const { return versions_.size(); }

  double opt(std::size_t v, NodeId s, NodeId t) {
    const auto key = std::make_tuple(v, s, t);
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    const double value = dmf::dinic_max_flow_value(graph(v), s, t);
    std::lock_guard<std::mutex> lock(mu_);
    cache_[key] = value;
    return value;
  }

  // Checks one answered query; returns "" when correct. `ratio` gets the
  // value over OPT for value-bearing answers (else untouched).
  std::string check(const Request& q, const Json& doc, double* ratio) {
    if (q.kind == kMutate) return "";  // checked against the mirror
    const Json* result = doc.find("result");
    const Json* version_field = doc.find("served_version");
    if (result == nullptr || version_field == nullptr) {
      return "response without result/served_version";
    }
    const auto v = static_cast<std::size_t>(
        version_field->as_int("served_version"));
    if (v >= versions_.size()) return "served_version beyond the last publish";
    const dmf::Graph& g = graph(v);
    switch (q.kind) {
      case kMaxFlow:
      case kExact: {
        const double value = member(*result, "value").as_number("value");
        const double best = opt(v, q.s, q.t);
        *ratio = value / best;
        if (q.kind == kExact) {
          if (std::abs(value - best) > 1e-9 * (1.0 + best)) {
            return "exact max_flow " + fmt(value) + " != Dinic " + fmt(best);
          }
        } else if (value > best * (1.0 + 1e-9) ||
                   value < (1.0 - kEpsilon) * best) {
          return "Sherman value " + fmt(value) + " outside [(1-eps)OPT, OPT]" +
                 " with OPT " + fmt(best);
        }
        if (const Json* flow = result->find("flow")) {
          const std::vector<double> f = numbers(*flow);
          std::string why = check_flow(
              g, f, dmf::st_demand(g.num_nodes(), q.s, q.t, value), nullptr);
          if (!why.empty()) return "max_flow " + why;
        }
        return "";
      }
      case kRoute: {
        const std::vector<double> f = numbers(member(*result, "flow"));
        return check_flow(g, f, q.demand, nullptr, /*capacity=*/false);
      }
      case kMulti: {
        const double value = member(*result, "value").as_number("value");
        const dmf::SuperTerminalGraph st =
            dmf::build_super_terminal_graph(g, q.sources, q.sinks);
        const double best =
            dmf::dinic_max_flow_value(st.graph, st.super_source, st.super_sink);
        *ratio = value / best;
        if (value > best * (1.0 + 1e-9) || value < (1.0 - kEpsilon) * best) {
          return "multi_terminal value " + fmt(value) +
                 " outside [(1-eps)OPT, OPT] with OPT " + fmt(best);
        }
        std::vector<char> terminal(static_cast<std::size_t>(g.num_nodes()), 0);
        for (const NodeId x : q.sources) terminal[static_cast<std::size_t>(x)] = 1;
        for (const NodeId x : q.sinks) terminal[static_cast<std::size_t>(x)] = 1;
        const std::vector<double> f = numbers(member(*result, "flow"));
        return check_flow(g, f, std::vector<double>(terminal.size(), 0.0),
                          &terminal);
      }
      case kCongest: {
        const double value =
            member(*result, "flow_value").as_number("flow_value");
        const double best = opt(v, q.s, q.t);
        if (std::abs(value - best) > 1e-9 * (1.0 + best)) {
          return "congest flow " + fmt(value) + " != Dinic " + fmt(best);
        }
        return "";
      }
      case kMutate:
        break;
    }
    return "unknown kind";
  }

 private:
  // A member every answer of its kind carries. A missing one throws, and
  // the caller records the answer as unreadable.
  static const Json& member(const Json& obj, const char* key) {
    const Json* m = obj.find(key);
    if (m == nullptr) {
      throw std::runtime_error(std::string("response without ") + key);
    }
    return *m;
  }

  static std::vector<double> numbers(const Json& arr) {
    std::vector<double> out;
    for (const Json& x : arr.as_array("flow")) out.push_back(x.as_number("flow"));
    return out;
  }

  // Capacity feasibility and conservation against `demand` (skipping the
  // nodes `skip` marks). JSON carries 12 significant digits.
  static std::string check_flow(const dmf::Graph& g,
                                const std::vector<double>& f,
                                const std::vector<double>& demand,
                                const std::vector<char>* skip,
                                bool capacity = true) {
    if (f.size() != static_cast<std::size_t>(g.num_edges())) {
      return "flow has the wrong length";
    }
    double scale = 1.0;
    for (const double d : demand) scale = std::max(scale, std::abs(d));
    if (capacity) {
      for (dmf::EdgeId e = 0; e < g.num_edges(); ++e) {
        if (std::abs(f[static_cast<std::size_t>(e)]) >
            g.capacity(e) * (1.0 + 1e-9) + 1e-9) {
          return "flow exceeds capacity on edge " + std::to_string(e);
        }
      }
    }
    const std::vector<double> div = dmf::flow_divergence(g, f);
    for (std::size_t v = 0; v < div.size(); ++v) {
      if (skip != nullptr && (*skip)[v]) continue;
      if (std::abs(div[v] - demand[v]) > 1e-6 * scale) {
        return "flow does not conserve at node " + std::to_string(v);
      }
    }
    return "";
  }

  std::vector<std::shared_ptr<const dmf::Graph>> versions_;
  std::mutex mu_;
  std::map<std::tuple<std::size_t, NodeId, NodeId>, double> cache_;
};

// --- workload definitions ----------------------------------------------------

// Every workload serves one fixed instance; the seed draws the traffic.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "serve_st") {
    // gnp n=256, average degree ~4. Across three instances the median
    // query execution time ranged from 232 to 296 ms; the seed draws the
    // pairs and the arrivals.
    dmf::Rng rng(0x73657276655f7374ULL);
    const NodeId n = 256;
    w.graph = std::make_shared<const dmf::Graph>(
        dmf::make_gnp_connected(n, 4.0 / n, {1, 8}, rng));
    w.trees = 24;  // ceil(3 log2 n), pinned
    w.limit_s = 1.5;
  } else if (name == "route_mix") {
    // A 16x16 grid: across grid instances the hierarchy's alpha moves
    // AlmostRoute iterations by up to ~6x. The seed draws the order and
    // the CONGEST pairs (see route_mix_requests).
    dmf::Rng rng(0x726f7574656d6978ULL);
    w.graph = std::make_shared<const dmf::Graph>(
        dmf::make_grid(16, 16, {1, 8}, rng));
    w.trees = 24;
    w.binary = true;
    w.limit_s = 10.0;
  } else if (name == "mutate_persist") {
    // gnp n=16384: rebuild cost, and with it how long reads share the
    // cores with a rebuild, depends on the instance.
    dmf::Rng rng(0x6d75746174655f70ULL);
    const NodeId n = 16384;
    w.graph = std::make_shared<const dmf::Graph>(
        dmf::make_gnp_connected(n, 4.0 / n, {1, 8}, rng));
    w.trees = 42;
    w.limit_s = 0.5;
    w.setup_reps = 5;  // each spawn builds 42 trees, ~3 s
  }
  return w;
}

// route_mix: the same multiset in every kRouteMixCycle-request cycle — 7
// route (a pool of 4 demands with Zipf-like counts 3,2,1,1), 4
// multi_terminal (each of 2 terminal sets twice), 1 congest — shuffled
// by the seed. Runs measure whole cycles, so every run does the same
// work. Latencies form clusters by kind, and one terminal set costs more
// than everything else. In 10-request cycles with one query per set,
// that set was exactly the top tenth: the p90 sat on the boundary and
// flipped between ~2.5 s and ~2.9 s from run to run. With 12, the p50
// and the p90 lie at least 6% of the requests from any boundary.
constexpr std::size_t kRouteMixCycle = 12;

std::vector<Request> route_mix_requests(const dmf::Graph& g,
                                        std::uint64_t seed,
                                        std::size_t cycles) {
  const NodeId n = g.num_nodes();
  dmf::Rng pool_rng(0x706f6f6cULL);
  std::vector<std::vector<double>> demands;
  for (int d = 0; d < 4; ++d) {
    std::vector<double> b(static_cast<std::size_t>(n), 0.0);
    for (const auto& [s, t] : distinct_pairs(n, 4, pool_rng)) {
      b[static_cast<std::size_t>(s)] += 1.0;
      b[static_cast<std::size_t>(t)] -= 1.0;
    }
    demands.push_back(std::move(b));
  }
  std::vector<std::pair<std::vector<NodeId>, std::vector<NodeId>>> sets;
  for (int k = 0; k < 2; ++k) {
    std::vector<std::size_t> idx = pool_rng.sample_indices(
        static_cast<std::size_t>(n), 6);
    std::vector<NodeId> src;
    std::vector<NodeId> snk;
    for (int i = 0; i < 3; ++i) src.push_back(static_cast<NodeId>(idx[i]));
    for (int i = 3; i < 6; ++i) snk.push_back(static_cast<NodeId>(idx[i]));
    sets.emplace_back(src, snk);
  }
  const int counts[4] = {3, 2, 1, 1};
  dmf::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x524d);
  std::vector<Request> out;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::vector<Request> cycle;
    for (int d = 0; d < 4; ++d) {
      for (int k = 0; k < counts[d]; ++k) {
        cycle.push_back(route_request(demands[static_cast<std::size_t>(d)]));
      }
    }
    for (const auto& [sources, sinks] : sets) {
      cycle.push_back(multi_request(sources, sinks));
      cycle.push_back(multi_request(sources, sinks));
    }
    const auto [s, t] = distinct_pairs(n, 1, rng).front();
    cycle.push_back(congest_request(s, t));
    rng.shuffle(cycle);
    for (Request& r : cycle) out.push_back(std::move(r));
  }
  return out;
}

// --- boot --------------------------------------------------------------------

// Spawns the server `reps` times on fresh copies of the generated store
// (each spawn builds the hierarchy) and keeps the last one running.
bool boot(const Workload& w, const RunConfig& cfg, int reps,
          std::unique_ptr<ServerProcess>* server, std::string* data_dir,
          std::vector<double>* setup_times, std::string* error) {
  for (int r = 0; r < reps; ++r) {
    const std::string dir = cfg.work_dir + "/store" + std::to_string(r);
    write_store(*w.graph, dir);
    auto proc = std::make_unique<ServerProcess>();
    const double t0 = now_s();
    if (!proc->start(cfg.serve_bin, server_args(w, dir),
                     cfg.work_dir + "/server.log", 170.0, error)) {
      return false;
    }
    if (!wait_healthy(proc->http_port(), 30.0)) {
      *error = "dmf-serve never answered /healthz";
      return false;
    }
    setup_times->push_back(now_s() - t0);
    if (r + 1 < reps) {
      proc->stop();
    } else {
      *server = std::move(proc);
      *data_dir = dir;
    }
  }
  return true;
}

// --- metric helpers ----------------------------------------------------------

// A failed call misses every latency limit.
std::vector<double> latencies_ms(const std::vector<Call>& calls) {
  std::vector<double> out;
  for (const Call& c : calls) {
    out.push_back(c.ok() ? (c.done - c.scheduled) * 1e3 : 1e12);
  }
  return out;
}

double span_of(const std::vector<Call>& calls) {
  if (calls.empty()) return 1e-9;
  double first = calls.front().scheduled;
  double last = 0.0;
  for (const Call& c : calls) {
    first = std::min(first, c.scheduled);
    last = std::max(last, c.done);
  }
  return std::max(1e-9, last - first);
}

long count_ok(const std::vector<Call>& calls) {
  long k = 0;
  for (const Call& c : calls) k += c.ok() ? 1 : 0;
  return k;
}

std::string result_dump(const std::string& body) {
  const Json doc = Json::parse(body);
  const Json* r = doc.find("result");
  return r == nullptr ? std::string() : r->dump();
}

Json get_stats(int port) {
  Conn conn(port, false);
  const Reply r = conn.call("GET", "/v1/stats", "");
  if (!r.transport_ok || r.status != 200) return Json();
  return Json::parse(r.body);
}

double num(const Json& doc, std::initializer_list<const char*> path) {
  const Json* cur = &doc;
  for (const char* key : path) {
    cur = cur->find(key);
    if (cur == nullptr) return 0.0;
  }
  return cur->is_number() ? cur->as_number("stat") : 0.0;
}

}  // namespace

bool run_workload(const RunConfig& cfg, RunOutput* out) {
  const Workload w = make_workload(cfg.workload);
  if (w.graph == nullptr) {
    out->violations.push_back("unknown workload " + cfg.workload);
    return false;
  }
  fs::create_directories(cfg.work_dir);
  const dmf::Graph& g0 = *w.graph;
  const NodeId n = g0.num_nodes();
  const int conns = std::max(1, std::min(kServerThreads, cfg.nproc));
  Tracer tracer(cfg.trace);
  Metrics& m = out->metrics;

  // ---- set-up ----
  std::unique_ptr<ServerProcess> server;
  std::string data_dir;
  std::vector<double> setup_times;
  std::string error;
  if (!boot(w, cfg, cfg.trace ? 1 : w.setup_reps, &server, &data_dir,
            &setup_times, &error)) {
    out->violations.push_back("set-up: " + error);
    return false;
  }
  const int port = w.binary ? server->binary_port() : server->http_port();

  // ---- main phase ----
  // Untraced: the measured run. Traced: half untraced, half traced, so
  // the difference is the tracing overhead.
  std::vector<Request> requests;
  std::vector<Call> main_calls;    // every call of the main phase
  std::vector<Call> ref_calls;     // serve_st: the reference-rate rung
  std::vector<Call> traced_calls;  // trace mode: the traced half
  std::vector<Call> plain_calls;   // trace mode: the untraced half
  std::vector<Call> mutate_calls;  // mutation-visibility samples
  double max_rate = 0.0;
  double goodput = 0.0;
  double lag_p90_ms = 0.0;
  dmf::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x4c4f4144);
  LayerInputs layers;

  if (w.name == "serve_st") {
    // The reference rate keeps the server ~30% busy, where latency is
    // mostly execution: near saturation a single slow pair or a burst of
    // arrivals queues everything behind it and the figures stop
    // repeating. The untraced run spends all of its time there, so its
    // p90 has ~12 samples beyond it. The traced run adds a rung far past
    // today's capacity (~10 qps on 4 cores) so a faster solver can show
    // in max_rate_qps and goodput_qps. Intermediate rungs of a few
    // seconds each were tried; their pass/fail flipped from seed to seed
    // with the heavy tail of per-pair cost.
    const double ref_rate = 4.0;
    std::vector<std::pair<double, double>> rungs;
    if (cfg.trace) {
      rungs = {{ref_rate, 0.35}, {ref_rate, 0.35}, {32.0, 0.3}};
    } else {
      rungs = {{ref_rate, 1.0}};
    }
    std::vector<std::size_t> counts;
    std::size_t total = 0;
    for (const auto& [rate, share] : rungs) {
      counts.push_back(
          static_cast<std::size_t>(std::lround(rate * share * cfg.seconds)));
      total += counts.back();
    }
    // Sherman cost varies several-fold from pair to pair, and a p90 over
    // ~120 freshly drawn pairs moved with the draw. So the pairs come
    // from one fixed pool: every run of the same length answers the same
    // distinct pairs, and the seed draws their order and arrival times.
    dmf::Rng pool_rng(0x7061697273ULL);
    auto pairs = distinct_pairs(n, total, pool_rng);
    rng.shuffle(pairs);
    for (const auto& [s, t] : pairs) {
      requests.push_back(max_flow_request(s, t, false, true));
    }
    std::size_t first = 0;
    bool failed_above = false;
    std::vector<double> lags;
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      const auto [rate, share] = rungs[r];
      const double duration = share * cfg.seconds;
      LoopSpec spec;
      spec.port = port;
      spec.conns = conns;
      spec.requests = &requests;
      spec.first = first;
      spec.schedule =
          stratified_schedule(now_s() + 0.02, counts[r], duration, rng);
      const bool traced_half = cfg.trace && r == 1;
      spec.tracer = traced_half ? &tracer : nullptr;
      const double rung_end = now_s() + 0.02 + duration;
      // Every request of a reference rung is sent and counted, however
      // late; only the overload rung drops what it could not send.
      if (rate > ref_rate) spec.deadline = rung_end + 0.5;
      std::vector<Call> calls = run_loop(spec);
      first += calls.size();
      for (const Call& c : calls) lags.push_back((c.sent - c.scheduled) * 1e3);
      // The rate of answers the server sustained: answers landing in the
      // rung's last three quarters, when an overloaded server has a
      // backlog and every worker is busy.
      const double window_start = rung_end - 0.75 * duration;
      long in_window = 0;
      for (const Call& c : calls) {
        in_window += c.ok() && c.done >= window_start && c.done < rung_end;
      }
      const double sustained =
          static_cast<double>(in_window) / (rung_end - window_start);
      // A rung passes when its p90 is within the limit and its backlog
      // does not grow: the last third of its requests, which wait behind
      // any backlog, still has a median within the limit. (One slow pair
      // at the end is not a backlog.)
      const std::vector<Call> tail(calls.begin() + calls.size() * 2 / 3,
                                   calls.end());
      const bool pass =
          quantile(latencies_ms(calls), 0.9) / 1e3 <= w.limit_s &&
          quantile(latencies_ms(tail), 0.5) / 1e3 <= w.limit_s;
      if (!failed_above) {
        if (pass) {
          max_rate = rate;
        } else {
          failed_above = true;
          // The rate the overloaded rung sustained marks the crossing,
          // bounded by the ladder rates on either side.
          max_rate = std::clamp(sustained, max_rate, rate);
        }
      }
      // Open loop: goodput is what the top (overloaded) rung sustained.
      if (r + 1 == rungs.size()) goodput = sustained;
      if (r == 0) ref_calls = calls;
      if (cfg.trace && r < 2) (traced_half ? traced_calls : plain_calls) = calls;
      main_calls.insert(main_calls.end(), calls.begin(), calls.end());
    }
    lag_p90_ms = quantile(lags, 0.9);
    layers.replay_rate_qps = ref_rate;
  } else if (w.name == "route_mix") {
    requests = route_mix_requests(g0, cfg.seed, 200);
    std::size_t first = 0;
    const int halves = cfg.trace ? 2 : 1;
    for (int h = 0; h < halves; ++h) {
      LoopSpec spec;
      spec.port = port;
      spec.binary = true;
      spec.conns = conns;
      spec.requests = &requests;
      spec.first = first;
      spec.deadline = now_s() + cfg.seconds / halves;
      spec.cycle = kRouteMixCycle;
      spec.tracer = h == 1 ? &tracer : nullptr;
      const std::vector<Call> calls = run_loop(spec);
      first += calls.size();
      (h == 1 ? traced_calls : plain_calls) = calls;
      main_calls.insert(main_calls.end(), calls.begin(), calls.end());
    }
  } else {  // mutate_persist
    const int halves = cfg.trace ? 2 : 1;
    // Writer: capacity jitter (6 edges, +-2%) with every 4th batch an
    // add_edge topology batch. Reader: exact max-flow closed loop.
    std::vector<Request> writes;
    for (int i = 0; i < 4000; ++i) {
      writes.push_back(i % 4 == 3 ? add_edge_request(n, rng)
                                  : jitter_request(g0, 6, 0.02, rng));
    }
    for (const auto& [s, t] : distinct_pairs(n, 20000, rng)) {
      requests.push_back(max_flow_request(s, t, true, false));
    }
    std::size_t first_w = 0;
    std::size_t first_r = 0;
    for (int h = 0; h < halves; ++h) {
      LoopSpec ws;
      ws.port = port;
      ws.requests = &writes;
      ws.first = first_w;
      ws.deadline = now_s() + cfg.seconds / halves;
      ws.tracer = h == 1 ? &tracer : nullptr;
      ws.conn_base = 100;
      LoopSpec rs = ws;
      rs.requests = &requests;
      rs.first = first_r;
      rs.think_s = 0.02;
      rs.conn_base = 0;
      std::vector<Call> wc;
      std::thread writer([&] { wc = run_loop(ws); });
      std::vector<Call> rc = run_loop(rs);
      writer.join();
      first_w += wc.size();
      first_r += rc.size();
      if (cfg.trace) (h == 1 ? traced_calls : plain_calls) = rc;
      main_calls.insert(main_calls.end(), rc.begin(), rc.end());
      mutate_calls.insert(mutate_calls.end(), wc.begin(), wc.end());
    }
    // Writes are appended after the reads so every call indexes one list.
    const std::size_t offset = requests.size();
    for (Request& r : writes) requests.push_back(std::move(r));
    for (Call& c : mutate_calls) c.req += offset;
  }

  // ---- mutation-visibility probe (serve_st / route_mix) ----
  if (w.name != "mutate_persist") {
    std::vector<Request> probes;
    // The writer mix of mutate_persist: every 4th batch adds an edge.
    for (int i = 0; i < 48; ++i) {
      probes.push_back(i % 4 == 3 ? add_edge_request(n, rng)
                                  : jitter_request(g0, 6, 0.02, rng));
    }
    LoopSpec spec;
    spec.port = server->http_port();
    spec.requests = &probes;
    spec.deadline = now_s() + 600.0;
    spec.conn_base = 100;
    std::vector<Call> calls = run_loop(spec);
    const std::size_t offset = requests.size();
    for (Request& r : probes) requests.push_back(std::move(r));
    for (Call& c : calls) c.req += offset;
    mutate_calls = std::move(calls);
  }

  // The local mirror of every version the server published.
  std::vector<std::shared_ptr<const dmf::Graph>> versions{w.graph};
  {
    dmf::GraphStore mirror(g0);
    std::vector<Call> ordered = mutate_calls;
    std::sort(ordered.begin(), ordered.end(),
              [](const Call& a, const Call& b) { return a.sent < b.sent; });
    for (const Call& c : ordered) {
      versions.push_back(mirror.apply(requests[c.req].batch).graph);
      if (!c.ok()) continue;
      const Json doc = Json::parse(c.body);
      const auto v = static_cast<std::size_t>(num(doc, {"version"}));
      const Json* reached = doc.find("version_reached");
      if (v != versions.size() - 1 || reached == nullptr ||
          !reached->as_bool("version_reached")) {
        out->violations.push_back("mutate published version " +
                                  std::to_string(v) + ", expected " +
                                  std::to_string(versions.size() - 1) +
                                  " and visible");
      }
    }
  }
  Oracle oracle(versions);

  // ---- stats, peak RSS, cold start ----
  const Json stats = get_stats(server->http_port());
  double peak_rss = server->peak_rss_mb();
  // The cold probe asks the workload's own path: a Sherman max flow,
  // except on mutate_persist, whose reads are exact. Its pair is fixed:
  // Sherman cost varies several-fold from pair to pair.
  dmf::Rng probe_rng(0x70726f6265ULL);
  const auto probe_pair = distinct_pairs(n, 1, probe_rng).front();
  const Request probe = max_flow_request(probe_pair.first, probe_pair.second,
                                         w.name == "mutate_persist", true);
  const auto ask = [&probe](Conn& conn, int conn_id) {
    Call c;
    c.conn = conn_id;
    c.sent = now_s();
    const Reply r = conn.call("POST", "/v1/query", probe.body);
    c.done = now_s();
    c.transport_ok = r.transport_ok;
    c.status = r.status;
    c.body = r.body;
    return c;
  };
  std::vector<Call> cold_calls;
  {
    Conn conn(server->http_port(), false);
    cold_calls.push_back(ask(conn, 200));
  }
  server->kill_hard();
  // Each restart reopens the same data dir after a SIGKILL; the median
  // of several is reported.
  std::vector<double> cold_times;
  for (int r = 0; r < kColdRestarts; ++r) {
    const double t0 = now_s();
    ServerProcess restarted;
    if (!restarted.start(cfg.serve_bin, server_args(w, data_dir),
                         cfg.work_dir + "/server.log", 170.0, &error)) {
      out->violations.push_back("restart: " + error);
      break;
    }
    Conn conn(restarted.http_port(), false);
    Call after = ask(conn, 201);
    while (!after.ok() && now_s() - t0 < 60.0) after = ask(conn, 201);
    cold_times.push_back(now_s() - t0);
    peak_rss = std::max(peak_rss, restarted.peak_rss_mb());
    if (!cold_calls[0].ok() || !after.ok() ||
        result_dump(cold_calls[0].body) != result_dump(after.body)) {
      out->violations.push_back(
          "cold answer after restart differs from the pre-kill answer");
    }
    cold_calls.push_back(after);
    restarted.kill_hard();
  }
  const double cold_start_s = quantile(cold_times, 0.5);
  const std::size_t probe_index = requests.size();
  requests.push_back(probe);
  for (Call& c : cold_calls) c.req = probe_index;

  // ---- oracle over every answer ----
  std::vector<Call*> all;
  for (Call& c : main_calls) all.push_back(&c);
  for (Call& c : mutate_calls) all.push_back(&c);
  for (Call& c : cold_calls) all.push_back(&c);
  std::vector<double> ratios(all.size(), -1.0);
  std::vector<std::string> why(all.size());
  {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= all.size()) break;
        const Call& c = *all[i];
        if (!c.ok()) {
          why[i] = "request failed: status " + std::to_string(c.status);
          continue;
        }
        try {
          why[i] = oracle.check(requests[c.req], Json::parse(c.body), &ratios[i]);
        } catch (const std::exception& e) {
          why[i] = std::string("unreadable answer: ") + e.what();
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < std::max(1, cfg.nproc); ++t) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> value_ratios;
  std::map<int, std::uint64_t> last_version;  // per connection
  std::vector<Call*> by_time = all;
  std::sort(by_time.begin(), by_time.end(),
            [](const Call* a, const Call* b) { return a->sent < b->sent; });
  for (std::size_t i = 0; i < all.size(); ++i) {
    out->attempted += 1;
    if (!why[i].empty()) {
      out->failed += 1;
      if (out->violations.size() < 20) {
        out->violations.push_back(std::string(kind_name(requests[all[i]->req].kind)) +
                                  ": " + why[i]);
      }
    }
    if (i < main_calls.size() && ratios[i] >= 0.0) {
      value_ratios.push_back(ratios[i]);
    }
  }
  for (const Call* c : by_time) {
    if (!c->ok() || requests[c->req].kind == kMutate || c->conn >= 200) continue;
    const auto v = static_cast<std::uint64_t>(
        num(Json::parse(c->body), {"served_version"}));
    const auto it = last_version.find(c->conn);
    if (it != last_version.end() && v < it->second) {
      out->violations.push_back("served_version decreased on connection " +
                                std::to_string(c->conn));
      out->failed += 1;
    }
    last_version[c->conn] = v;
  }

  // ---- end-to-end metrics ----
  const std::vector<Call>& latency_calls =
      w.name == "serve_st" ? ref_calls : main_calls;
  const std::vector<double> lat = latencies_ms(cfg.trace ? plain_calls : latency_calls);
  const std::vector<double> vis = latencies_ms(mutate_calls);
  if (w.name != "serve_st") {
    // Closed loops: goodput over the main phase (writes included), and
    // the rate of answers that met the latency limit.
    std::vector<Call> both = main_calls;
    both.insert(both.end(), mutate_calls.begin(), mutate_calls.end());
    const bool writes = w.name == "mutate_persist";
    goodput = static_cast<double>(count_ok(writes ? both : main_calls)) /
              span_of(writes ? both : main_calls);
    long within = 0;
    for (const Call& c : main_calls) {
      within += c.ok() && c.done - c.scheduled <= w.limit_s ? 1 : 0;
    }
    max_rate = static_cast<double>(within) / span_of(main_calls);
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double attempted = static_cast<double>(std::max(1L, out->attempted));
  if (!cfg.trace) {
    put(m, "setup_s", quantile(setup_times, 0.5), "s",
        static_cast<long>(setup_times.size()));
    put(m, "query_p50_ms", quantile(lat, 0.5), "ms", static_cast<long>(lat.size()));
    put(m, "query_p90_ms", quantile(lat, 0.9), "ms", static_cast<long>(lat.size()));
    put(m, "success_share",
        static_cast<double>(out->attempted - out->failed) / attempted, "share",
        out->attempted);
    double ratio_min = value_ratios.empty() ? 0.0 : value_ratios.front();
    for (const double r : value_ratios) ratio_min = std::min(ratio_min, r);
    put(m, "value_ratio_min", ratio_min, "ratio",
        static_cast<long>(value_ratios.size()));
    put(m, "value_ratio_mean", mean(value_ratios), "ratio",
        static_cast<long>(value_ratios.size()));
    put(m, "peak_rss_mb", peak_rss, "MB", 1);
  }

  // ---- run stamp ----
  out->stamp.push_back("nodes=" + std::to_string(n));
  out->stamp.push_back("edges=" + std::to_string(g0.num_edges()));
  out->stamp.push_back("trees_resolved=" + fmt(num(stats, {"engine", "num_trees"})));
  out->stamp.push_back("alpha=" + fmt(num(stats, {"engine", "alpha"})));
  {
    std::string mix = "solver_mix=";
    if (const Json* e = stats.find("engine")) {
      if (const Json* by = e->find("queries_by_solver")) {
        for (const auto& [name, count] : by->as_object("by_solver")) {
          mix += name + ":" + fmt(count.as_number("count")) + ";";
        }
      }
    }
    out->stamp.push_back(mix);
  }
  out->stamp.push_back("client_conns=" + std::to_string(conns));

  if (!cfg.trace) {
    server.reset();
    return true;
  }

  // ---- traced run: per-layer metrics ----
  const double served = std::max(1.0, num(stats, {"engine", "queries_served"}));
  put(m, "serve.error_share",
      static_cast<double>(out->failed) / attempted, "share", out->attempted);
  long shed = 0;
  for (const Call& c : main_calls) shed += c.status == 429 ? 1 : 0;
  put(m, "serve.shed_429", static_cast<double>(shed), "count", 1);
  put(m, "serve.wire_errors", num(stats, {"serve", "wire_errors"}), "count", 1);
  // Throughput, cold start and mutation visibility are per-layer
  // figures: across ten seeds their spread exceeded any bound the
  // benchmark may set (see README.md).
  put(m, "goodput_qps", goodput, "1/s", count_ok(main_calls));
  put(m, "max_rate_qps", max_rate, "1/s", static_cast<long>(main_calls.size()));
  put(m, "cold_start_s", cold_start_s, "s", static_cast<long>(cold_times.size()));
  put(m, "update_visible_p50_ms", quantile(vis, 0.5), "ms",
      static_cast<long>(vis.size()));
  put(m, "update_visible_p90_ms", quantile(vis, 0.9), "ms",
      static_cast<long>(vis.size()));
  put(m, "serve.generator_lag_ms_p90", lag_p90_ms, "ms",
      static_cast<long>(main_calls.size()));
  {
    std::vector<double> overhead;
    std::map<Kind, std::vector<double>> exec;
    for (const Call& c : traced_calls) {
      if (!c.ok()) continue;
      const double sec = num(Json::parse(c.body), {"seconds"});
      overhead.push_back((c.done - c.sent - sec) * 1e3);
      exec[requests[c.req].kind == kExact ? kMaxFlow : requests[c.req].kind]
          .push_back(sec * 1e3);
    }
    put(m, "serve.overhead_ms_p50", quantile(overhead, 0.5), "ms",
        static_cast<long>(overhead.size()));
    for (const Kind k : {kMaxFlow, kRoute, kMulti, kCongest}) {
      put(m, std::string("engine.exec_ms_p50.") + kind_name(k),
          quantile(exec[k], 0.5), "ms", static_cast<long>(exec[k].size()));
    }
    const double plain = quantile(latencies_ms(plain_calls), 0.5);
    const double traced = quantile(latencies_ms(traced_calls), 0.5);
    put(m, "trace.overhead_share", plain > 0 ? (traced - plain) / plain : 0.0,
        "share", static_cast<long>(traced_calls.size()));
  }
  {
    std::map<std::string, double> share{{"sherman", 0}, {"dinic", 0},
                                        {"push_relabel", 0}, {"congest", 0}};
    double total = 0.0;
    if (const Json* e = stats.find("engine")) {
      if (const Json* by = e->find("queries_by_solver")) {
        for (const auto& [name, count] : by->as_object("by_solver")) {
          const double k = count.as_number("count");
          total += k;
          if (name.rfind("sherman", 0) == 0) share["sherman"] += k;
          if (name == "dinic-exact") share["dinic"] += k;
          if (name == "push-relabel-exact") share["push_relabel"] += k;
          if (name == "congest-push-relabel") share["congest"] += k;
        }
      }
    }
    for (const auto& [name, k] : share) {
      put(m, "engine.solver_share." + name, total > 0 ? k / total : 0.0,
          "share", static_cast<long>(total));
    }
  }
  const auto rate = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  put(m, "engine.hierarchy_cache_hit_rate",
      rate(num(stats, {"engine", "hierarchy_cache_hits"}),
           num(stats, {"engine", "hierarchy_cache_misses"})),
      "share", 1);
  put(m, "engine.replay_hit_rate",
      rate(num(stats, {"engine", "result_store_hits"}),
           num(stats, {"engine", "result_store_misses"})),
      "share", 1);
  put(m, "engine.stale_served_share",
      num(stats, {"engine", "queries_served_stale"}) / served, "share",
      static_cast<long>(served));
  {
    const double completed = num(stats, {"engine", "rebuild", "completed"});
    const double repairs = num(stats, {"engine", "rebuild", "repairs_completed"});
    const double repair_s = num(stats, {"engine", "rebuild", "repair_seconds_total"});
    const double all_s = num(stats, {"engine", "rebuild", "seconds_total"});
    put(m, "engine.refresh_ms.repair", repairs > 0 ? repair_s / repairs * 1e3 : 0.0,
        "ms", static_cast<long>(repairs));
    put(m, "engine.refresh_ms.rebuild",
        completed > repairs ? (all_s - repair_s) / (completed - repairs) * 1e3 : 0.0,
        "ms", static_cast<long>(completed - repairs));
    const double repaired = num(stats, {"engine", "rebuild", "trees_repaired"});
    const double reused = num(stats, {"engine", "rebuild", "trees_reused"});
    put(m, "engine.trees_resampled_share", rate(repaired, reused), "share",
        static_cast<long>(repaired + reused));
  }
  {
    std::vector<double> iters;
    for (const Call& c : traced_calls) {
      if (!c.ok()) continue;
      const Kind k = requests[c.req].kind;
      if (k != kMaxFlow && k != kRoute) continue;
      iters.push_back(num(Json::parse(c.body), {"result", "gradient_iterations"}));
    }
    put(m, "maxflow.iterations_per_query", mean(iters), "count",
        static_cast<long>(iters.size()));
  }

  layers.workload = w.name;
  layers.seed = cfg.seed;
  layers.budget_s = std::max(2.0, cfg.seconds / 4.0);
  layers.graph = w.graph;
  layers.engine_options = engine_options(w);
  layers.conns = conns;
  // The in-process engine serves version 0, so the parity query is the
  // first answer the server gave from version 0.
  for (const Call& c : main_calls) {
    if (c.ok() && num(Json::parse(c.body), {"served_version"}) == 0) {
      layers.parity_query = requests[c.req].body;
      layers.parity_result = result_dump(c.body);
      break;
    }
  }
  for (const Call& c : traced_calls) {
    layers.query_bodies.push_back(requests[c.req].body);
    if (requests[c.req].s >= 0 && layers.pairs.size() < 16) {
      layers.pairs.emplace_back(requests[c.req].s, requests[c.req].t);
    }
  }
  if (layers.pairs.empty()) layers.pairs = distinct_pairs(n, 8, rng);
  layers.route_replica = w.name != "mutate_persist";
  layers.super_terminal = n <= 4096;
  layers.congest_replica = n <= 4096;
  layers.persist_dir = cfg.work_dir + "/persist";
  run_layers(layers, tracer, &m, &out->violations);

  const std::map<std::string, double> self = tracer.self_seconds_by_module();
  double self_total = 0.0;
  for (const auto& [module, s] : self) self_total += s;
  for (const char* module : {"client", "serve", "engine", "maxflow", "capprox",
                             "cluster", "graph", "persist", "baselines",
                             "congest"}) {
    const auto it = self.find(module);
    put(m, std::string("trace.self_share.") + module,
        it == self.end() || self_total <= 0 ? 0.0 : it->second / self_total,
        "share", static_cast<long>(tracer.size()));
  }
  fs::create_directories(cfg.work_dir + "/../traces");
  tracer.write_json(cfg.work_dir + "/../traces/" + w.name + "-" +
                    std::to_string(cfg.seed) + ".json");
  server.reset();
  return true;
}

}  // namespace pb
