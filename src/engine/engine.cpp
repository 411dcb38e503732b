#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include <cstring>
#include <deque>
#include <unordered_map>

#include "baselines/adapters.h"
#include "engine/hierarchy_cache.h"
#include "engine/solver_select.h"
#include "graph/algorithms.h"
#include "graph/flow.h"
#include "maxflow/hierarchy_io.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace dmf {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Rebuild tasks outrank every query so staleness stays bounded by one
// build, not by the queue depth; with >= 2 workers the remaining
// workers keep serving queries from the previous snapshot meanwhile. A
// sharded engine runs them on the pool's control lane instead.
constexpr int kRebuildPriority = std::numeric_limits<int>::max();

// Multi-terminal hierarchies retained per serving generation (each owns
// an augmented graph + hierarchy), least-recently-used beyond that.
// Eviction never changes results: a re-requested set rebuilds the
// identical hierarchy, it just pays the build again.
constexpr std::size_t kHierarchyCacheCapacity = 64;
// Replay-store entries retained per shard per generation (FIFO
// eviction). Stores are dropped whole with their generation, so
// replayed results never mix versions.
constexpr std::size_t kShardResultStoreCapacity = 4096;

// A query epsilon <= 0 selects the engine default; any other value must
// be a finite accuracy below 1. JSON's 1e999 parses to +inf, which would
// otherwise pass as an accuracy and switch AlmostRoute off.
bool valid_query_epsilon(double epsilon) {
  return std::isfinite(epsilon) && epsilon < 1.0;
}

// Content hashing for per-terminal-set RNG streams and lane routing
// (FNV-1a over 64-bit words).
struct ContentHash {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t word) {
    state ^= word;
    state *= 0x100000001b3ULL;
  }
};

// --- sharded-backend plumbing ------------------------------------------------

// Per-shard, per-generation replay store: exact-content keys map to the
// Result an identical earlier query of the same snapshot produced. Only
// ok results are retained, FIFO-evicted at capacity. Deliberately NOT
// thread-safe: run-to-completion sharding guarantees a store is only
// ever touched by its shard's worker thread.
template <typename Payload>
class ResultStore {
 public:
  explicit ResultStore(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] const Result<Payload>* find(const std::string& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  void insert(const std::string& key, const Result<Payload>& value) {
    if (capacity_ == 0) return;
    if (map_.size() >= capacity_) {
      map_.erase(order_.front());
      order_.pop_front();
    }
    if (map_.emplace(key, value).second) order_.push_back(key);
  }

 private:
  std::size_t capacity_;
  std::unordered_map<std::string, Result<Payload>> map_;
  std::deque<std::string> order_;  // insertion order, for FIFO eviction
};

struct ShardMemo {
  struct Stores {
    ResultStore<MaxFlowApproxResult> max_flow;
    ResultStore<RouteResult> route;
    ResultStore<MultiTerminalMaxFlowResult> multi_terminal;
    ResultStore<CongestRunResult> congest;
    explicit Stores(std::size_t capacity)
        : max_flow(capacity),
          route(capacity),
          multi_terminal(capacity),
          congest(capacity) {}
  };
  std::vector<std::unique_ptr<Stores>> per_shard;

  ShardMemo(int num_shards, std::size_t capacity) {
    per_shard.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      per_shard.push_back(std::make_unique<Stores>(capacity));
    }
  }
};

ResultStore<MaxFlowApproxResult>& store_for(ShardMemo::Stores& stores,
                                            const MaxFlowQuery&) {
  return stores.max_flow;
}
ResultStore<RouteResult>& store_for(ShardMemo::Stores& stores,
                                    const RouteQuery&) {
  return stores.route;
}
ResultStore<MultiTerminalMaxFlowResult>& store_for(
    ShardMemo::Stores& stores, const MultiTerminalQuery&) {
  return stores.multi_terminal;
}
ResultStore<CongestRunResult>& store_for(ShardMemo::Stores& stores,
                                         const CongestQuery&) {
  return stores.congest;
}

// Exact-content replay keys: raw little-endian bytes of every field
// that exec() reads, so two queries share a key iff exec() cannot tell
// them apart (multi-terminal sets are canonicalized first, matching
// exec's own canonicalization).
void key_append(std::string& key, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>((word >> (8 * i)) & 0xff));
  }
}

void key_append(std::string& key, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  key_append(key, bits);
}

std::string memo_key(const MaxFlowQuery& q) {
  std::string key(1, 'F');
  key_append(key, static_cast<std::uint64_t>(q.s));
  key_append(key, static_cast<std::uint64_t>(q.t));
  key_append(key, q.epsilon);
  key.push_back(q.exact ? '\1' : '\0');
  return key;
}

std::string memo_key(const RouteQuery& q) {
  std::string key(1, 'R');
  key.reserve(1 + 8 * q.demand.size());
  for (const double d : q.demand) key_append(key, d);
  return key;
}

std::string memo_key(const MultiTerminalQuery& q) {
  std::string key(1, 'M');
  for (const NodeId v : canonical_terminals(q.sources)) {
    key_append(key, static_cast<std::uint64_t>(v));
  }
  key_append(key, std::uint64_t{0xffffffffffffffffULL});  // set separator
  for (const NodeId v : canonical_terminals(q.sinks)) {
    key_append(key, static_cast<std::uint64_t>(v));
  }
  key_append(key, q.epsilon);
  key.push_back(q.exact ? '\1' : '\0');
  return key;
}

std::string memo_key(const CongestQuery& q) {
  std::string key(1, 'C');
  key_append(key, static_cast<std::uint64_t>(q.source));
  key_append(key, static_cast<std::uint64_t>(q.sink));
  key_append(key, static_cast<std::uint64_t>(q.max_rounds));
  key_append(key, static_cast<std::uint64_t>(q.threads));
  return key;
}

// Content routing (sharded backend): a query's lane is a hash of its
// replay key, so identical queries always meet the same lane's replay
// store. One mix per key byte: byte-wise FNV-1a.
int lane_of(const std::string& key, int num_shards) {
  ContentHash h;
  for (const char c : key) h.mix(static_cast<unsigned char>(c));
  return static_cast<int>(h.state % static_cast<std::uint64_t>(num_shards));
}

}  // namespace

// --- Core --------------------------------------------------------------------

struct FlowEngine::Core {
  // Everything a query needs to run against one consistent graph
  // generation. Immutable once published; queries grab the current one
  // at execution start and keep it (shared_ptr) until they resolve, so
  // a concurrent swap can never mix generations within a query. The
  // HierarchyCache lives here — per snapshot — so multi-terminal
  // entries of different generations can never be confused. One cache
  // serves every lane: it is thread-safe and its builds are
  // content-seeded, so which lane builds an entry never shows.
  struct Serving {
    GraphSnapshot snapshot;
    std::shared_ptr<const ShermanHierarchy> hierarchy;
    ShermanSolver solver;  // default-accuracy solver on the hierarchy
    std::shared_ptr<HierarchyCache> cache;
    // Replay stores, one per shard, owned exclusively by that shard's
    // worker; dropped whole with this generation (sharded backend only;
    // null when num_shards == 0).
    std::shared_ptr<ShardMemo> memo;

    Serving(GraphSnapshot snap, std::shared_ptr<const ShermanHierarchy> h,
            const ShermanOptions& solver_options, int num_shards)
        : snapshot(std::move(snap)),
          hierarchy(std::move(h)),
          solver(hierarchy, solver_options),
          cache(std::make_shared<HierarchyCache>(kHierarchyCacheCapacity)) {
      if (num_shards > 0) {
        memo = std::make_shared<ShardMemo>(num_shards,
                                           kShardResultStoreCapacity);
      }
    }
  };

  std::shared_ptr<GraphStore> store;
  EngineOptions options;
  mutable Mutex stats_mutex;
  EngineStats stats DMF_GUARDED_BY(stats_mutex);
  // Whether the engine derived route_residual_tolerance itself (the
  // caller left it at the library default with tuning enabled); only
  // then may per-query option derivation re-derive it.
  bool routing_tuned = false;
  // The derived options every hierarchy build uses — identical for the
  // constructor build and every background rebuild, so a rebuilt
  // hierarchy is bitwise identical to the one a fresh engine would
  // build on the same snapshot.
  ShermanOptions build_sherman;
  // --- hierarchy persistence (store has a data_dir; see hierarchy_io.h) ---
  // Fingerprint of build_sherman + seed; a persisted hierarchy loads
  // only when it matches, so stale saves can never serve.
  std::uint64_t hier_fingerprint = 0;
  // Save the hierarchy alongside every persisted snapshot (policy
  // kOnPublish). Manual persist() saves regardless of this flag.
  bool hier_autosave = false;

  // --- versioned serving state (guarded by version_mutex) ---
  // Lock order: version_mutex may be taken first and stats_mutex inside
  // it; never the reverse. Pool locks are below both (the pool never
  // calls back into the engine while holding its own lock).
  mutable Mutex version_mutex DMF_ACQUIRED_BEFORE(stats_mutex);
  CondVar version_cv;  // signaled on every swap
  std::shared_ptr<const Serving> serving DMF_GUARDED_BY(version_mutex);
  // Highest version a build has already begun (or finished) for;
  // coalesces the rebuild tasks of back-to-back applies.
  GraphVersion rebuild_target DMF_GUARDED_BY(version_mutex) = 0;
  // Rebuild tasks scheduled but not yet finished (run to completion,
  // failed, skipped, or cancelled at shutdown). wait_for_version and
  // the failure path use it to tell "a build toward this version is
  // still coming" from "nothing pending can serve this version".
  int pending_rebuilds DMF_GUARDED_BY(version_mutex) = 0;
  struct ParkedQuery {
    std::uint64_t id = 0;
    GraphVersion min_version = 0;
  };
  std::vector<ParkedQuery> parked DMF_GUARDED_BY(version_mutex);
  // Cache counters of retired snapshots, folded in on swap so stats
  // stay cumulative across generations.
  std::int64_t retired_cache_hits DMF_GUARDED_BY(stats_mutex) = 0;
  std::int64_t retired_cache_misses DMF_GUARDED_BY(stats_mutex) = 0;
  // For releasing parked queries after a swap; weak so Core never keeps
  // the pool (and its threads) alive past the engine.
  std::weak_ptr<WorkerPool> pool;

  // --- sharded backend (options.shards; 0 = classic pool) ---
  int num_shards = 0;
  // Replay counters, cumulative across generations. One slot per shard
  // behind a unique_ptr so the atomics never move; only that shard's
  // worker bumps them.
  struct ShardCounters {
    std::atomic<std::int64_t> store_hits{0};
    std::atomic<std::int64_t> store_misses{0};
  };
  std::vector<std::unique_ptr<ShardCounters>> shard_counters;

  Core(std::shared_ptr<GraphStore> store_in, EngineOptions opts)
      : store(std::move(store_in)), options(std::move(opts)) {
    DMF_REQUIRE(store != nullptr, "FlowEngine: null graph store");
    DMF_REQUIRE(options.shards >= 0, "FlowEngine: negative shard count");
    num_shards = options.shards;
    shard_counters.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      shard_counters.push_back(std::make_unique<ShardCounters>());
    }
    // Derive the AlmostRoute accuracy from the engine accuracy when
    // the caller left it at the library default, mirroring
    // approx_max_flow / approx_max_flow_multi.
    if (options.sherman.almost_route.epsilon ==
        AlmostRouteOptions{}.epsilon) {
      options.sherman.almost_route.epsilon =
          std::min(0.5, options.sherman.epsilon);
    }
    if (options.tune_routing_for_throughput &&
        options.sherman.route_residual_tolerance ==
            ShermanOptions{}.route_residual_tolerance) {
      options.sherman.route_residual_tolerance =
          options.sherman.epsilon / 4.0;
      routing_tuned = true;
    }
    // Engine-level default for structural capacity quantization (the
    // enabler of incremental hierarchy repair). Applied to
    // options.sherman — not just build_sherman — so super-terminal
    // cache builds quantize identically; a fresh engine derives the
    // same value, preserving the per-version bitwise contract.
    if (options.capacity_quantization_octaves > 0.0 &&
        options.sherman.hierarchy.capacity_bucket_octaves ==
            HierarchyOptions{}.capacity_bucket_octaves) {
      options.sherman.hierarchy.capacity_bucket_octaves =
          options.capacity_quantization_octaves;
    }
    build_sherman = options.sherman;
    if (build_sherman.hierarchy.threads == 1) {
      // The engine parallelizes the build on its own worker budget.
      build_sherman.hierarchy.threads =
          resolve_worker_threads(options.threads);
    }
    hier_fingerprint = hierarchy_fingerprint(build_sherman, options.seed);
    hier_autosave = store->persistence_enabled() &&
                    store->options().persist == PersistPolicy::kOnPublish;
    const GraphSnapshot snap = store->snapshot();
    const auto start = std::chrono::steady_clock::now();
    // Cold-start fast path: a hierarchy persisted for this exact
    // snapshot + options is read back in with zero sampling. Any failure
    // (corrupt file, mismatch) falls through to a normal build.
    if (store->persistence_enabled()) {
      try {
        std::shared_ptr<const ShermanHierarchy> loaded =
            load_hierarchy(store->data_dir(), snap, hier_fingerprint);
        if (loaded != nullptr) {
          serving = std::make_shared<const Serving>(
              snap, std::move(loaded), options.sherman, num_shards);
          stats.hierarchy_cold_loads = 1;
        }
      } catch (...) {
        ++stats.hierarchy_load_failures;
      }
    }
    if (serving == nullptr) {
      serving = build_serving(snap);
      save_hierarchy_best_effort(*serving->hierarchy);
    }
    stats.build_seconds = seconds_since(start);
    stats.build_rounds = serving->hierarchy->build_rounds();
    stats.num_trees = serving->hierarchy->approximator().num_trees();
    stats.alpha = serving->hierarchy->alpha();
    rebuild_target = snap.version;
  }

  // Write `h` next to the store's persisted snapshot so a restart
  // cold-opens without sampling. Never throws: persistence is an
  // availability feature and must not fail a build or a swap.
  void save_hierarchy_best_effort(const ShermanHierarchy& h) {
    if (!hier_autosave) return;
    try {
      save_hierarchy(store->data_dir(), h, hier_fingerprint);
      MutexLock lock(stats_mutex);
      ++stats.hierarchy_saves;
    } catch (...) {
      // Leave the partial files; the meta-written-last protocol makes
      // them read back as "no saved hierarchy".
    }
  }

  // One hierarchy build, shared by the constructor and every background
  // refresh: seeded purely from the engine seed, so the result for a
  // snapshot is independent of when (or whether) earlier refreshes ran —
  // and bitwise identical to a fresh engine built on that snapshot.
  // A refresh passes the serving generation as `prev`; the build reuses
  // whichever of its trees it would reproduce (see ShermanHierarchy) and
  // reports that in `report`.
  [[nodiscard]] std::shared_ptr<const Serving> build_serving(
      const GraphSnapshot& snap, const Serving* prev = nullptr,
      HierarchyRepairReport* report = nullptr) const {
    Rng rng(options.seed);
    HierarchyRepairReport local_report;
    if (report == nullptr) report = &local_report;
    // The hierarchy rides the snapshot's packed CSR view (built once at
    // publish time); every query traversal of this generation shares it.
    auto hierarchy = std::make_shared<const ShermanHierarchy>(
        snap.graph, build_sherman, rng, snap.version, snap.csr,
        prev != nullptr ? prev->hierarchy.get() : nullptr, report);
    return std::make_shared<const Serving>(snap, std::move(hierarchy),
                                           options.sherman, num_shards);
  }

  [[nodiscard]] std::shared_ptr<const Serving> current_serving() const {
    MutexLock lock(version_mutex);
    return serving;
  }

  // Remove and return the parked ids satisfied by `version`. Caller
  // holds version_mutex.
  std::vector<std::uint64_t> take_parked_up_to(GraphVersion version)
      DMF_REQUIRES(version_mutex) {
    std::vector<std::uint64_t> ids;
    auto it = parked.begin();
    while (it != parked.end()) {
      if (it->min_version <= version) {
        ids.push_back(it->id);
        it = parked.erase(it);
      } else {
        ++it;
      }
    }
    return ids;
  }

  // Caller holds version_mutex. Every scheduled rebuild task finishes
  // through here exactly once (completion, failure, skip, or shutdown
  // cancellation); waiters re-check their predicate afterwards.
  void finish_pending_rebuild_locked() DMF_REQUIRES(version_mutex) {
    DMF_ASSERT(pending_rebuilds > 0, "pending_rebuilds underflow");
    --pending_rebuilds;
  }

  // The background refresh task body. Builds the hierarchy for the
  // store's newest snapshot (coalescing any intermediate versions),
  // reusing the serving hierarchy's clean trees, and swaps it in
  // atomically; queries keep running against the previous Serving
  // throughout. Never throws — the pool requires it.
  void run_rebuild() {
    GraphSnapshot target;
    std::shared_ptr<const Serving> prev;
    {
      MutexLock lock(version_mutex);
      target = store->snapshot();
      if (serving->snapshot.version >= target.version ||
          rebuild_target >= target.version) {  // current or already building
        finish_pending_rebuild_locked();
        version_cv.notify_all();
        return;
      }
      rebuild_target = target.version;
      prev = serving;
    }
    {
      MutexLock lock(stats_mutex);
      ++stats.rebuild.started;
    }
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const Serving> next;
    HierarchyRepairReport report;
    // The build compares the serving snapshot to the target directly
    // (not the batch), so coalesced applies and repair-after-repair
    // chains fall out naturally.
    try {
      next = build_serving(target, prev.get(), &report);
    } catch (...) {
      next = nullptr;
    }
    if (report.attempted) {
      MutexLock lock(stats_mutex);
      ++stats.rebuild.repairs_started;
    }
    if (next == nullptr) {
      // The snapshot cannot be served (e.g. the batch disconnected the
      // graph). Keep serving the previous snapshot. Queries parked for
      // a version this build was meant to satisfy are resolved — but
      // only when no other rebuild is pending: a concurrent or queued
      // build targets a version >= ours, so on success it releases
      // them and on failure it reaches this same path with nothing
      // left pending.
      std::vector<std::uint64_t> doomed;
      {
        MutexLock lock(version_mutex);
        if (rebuild_target == target.version) {
          rebuild_target = serving->snapshot.version;  // allow a retry
        }
        finish_pending_rebuild_locked();
        if (pending_rebuilds == 0) {
          doomed = take_parked_up_to(target.version);
        }
      }
      {
        MutexLock lock(stats_mutex);
        ++stats.rebuild.failed;
      }
      version_cv.notify_all();
      if (auto p = pool.lock()) {
        for (const std::uint64_t id : doomed) {
          p->fail_parked(id, ErrorCode::kVersionUnavailable);
        }
      }
      return;
    }
    const double build_seconds = seconds_since(start);
    // Persist before the swap: once serving_version reports the new
    // version, the hierarchy that serves it is already durable — a
    // SIGKILL any time after cannot force the next boot to rebuild.
    save_hierarchy_best_effort(*next->hierarchy);
    std::shared_ptr<const Serving> retired;
    std::vector<std::uint64_t> ready;
    {
      MutexLock lock(version_mutex);
      finish_pending_rebuild_locked();
      if (serving->snapshot.version >= target.version) {  // lost race
        version_cv.notify_all();
        return;
      }
      retired = serving;
      serving = next;
      ready = take_parked_up_to(target.version);
      // Stats land before waiters wake: once wait_for_version returns,
      // stats() already accounts the refresh that released it.
      MutexLock stats_lock(stats_mutex);
      ++stats.rebuild.completed;
      stats.rebuild.seconds_total += build_seconds;
      if (report.attempted) {
        ++stats.rebuild.repairs_completed;
        stats.rebuild.trees_repaired += report.trees_repaired;
        stats.rebuild.trees_reused += report.trees_reused;
        stats.rebuild.repair_seconds_total += build_seconds;
      }
      stats.num_trees = next->hierarchy->approximator().num_trees();
      stats.alpha = next->hierarchy->alpha();
      // The retired snapshot's cache is dropped with it; fold its
      // counters in so engine totals stay cumulative.
      retired_cache_hits += retired->cache->hits();
      retired_cache_misses += retired->cache->misses();
    }
    version_cv.notify_all();
    if (auto p = pool.lock()) {
      for (const std::uint64_t id : ready) p->release(id);
    }
  }

  // Per-query ShermanOptions for a non-default accuracy, mirroring the
  // engine-level derivation.
  [[nodiscard]] ShermanOptions options_for_epsilon(double epsilon) const {
    ShermanOptions per_query = options.sherman;
    if (epsilon > 0.0 && epsilon != options.sherman.epsilon) {
      per_query.epsilon = epsilon;
      per_query.almost_route.epsilon = std::min(0.5, epsilon);
      if (routing_tuned) {
        per_query.route_residual_tolerance = epsilon / 4.0;
      }
    }
    return per_query;
  }

  // Multi-terminal variant: on the super-terminal instance the virtual
  // edges carry the whole flow, so leftover residual shaves value
  // directly — the epsilon/4 tolerance that costs s-t queries well under
  // 1% costs multi-terminal queries ~2%. Tune gentler (epsilon/16, one
  // extra AlmostRoute call) to stay within ~0.1% of the conservative
  // routing while remaining several times faster than untuned.
  [[nodiscard]] ShermanOptions multi_terminal_options_for_epsilon(
      double epsilon) const {
    ShermanOptions per_query = options_for_epsilon(epsilon);
    if (routing_tuned) {
      per_query.route_residual_tolerance = epsilon / 16.0;
    }
    return per_query;
  }

  // Seed for a terminal set's hierarchy build: a content hash of the
  // canonical sets mixed with the engine seed. Independent of epsilon,
  // submission order, and everything else in flight — the cornerstone of
  // the cache's determinism contract. Deliberately also independent of
  // the snapshot version: a fresh engine built directly on a mutated
  // graph derives the same seeds, so post-swap results match it bitwise.
  [[nodiscard]] std::uint64_t terminal_seed(
      const std::vector<NodeId>& sources,
      const std::vector<NodeId>& sinks) const {
    ContentHash h;
    h.mix(options.seed);
    h.mix(0x4d54ULL);  // tag: multi-terminal
    for (const NodeId s : sources) h.mix(static_cast<std::uint64_t>(s));
    h.mix(0xffffffffffffffffULL);
    for (const NodeId t : sinks) h.mix(static_cast<std::uint64_t>(t));
    return h.state;
  }

  [[nodiscard]] SuperTerminalHierarchy build_entry(
      const Serving& serving_state, const std::vector<NodeId>& sources,
      const std::vector<NodeId>& sinks) const {
    ShermanOptions sherman = options.sherman;
    // Cache builds run on pool workers, possibly several keys at once;
    // keep each build's tree sampling sequential instead of
    // oversubscribing the machine.
    sherman.hierarchy.threads = 1;
    Rng rng(terminal_seed(sources, sinks));
    return build_super_terminal_hierarchy(*serving_state.snapshot.graph,
                                          sources, sinks, sherman, rng,
                                          serving_state.snapshot.version);
  }

  // --- typed execution (validation, dispatch, classification) ---
  // Every exec runs against ONE Serving, grabbed by the caller at
  // execution start: graph, hierarchy, and cache all belong to the same
  // snapshot generation.

  Result<MaxFlowApproxResult> exec(const MaxFlowQuery& q, const Serving& sv) {
    using R = Result<MaxFlowApproxResult>;
    const Graph& g = *sv.snapshot.graph;
    if (!g.is_valid_node(q.s) || !g.is_valid_node(q.t)) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "max-flow query: invalid terminal id");
    }
    if (q.s == q.t) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "max-flow query: source equals sink");
    }
    if (!valid_query_epsilon(q.epsilon)) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "max-flow query: epsilon must be finite and < 1");
    }
    R out;
    try {
      const double epsilon =
          q.epsilon > 0.0 ? q.epsilon : options.sherman.epsilon;
      const SolverKind kind =
          select_solver(g.num_nodes(), g.num_edges(), epsilon, q.exact,
                        options.exact_cutoff_nodes);
      out.solver = solver_name(kind);
      if (kind == SolverKind::kSherman) {
        if (q.epsilon > 0.0 && q.epsilon != options.sherman.epsilon) {
          const ShermanSolver per_query(sv.hierarchy,
                                        options_for_epsilon(q.epsilon));
          out.payload = per_query.max_flow(q.s, q.t);
        } else {
          out.payload = sv.solver.max_flow(q.s, q.t);
        }
      } else {
        out.payload = exact_max_flow_adapter(kind, *sv.snapshot.csr, q.s,
                                             q.t, sv.hierarchy->bfs_height());
      }
    } catch (const std::exception& e) {
      out.code = classify_error(e);
      out.message = e.what();
      out.payload.reset();
    }
    return out;
  }

  Result<RouteResult> exec(const RouteQuery& q, const Serving& sv) {
    using R = Result<RouteResult>;
    const Graph& g = *sv.snapshot.graph;
    if (q.demand.size() != static_cast<std::size_t>(g.num_nodes())) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "route query: demand size does not match node count");
    }
    for (const double d : q.demand) {
      if (!std::isfinite(d)) {
        return R::failure(ErrorCode::kInvalidQuery,
                          "route query: demand entries must be finite");
      }
    }
    if (!demand_is_balanced(q.demand)) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "route query: demand must sum to zero");
    }
    R out;
    out.solver = "sherman-route";
    try {
      out.payload = sv.solver.route(q.demand);
    } catch (const std::exception& e) {
      out.code = classify_error(e);
      out.message = e.what();
      out.payload.reset();
    }
    return out;
  }

  Result<MultiTerminalMaxFlowResult> exec(const MultiTerminalQuery& q,
                                          const Serving& sv) {
    using R = Result<MultiTerminalMaxFlowResult>;
    const Graph& g = *sv.snapshot.graph;
    if (q.sources.empty() || q.sinks.empty()) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "multi-terminal query: empty terminal set");
    }
    if (!valid_query_epsilon(q.epsilon)) {
      return R::failure(
          ErrorCode::kInvalidQuery,
          "multi-terminal query: epsilon must be finite and < 1");
    }
    // canonical_terminals is the single canonical form everywhere on
    // this path: the cache key, terminal_seed, and the build all derive
    // from it (downstream calls re-canonicalize, which is idempotent),
    // so the cache key can never desynchronize from the build seed.
    const std::vector<NodeId> sources = canonical_terminals(q.sources);
    const std::vector<NodeId> sinks = canonical_terminals(q.sinks);
    for (const NodeId v : sources) {
      if (!g.is_valid_node(v)) {
        return R::failure(ErrorCode::kInvalidQuery,
                          "multi-terminal query: invalid source id");
      }
    }
    for (const NodeId v : sinks) {
      if (!g.is_valid_node(v)) {
        return R::failure(ErrorCode::kInvalidQuery,
                          "multi-terminal query: invalid sink id");
      }
    }
    for (const NodeId v : sinks) {
      if (std::binary_search(sources.begin(), sources.end(), v)) {
        return R::failure(
            ErrorCode::kInvalidQuery,
            "multi-terminal query: terminal sets must be disjoint");
      }
    }
    for (const std::vector<NodeId>* set : {&sources, &sinks}) {
      for (const NodeId v : *set) {
        if (sv.snapshot.csr->weighted_degree(v) <= 0.0) {
          return R::failure(ErrorCode::kIsolatedTerminal,
                            "multi-terminal query: terminal " +
                                std::to_string(v) +
                                " has no incident capacity");
        }
      }
    }
    R out;
    try {
      const double epsilon =
          q.epsilon > 0.0 ? q.epsilon : options.sherman.epsilon;
      // The super-terminal reduction solves on an augmented instance two
      // nodes and |S|+|T| edges larger; select on that instance.
      const auto extra =
          static_cast<EdgeId>(sources.size() + sinks.size());
      const SolverKind kind =
          select_solver(g.num_nodes() + 2, g.num_edges() + extra, epsilon,
                        q.exact, options.exact_cutoff_nodes);
      out.solver = solver_name(kind);
      if (kind == SolverKind::kSherman) {
        const ShermanOptions per_query =
            multi_terminal_options_for_epsilon(epsilon);
        const std::shared_ptr<const SuperTerminalHierarchy> st =
            sv.cache->get_or_build(
                sources, sinks,
                [this, &sv](const std::vector<NodeId>& srcs,
                            const std::vector<NodeId>& snks) {
                  return build_entry(sv, srcs, snks);
                });
        out.payload = solve_on_super_terminal_hierarchy(*st, per_query);
      } else {
        // Exact super-terminal reduction, then project the virtual edges
        // away. The augmented graph is not the snapshot, so its BFS
        // height is its own.
        const SuperTerminalGraph st =
            build_super_terminal_graph(g, sources, sinks);
        const CsrGraph csr(st.graph);
        const MaxFlowApproxResult raw =
            exact_max_flow_adapter(kind, csr, st.super_source, st.super_sink,
                                   build_bfs_tree(csr, 0).height);
        out.payload = project_super_terminal_flow(raw, g.num_edges());
      }
    } catch (const std::exception& e) {
      out.code = classify_error(e);
      out.message = e.what();
      out.payload.reset();
    }
    return out;
  }

  Result<CongestRunResult> exec(const CongestQuery& q, const Serving& sv) {
    using R = Result<CongestRunResult>;
    const Graph& g = *sv.snapshot.graph;
    if (!g.is_valid_node(q.source) || !g.is_valid_node(q.sink)) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "congest query: invalid terminal id");
    }
    if (q.source == q.sink) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "congest query: source equals sink");
    }
    if (q.max_rounds < 0 || q.threads < 0) {
      return R::failure(ErrorCode::kInvalidQuery,
                        "congest query: negative round or thread budget");
    }
    R out;
    out.solver = "congest-push-relabel";
    try {
      out.payload = CongestRunner::run(*sv.snapshot.csr, q);
    } catch (const std::exception& e) {
      out.code = classify_error(e);
      out.message = e.what();
      out.payload.reset();
    }
    return out;
  }

  // --- stats ---

  template <typename T>
  void absorb_common(const Result<T>& r, bool stale)
      DMF_REQUIRES(stats_mutex) {
    if (!r.ok()) {
      ++stats.queries_failed;
      return;
    }
    ++stats.queries_served;
    if (stale) ++stats.queries_served_stale;
    stats.query_seconds_total += r.seconds;
    ++stats.queries_by_solver[r.solver];
  }

  void absorb(const Result<MaxFlowApproxResult>& r, bool stale) {
    MutexLock lock(stats_mutex);
    absorb_common(r, stale);
    if (r.ok()) stats.query_rounds_total += r.payload->rounds;
  }

  void absorb(const Result<RouteResult>& r, bool stale) {
    MutexLock lock(stats_mutex);
    absorb_common(r, stale);
    if (r.ok()) {
      stats.query_rounds_total += r.payload->rounds;
      stats.max_congestion =
          std::max(stats.max_congestion, r.payload->congestion);
    }
  }

  void absorb(const Result<MultiTerminalMaxFlowResult>& r, bool stale) {
    MutexLock lock(stats_mutex);
    absorb_common(r, stale);
    if (r.ok()) stats.query_rounds_total += r.payload->rounds;
  }

  void absorb(const Result<CongestRunResult>& r, bool stale) {
    MutexLock lock(stats_mutex);
    absorb_common(r, stale);
    if (r.ok()) stats.query_rounds_total += r.payload->stats.rounds;
  }

  void absorb_cancelled() {
    MutexLock lock(stats_mutex);
    ++stats.queries_cancelled;
  }

  // Coherent snapshot: every field is copied under one critical section
  // (version_mutex, then stats_mutex inside it — the documented lock
  // order), so the counters, the serving version, and the cache totals
  // all describe the same instant.
  [[nodiscard]] EngineStats snapshot_stats() const {
    EngineStats out;
    MutexLock version_lock(version_mutex);
    const std::shared_ptr<const Serving>& s = serving;
    {
      MutexLock stats_lock(stats_mutex);
      out = stats;
      out.hierarchy_cache_hits = retired_cache_hits;
      out.hierarchy_cache_misses = retired_cache_misses;
    }
    out.hierarchy_cache_hits += s->cache->hits();
    out.hierarchy_cache_misses += s->cache->misses();
    out.serving_version = s->snapshot.version;
    out.latest_version = store->latest_version();
    // --- sharded backend breakdown ---
    out.num_shards = num_shards;
    if (num_shards > 0) {
      const std::shared_ptr<WorkerPool> lanes = pool.lock();
      out.shards.reserve(static_cast<std::size_t>(num_shards));
      for (int sh = 0; sh < num_shards; ++sh) {
        ShardStats row;
        row.shard = sh;
        const ShardCounters& counters =
            *shard_counters[static_cast<std::size_t>(sh)];
        row.result_store_hits =
            counters.store_hits.load(std::memory_order_relaxed);
        row.result_store_misses =
            counters.store_misses.load(std::memory_order_relaxed);
        if (lanes != nullptr) {
          const WorkerPool::LaneStats lane = lanes->lane_stats(sh);
          row.executed = lane.executed;
          row.queue_depth = lane.queue_depth;
        }
        out.result_store_hits += row.result_store_hits;
        out.result_store_misses += row.result_store_misses;
        out.shards.push_back(row);
      }
    }
    return out;
  }
};

// --- FlowEngine --------------------------------------------------------------

FlowEngine::FlowEngine(std::shared_ptr<GraphStore> store,
                       EngineOptions options)
    : core_(std::make_shared<Core>(std::move(store), std::move(options))),
      pool_(std::make_shared<WorkerPool>(core_->options.threads,
                                         core_->options.shards)) {
  core_->pool = pool_;
}

FlowEngine::FlowEngine(Graph graph, EngineOptions options)
    : FlowEngine(std::make_shared<GraphStore>(std::move(graph)),
                 std::move(options)) {}

FlowEngine::~FlowEngine() {
  if (pool_) pool_->shutdown();
}

FlowEngine::FlowEngine(FlowEngine&&) noexcept = default;

FlowEngine& FlowEngine::operator=(FlowEngine&& other) noexcept {
  if (this != &other) {
    if (pool_) pool_->shutdown();
    core_ = std::move(other.core_);
    pool_ = std::move(other.pool_);
  }
  return *this;
}

template <typename Query, typename Payload>
Ticket<Payload> FlowEngine::submit_impl(
    Query query, std::function<void(const Result<Payload>&)> done,
    SubmitOptions opts) {
  auto promise = std::make_shared<std::promise<Result<Payload>>>();
  std::future<Result<Payload>> future = promise->get_future();
  auto core = core_;
  // Content routing (sharded backend): the replay key picks the lane,
  // so identical queries share one lane's replay store. The lane only
  // decides where the query runs, never what it computes. An unsharded
  // engine computes no key.
  int shard = -1;
  std::string key;
  if (core->num_shards > 0) {
    key = memo_key(query);
    shard = lane_of(key, core->num_shards);
  }
  // The pool requires `run` to never throw: anything escaping it
  // would std::terminate the worker thread. exec() classifies solver
  // exceptions itself; the catch-alls here cover non-std throws and,
  // separately, a throwing user callback (the callback's exception is
  // swallowed — the ticket still resolves with the computed result).
  auto run = [core, promise, done, shard, key = std::move(key),
              query = std::move(query)] {
    const auto start = std::chrono::steady_clock::now();
    // One consistent generation for the whole query: graph, hierarchy,
    // cache, and replay store all come from this Serving, which the
    // shared_ptr keeps alive even if a rebuild swaps it out mid-query.
    const std::shared_ptr<const Core::Serving> serving =
        core->current_serving();
    Result<Payload> result;
    // Replay store (sharded backend): this shard's worker is the only
    // thread that ever touches this store, so the lookup is lock-free
    // by construction. A hit replays the identical earlier computation
    // of this same generation — bitwise equal to re-running exec().
    ShardMemo::Stores* stores =
        shard >= 0
            ? serving->memo->per_shard[static_cast<std::size_t>(shard)].get()
            : nullptr;
    bool replayed = false;
    if (stores != nullptr) {
      if (const Result<Payload>* cached = store_for(*stores, query).find(key)) {
        result = *cached;
        replayed = true;
      }
      Core::ShardCounters& counters =
          *core->shard_counters[static_cast<std::size_t>(shard)];
      (replayed ? counters.store_hits : counters.store_misses)
          .fetch_add(1, std::memory_order_relaxed);
    }
    if (!replayed) {
      try {
        result = core->exec(query, *serving);
      } catch (...) {
        result = Result<Payload>::failure(ErrorCode::kInternalError,
                                          "non-standard exception escaped "
                                          "query execution");
      }
      if (stores != nullptr && result.ok()) {
        store_for(*stores, query).insert(key, result);
      }
    }
    result.seconds = seconds_since(start);
    result.served_version = serving->snapshot.version;
    const bool stale =
        serving->snapshot.version < core->store->latest_version();
    core->absorb(result, stale);
    if (done) {
      try {
        done(result);
      } catch (...) {
      }
    }
    promise->set_value(std::move(result));
  };
  auto cancelled = [core, promise, done](ErrorCode code) {
    const char* reason = "engine shut down before execution";
    if (code == ErrorCode::kCancelled) {
      reason = "cancelled before execution";
    } else if (code == ErrorCode::kVersionUnavailable) {
      reason = "required graph version never became servable";
    }
    Result<Payload> result = Result<Payload>::failure(code, reason);
    core->absorb_cancelled();
    if (done) {
      try {
        done(result);
      } catch (...) {
      }
    }
    promise->set_value(std::move(result));
  };
  const int lane = shard < 0 ? 0 : shard;  // a pool without lanes has lane 0
  std::uint64_t id = 0;
  bool submitted = false;
  if (opts.min_version > 0) {
    // Park under the version lock: a swap flushing the parked list also
    // holds it, so the query either sees a fresh-enough serving here or
    // is registered before any future flush can run.
    MutexLock lock(core->version_mutex);
    if (core->serving->snapshot.version < opts.min_version) {
      id = pool_->submit_parked(opts.priority, std::move(run),
                                std::move(cancelled), lane);
      core->parked.push_back({id, opts.min_version});
      {
        MutexLock slock(core->stats_mutex);
        ++core->stats.queries_parked;
      }
      submitted = true;
    }
  }
  if (!submitted) {
    id = pool_->submit(opts.priority, std::move(run), std::move(cancelled),
                       lane);
  }
  return Ticket<Payload>(id, std::move(future), pool_);
}

MaxFlowTicket FlowEngine::submit(MaxFlowQuery query, SubmitOptions opts) {
  return submit_impl<MaxFlowQuery, MaxFlowApproxResult>(std::move(query),
                                                        nullptr, opts);
}

RouteTicket FlowEngine::submit(RouteQuery query, SubmitOptions opts) {
  return submit_impl<RouteQuery, RouteResult>(std::move(query), nullptr,
                                              opts);
}

MultiTerminalTicket FlowEngine::submit(MultiTerminalQuery query,
                                       SubmitOptions opts) {
  return submit_impl<MultiTerminalQuery, MultiTerminalMaxFlowResult>(
      std::move(query), nullptr, opts);
}

CongestTicket FlowEngine::submit(CongestQuery query, SubmitOptions opts) {
  return submit_impl<CongestQuery, CongestRunResult>(std::move(query),
                                                     nullptr, opts);
}

MaxFlowTicket FlowEngine::submit(
    MaxFlowQuery query,
    std::function<void(const Result<MaxFlowApproxResult>&)> done,
    SubmitOptions opts) {
  return submit_impl<MaxFlowQuery, MaxFlowApproxResult>(std::move(query),
                                                        std::move(done),
                                                        opts);
}

RouteTicket FlowEngine::submit(
    RouteQuery query, std::function<void(const Result<RouteResult>&)> done,
    SubmitOptions opts) {
  return submit_impl<RouteQuery, RouteResult>(std::move(query),
                                              std::move(done), opts);
}

MultiTerminalTicket FlowEngine::submit(
    MultiTerminalQuery query,
    std::function<void(const Result<MultiTerminalMaxFlowResult>&)> done,
    SubmitOptions opts) {
  return submit_impl<MultiTerminalQuery, MultiTerminalMaxFlowResult>(
      std::move(query), std::move(done), opts);
}

CongestTicket FlowEngine::submit(
    CongestQuery query,
    std::function<void(const Result<CongestRunResult>&)> done,
    SubmitOptions opts) {
  return submit_impl<CongestQuery, CongestRunResult>(std::move(query),
                                                     std::move(done), opts);
}

void FlowEngine::wait_all() { pool_->wait_all(); }

// --- versioned mutation path -------------------------------------------------

void FlowEngine::schedule_rebuild() {
  auto core = core_;
  {
    MutexLock lock(core->version_mutex);
    ++core->pending_rebuilds;
  }
  try {
    pool_->submit(
        kRebuildPriority, [core] { core->run_rebuild(); },
        [core](ErrorCode) {
          // Engine shut down before the rebuild ran; the previous
          // snapshot simply served to the end. Wake waiters so
          // wait_for_version returns false instead of hanging.
          {
            MutexLock lock(core->version_mutex);
            core->finish_pending_rebuild_locked();
          }
          core->version_cv.notify_all();
        },
        WorkerPool::kControlLane);
  } catch (...) {
    {
      MutexLock lock(core->version_mutex);
      core->finish_pending_rebuild_locked();
    }
    core->version_cv.notify_all();
    throw;
  }
}

ApplyResult FlowEngine::apply(const MutationBatch& batch) {
  auto core = core_;
  // Grab the serving state BEFORE publishing: the projected plan
  // describes the transition the refresh will make from what is
  // serving now to the new snapshot.
  const std::shared_ptr<const Core::Serving> prev = core->current_serving();
  const GraphSnapshot snap = core->store->apply(batch);
  ApplyResult out;
  out.version = snap.version;
  out.trees_total =
      static_cast<int>(prev->hierarchy->tree_records().size());
  if (batch.classify() == BatchKind::kCapacityOnly) {
    const HierarchyDirtySet diff =
        hierarchy_dirty_set(*prev->hierarchy, *snap.graph);
    // topology_changed here means another writer raced a topology
    // batch in through the shared store; the plan stays kFullRebuild.
    if (!diff.topology_changed) {
      if (diff.num_changed_edges == 0) {
        out.plan = RebuildPlan::kNoOp;
      } else {
        out.plan = RebuildPlan::kTreeRepair;
        out.trees_dirty = diff.num_dirty;
      }
    }
  }
  schedule_rebuild();
  return out;
}

GraphVersion FlowEngine::refresh() {
  const GraphVersion latest = core_->store->latest_version();
  if (latest > serving_version()) schedule_rebuild();
  return latest;
}

bool FlowEngine::wait_for_version(GraphVersion version,
                                  double timeout_seconds) {
  using Clock = std::chrono::steady_clock;
  auto core = core_;
  // A timeout too long for the clock to hold as a deadline (+inf
  // included) waits like a negative one, without a deadline. Half the
  // headroom keeps the conversion to clock ticks clear of rounding at
  // the top of the range; NaN clamps to 0.
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> timeout(std::max(0.0, timeout_seconds));
  const bool no_deadline =
      timeout_seconds < 0.0 || timeout >= (Clock::time_point::max() - now) / 2;
  const Clock::time_point deadline =
      no_deadline ? Clock::time_point::max()
                  : now + std::chrono::duration_cast<Clock::duration>(timeout);
  MutexLock lock(core->version_mutex);
  for (;;) {
    if (core->serving->snapshot.version >= version) return true;
    // Nothing pending can reach `version` (the rebuild failed, was
    // cancelled at shutdown, or was never scheduled): report that
    // instead of sleeping forever — a later apply()/refresh() can make
    // a fresh wait succeed.
    if (core->pending_rebuilds == 0) return false;
    if (no_deadline) {
      core->version_cv.wait(core->version_mutex);
    } else if (core->version_cv.wait_until(core->version_mutex, deadline) ==
               std::cv_status::timeout) {
      return core->serving->snapshot.version >= version;
    }
  }
}

GraphVersion FlowEngine::persist() {
  auto core = core_;
  // Snapshot first (GraphStore::persist validates the data_dir), then
  // the serving hierarchy — saved unconditionally, so manual persist()
  // works even with PersistPolicy::kNone.
  const GraphVersion version = core->store->persist();
  const std::shared_ptr<const Core::Serving> serving = core->current_serving();
  save_hierarchy(core->store->data_dir(), *serving->hierarchy,
                 core->hier_fingerprint);
  {
    MutexLock lock(core->stats_mutex);
    ++core->stats.hierarchy_saves;
  }
  return version;
}

GraphVersion FlowEngine::serving_version() const {
  return core_->current_serving()->snapshot.version;
}

GraphVersion FlowEngine::latest_version() const {
  return core_->store->latest_version();
}

GraphSnapshot FlowEngine::snapshot() const {
  return core_->current_serving()->snapshot;
}

const std::shared_ptr<GraphStore>& FlowEngine::store() const {
  return core_->store;
}

// --- accessors ---------------------------------------------------------------

const ShermanHierarchy& FlowEngine::hierarchy() const {
  return *core_->current_serving()->hierarchy;
}

const EngineOptions& FlowEngine::options() const { return core_->options; }

EngineStats FlowEngine::stats() const { return core_->snapshot_stats(); }

}  // namespace dmf
