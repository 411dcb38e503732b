// FlowEngine: an asynchronous multi-query solver session over one graph.
//
// The paper's headline cost is building the congestion approximator (the
// sampled virtual-tree hierarchy); once built, each AlmostRoute / route()
// call is comparatively cheap. The engine exploits that asymmetry: it
// owns the graph, builds the ShermanHierarchy exactly once (virtual-tree
// sampling parallelized across trees, reproducible at any thread count),
// and then serves arbitrarily many heterogeneous queries against the
// const hierarchy — s-t max flow, arbitrary-demand route() calls, and
// multi-terminal max flow.
//
// v2 API: queries are *submitted*, not batched. submit(query) enqueues
// onto a persistent worker pool (created once with the engine) and
// returns a typed Ticket<T> — a future of Result<T> plus cancellation.
// Completion can also be observed through a per-query callback, and
// wait_all() barriers on everything outstanding. Per-query priorities
// order execution; results never depend on them. Synchronous callers
// use submit(query).get().
//
// Determinism: a query's result depends only on the engine seed, the
// graph, and the query's content — never on submission order, priority,
// thread count, or what else is in flight. Submitting a whole batch is
// therefore bitwise identical to issuing the same queries one at a time.
//
// Solver selection is one function, select_solver (engine/solver_select.h):
// tiny instances and exactness-demanding queries go to the exact
// baselines (Dinic / push-relabel) via the adapters in
// src/baselines/adapters.h; everything else rides the shared hierarchy.
// Route and CONGEST queries name their solver directly ("sherman-route",
// "congest-push-relabel"). Approximate multi-terminal queries solve on
// the super-terminal-augmented graph, whose hierarchy cannot be shared
// with the base graph's — those builds go through a HierarchyCache
// keyed by the canonicalized terminal sets, so repeated (or reordered)
// terminal sets share one build (see hierarchy_cache.h).
//
// v3: the graph is no longer frozen at construction. The engine serves
// from a GraphStore of immutable versioned snapshots; apply(MutationBatch)
// publishes the next snapshot copy-on-write and enqueues a background
// hierarchy rebuild on the same worker pool. Until the rebuilt hierarchy
// is atomically swapped in, in-flight and newly submitted queries keep
// being served from the previous snapshot ("stale serving" — each Result
// reports its served_version, and EngineStats counts rebuilds and stale
// serves). SubmitOptions::min_version parks a query until a fresh-enough
// hierarchy lands. One HierarchyCache lives per snapshot, so
// multi-terminal entries never mix graph generations. Determinism holds
// per version: a query's result depends only on the engine seed, the
// snapshot that served it, and the query content — never on rebuild
// timing, and a post-swap query matches a fresh engine built directly on
// the mutated graph bitwise.
//
// v4: sharded execution. EngineOptions::shards = K > 0 gives the
// worker pool K query lanes, each a priority queue with exactly one
// worker pinned best-effort to a core, plus a control lane for rebuilds
// (engine/session.h). submit() routes a query by its content: the lane
// is a hash of the query's exact-content replay key modulo K, so
// identical queries always reach the same lane. That lane's worker — the
// only thread that ever executes its queries — serves it against the
// generation's shared HierarchyCache plus a per-lane, per-generation
// result store that replays previously computed identical queries. The
// determinism contract is unchanged and shard-count-invariant: results
// are bitwise identical at any shard count (including 0, the one shared
// queue), because routing only picks *where* a query runs and the
// result store only replays what the same deterministic exec already
// produced for the same snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "engine/congest_runner.h"
#include "engine/result.h"
#include "engine/session.h"
#include "graph/graph.h"
#include "graph/graph_store.h"
#include "maxflow/multi_terminal.h"
#include "maxflow/sherman.h"

namespace dmf {

// --- queries -----------------------------------------------------------------

struct MaxFlowQuery {
  NodeId s = kInvalidNode;
  NodeId t = kInvalidNode;
  // <= 0: use the engine's default accuracy. Otherwise it must be
  // finite and < 1, or the query resolves with kInvalidQuery.
  double epsilon = 0.0;
  bool exact = false;  // demand an exact baseline regardless of size
};

struct RouteQuery {
  std::vector<double> demand;  // one finite entry per node, summing to ~0
};

struct MultiTerminalQuery {
  std::vector<NodeId> sources;
  std::vector<NodeId> sinks;
  double epsilon = 0.0;  // as MaxFlowQuery::epsilon
  bool exact = false;
};

// CongestQuery (engine/congest_runner.h) is the fourth alternative: a
// round-complexity measurement on the serving snapshot rather than a
// flow computation.
using EngineQuery =
    std::variant<MaxFlowQuery, RouteQuery, MultiTerminalQuery, CongestQuery>;

// --- typed results -----------------------------------------------------------

// Each query kind resolves to Result<payload> (engine/result.h):
//   MaxFlowQuery       -> Result<MaxFlowApproxResult>
//   RouteQuery         -> Result<RouteResult>
//   MultiTerminalQuery -> Result<MultiTerminalMaxFlowResult>
//   CongestQuery       -> Result<CongestRunResult>
using MaxFlowTicket = Ticket<MaxFlowApproxResult>;
using RouteTicket = Ticket<RouteResult>;
using MultiTerminalTicket = Ticket<MultiTerminalMaxFlowResult>;
using CongestTicket = Ticket<CongestRunResult>;

// How background hierarchy refreshes behaved, grouped (one refresh =
// one hierarchy build, which may reuse the serving hierarchy's trees;
// see FlowEngine::apply).
struct RebuildStats {
  // A refresh "starts" when a worker begins building toward a newer
  // snapshot and "completes" when its hierarchy is swapped in.
  // Coalescing (several applies, one refresh of the newest snapshot)
  // and lost swap races make started >= completed; failed refreshes
  // (e.g. a batch that disconnected the graph) are counted separately
  // and leave the engine serving the previous snapshot.
  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double seconds_total = 0.0;  // wall time of all refreshes, repairs incl.
  // The incremental-repair subset: refreshes whose build could reuse the
  // serving hierarchy (capacity-only transitions) resample only the
  // trees whose structural capacity view changed and reuse the rest
  // (bitwise identical to a full rebuild). A repair that throws is a
  // failed refresh: started, never completed.
  std::int64_t repairs_started = 0;
  std::int64_t repairs_completed = 0;
  std::int64_t trees_repaired = 0;  // dirty trees resampled from seeds
  std::int64_t trees_reused = 0;    // clean trees reused, recapacitated
  double repair_seconds_total = 0.0;
};

// Per-shard serving breakdown (sharded backend only; see
// EngineOptions::shards). Counters are cumulative since engine
// construction; queue_depth is sampled.
struct ShardStats {
  int shard = 0;
  std::size_t queue_depth = 0;  // sampled lane queue length
  std::int64_t executed = 0;    // queries run to completion on this lane
  std::int64_t result_store_hits = 0;
  std::int64_t result_store_misses = 0;
};

struct EngineStats {
  double build_seconds = 0.0;  // hierarchy construction wall time
  double build_rounds = 0.0;   // accounted CONGEST rounds of the build
  int num_trees = 0;
  double alpha = 0.0;
  std::int64_t queries_served = 0;
  std::int64_t queries_failed = 0;
  std::int64_t queries_cancelled = 0;  // cancelled or dropped at shutdown
  // Super-terminal hierarchy sharing across multi-terminal queries: a
  // miss pays a full hierarchy build on the augmented graph, a hit reuses
  // (or waits on) a previous build of the same canonical terminal sets.
  std::int64_t hierarchy_cache_hits = 0;
  std::int64_t hierarchy_cache_misses = 0;
  // --- versioned mutation path ---
  GraphVersion serving_version = 0;  // snapshot the hierarchy serves
  GraphVersion latest_version = 0;   // newest snapshot in the store
  // Background refresh behavior (full rebuilds + incremental repairs).
  RebuildStats rebuild;
  // --- persistence (GraphStore data_dir configured; zeros otherwise) ---
  // Cold starts served from a persisted hierarchy: construction mapped
  // the saved tree arrays instead of sampling — no rebuild ran.
  std::int64_t hierarchy_cold_loads = 0;
  // A persisted hierarchy existed but failed to load (corrupt file,
  // option mismatch); the engine fell back to a normal build.
  std::int64_t hierarchy_load_failures = 0;
  // Hierarchies written to the data dir (construction + every swap).
  std::int64_t hierarchy_saves = 0;
  // Queries answered from a snapshot older than the store's latest (the
  // price of not stalling during a rebuild).
  std::int64_t queries_served_stale = 0;
  // Queries parked by SubmitOptions::min_version until a fresh-enough
  // hierarchy landed.
  std::int64_t queries_parked = 0;
  double query_seconds_total = 0.0;
  // Sum of the per-reply round accounting (Sherman max-flow replies fold
  // the one-off build rounds in, matching ShermanSolver::max_flow).
  double query_rounds_total = 0.0;
  double max_congestion = 0.0;      // worst route() congestion observed
  std::map<std::string, std::int64_t> queries_by_solver;
  // --- sharded execution (EngineOptions::shards > 0; empty otherwise) ---
  int num_shards = 0;  // 0 = classic single-pool backend
  // Per-shard, per-generation result store: a hit replays an identical
  // earlier query of the same snapshot bitwise instead of recomputing.
  std::int64_t result_store_hits = 0;
  std::int64_t result_store_misses = 0;
  std::vector<ShardStats> shards;

  // The economic argument for batching: the one-off build cost spread
  // over every query served so far.
  [[nodiscard]] double amortized_build_seconds_per_query() const {
    return queries_served > 0
               ? build_seconds / static_cast<double>(queries_served)
               : build_seconds;
  }
};

// --- mutation results --------------------------------------------------------

// The refresh strategy the engine projects for a published batch.
enum class RebuildPlan {
  kFullRebuild,  // topology changed (or repair is not applicable)
  kTreeRepair,   // capacity-only: resample dirty trees, reuse the rest
  kNoOp,         // no observable change; previous hierarchy is re-tagged
};

// What apply() published and what the background refresh toward it is
// expected to do. The plan is a projection against the serving
// hierarchy at apply time: the refresh re-decides against whatever is
// serving when it runs (coalesced batches), so treat
// plan/trees_dirty as advisory and the stats counters as ground truth.
struct ApplyResult {
  GraphVersion version = 0;
  RebuildPlan plan = RebuildPlan::kFullRebuild;
  int trees_dirty = 0;  // trees the projected repair would resample
  int trees_total = 0;
};

// --- engine ------------------------------------------------------------------

struct EngineOptions {
  ShermanOptions sherman;  // default accuracy + hierarchy parameters
  // When the caller leaves sherman.route_residual_tolerance at the
  // library default, the engine raises it to epsilon/4: the exact tree
  // rerouting absorbs the leftover either way, the congestion bound
  // degrades by far less than the (1+eps) budget, and queries shed most
  // of their AlmostRoute calls — the second half (besides hierarchy
  // amortization) of the engine's throughput story. Set to false to keep
  // the library's conservative routing untouched.
  bool tune_routing_for_throughput = true;
  // Structural capacity quantization width (octaves) applied to the
  // hierarchy build when the caller left
  // sherman.hierarchy.capacity_bucket_octaves at the library default
  // (off). Quantization makes tree structure insensitive to small
  // capacity changes, which is what lets a capacity-only apply() repair
  // the hierarchy incrementally instead of rebuilding it (a changed
  // edge dirties a tree only with probability ~|log2(new/old)|/width).
  // The structural phase sees capacities coarsened by at most this
  // factor of 2^width; exact capacities always return in the final
  // per-tree recapacitation, so feasibility/cut guarantees are
  // unaffected. 0 disables (every capacity change rebuilds every tree).
  double capacity_quantization_octaves = 1.0;
  // Worker threads of the persistent pool; 0 = all hardware threads.
  // Also sizes the hierarchy build's virtual-tree sampling. Ignored for
  // query execution when `shards` > 0 (one worker per lane).
  int threads = 0;
  // --- sharded execution ---
  // 0 (default) keeps one queue shared by all workers. K > 0 gives the
  // pool K lanes — each a priority queue with exactly one worker,
  // pinned best-effort to a core — plus a control lane for rebuilds;
  // submit() routes each query to lane hash(replay key) % K, where that
  // lane's replay store answers identical repeats. Results are bitwise
  // identical at every value of K — sharding moves work, never changes
  // it. SubmitOptions::priority orders each lane; it was always only a
  // scheduling hint.
  int shards = 0;
  // Instances up to this many nodes go to the exact baselines (see
  // select_solver in engine/solver_select.h).
  NodeId exact_cutoff_nodes = 64;
  // Seed for the hierarchy build and for per-terminal-set derivation.
  std::uint64_t seed = 0x5eed0f10eULL;
};

class FlowEngine {
 public:
  // Builds the hierarchy for the store's latest snapshot immediately
  // (the expensive step) and starts the worker pool. The engine shares
  // the store: apply() publishes new snapshots through it, and several
  // engines may serve one store (each refreshes independently).
  explicit FlowEngine(std::shared_ptr<GraphStore> store,
                      EngineOptions options = {});

  // Compatibility shim over a fresh single-snapshot store holding
  // `graph` as version 0. Mutation works on this form too — the store
  // is simply engine-private.
  explicit FlowEngine(Graph graph, EngineOptions options = {});

  // Destruction cancels everything still queued (those tickets resolve
  // with ErrorCode::kShutdown), finishes queries already running, and
  // joins the pool. Outstanding tickets stay safe to use afterwards.
  ~FlowEngine();

  // Movable: the graph lives behind a shared_ptr inside the hierarchy,
  // so relocating the engine dangles nothing.
  FlowEngine(FlowEngine&&) noexcept;
  FlowEngine& operator=(FlowEngine&&) noexcept;
  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  // --- asynchronous session API ---
  // Enqueue one query; returns immediately. Per-query failures resolve
  // the ticket with an ErrorCode, never throw.
  [[nodiscard]] MaxFlowTicket submit(MaxFlowQuery query,
                                     SubmitOptions opts = {});
  [[nodiscard]] RouteTicket submit(RouteQuery query, SubmitOptions opts = {});
  [[nodiscard]] MultiTerminalTicket submit(MultiTerminalQuery query,
                                           SubmitOptions opts = {});
  [[nodiscard]] CongestTicket submit(CongestQuery query,
                                     SubmitOptions opts = {});

  // Callback form: `done` runs right before the ticket becomes ready —
  // on the worker thread for executed queries, but synchronously on the
  // *cancelling* thread for cancelled resolutions (inside
  // Ticket::cancel() or the engine destructor's shutdown drain), so it
  // must not assume a thread identity or re-enter locks the canceller
  // holds. An exception thrown by the callback is swallowed — the
  // ticket still resolves with the computed result.
  [[nodiscard]] MaxFlowTicket submit(
      MaxFlowQuery query,
      std::function<void(const Result<MaxFlowApproxResult>&)> done,
      SubmitOptions opts = {});
  [[nodiscard]] RouteTicket submit(
      RouteQuery query, std::function<void(const Result<RouteResult>&)> done,
      SubmitOptions opts = {});
  [[nodiscard]] MultiTerminalTicket submit(
      MultiTerminalQuery query,
      std::function<void(const Result<MultiTerminalMaxFlowResult>&)> done,
      SubmitOptions opts = {});
  [[nodiscard]] CongestTicket submit(
      CongestQuery query,
      std::function<void(const Result<CongestRunResult>&)> done,
      SubmitOptions opts = {});

  // Block until every query submitted so far has resolved. Queries
  // parked by min_version count: if the version they wait for is never
  // published (and the engine is not destroyed), this blocks.
  void wait_all();

  // --- versioned mutation path ---
  // Publish the batch as the next snapshot (copy-on-write; throws on an
  // invalid op, publishing nothing) and enqueue a background hierarchy
  // refresh on the worker pool. Returns immediately with the new
  // snapshot's version plus the projected refresh plan (see
  // ApplyResult) — queries keep being served from the previous
  // snapshot until the refreshed hierarchy is swapped in atomically.
  // The refresh is one hierarchy build that reuses what it can: after
  // a capacity-only batch only trees whose structural capacity view
  // changed are resampled (from their recorded per-tree seeds), the
  // rest are reused, and the result is bitwise identical to a full
  // rebuild at the same version. After a topology batch every tree is
  // resampled. Consecutive applies coalesce: a refresh always targets
  // the newest snapshot, so intermediate versions may never be served
  // (min_version waiters are satisfied by any version >= theirs).
  ApplyResult apply(const MutationBatch& batch);

  // Enqueue a rebuild toward the store's latest snapshot without
  // mutating (useful when another engine — or direct store access —
  // published versions this engine has not picked up). No-op if the
  // serving hierarchy is already current. Returns the store's latest
  // version.
  GraphVersion refresh();

  // Block until the serving hierarchy reaches `version` (true). Returns
  // false when that cannot currently happen — no rebuild is pending
  // that could reach the version (it failed, was dropped at shutdown,
  // or was never scheduled) — or when `timeout_seconds` elapses first.
  // A negative timeout, or one too large for steady_clock (+inf
  // included), means no deadline. A later apply()/refresh() can make a
  // fresh wait succeed after a false return.
  bool wait_for_version(GraphVersion version, double timeout_seconds = -1.0);

  // Force-persist the store's latest snapshot and the currently serving
  // hierarchy to the store's data dir (see GraphStoreOptions), so a
  // restarted process cold-opens without a rebuild. Requires a store
  // with a configured data_dir (throws RequirementError otherwise —
  // kPreconditionFailed at the serve boundary). Returns the persisted
  // snapshot version. With PersistPolicy::kOnPublish this mostly
  // no-ops: snapshots and swapped-in hierarchies are already saved.
  GraphVersion persist();

  [[nodiscard]] GraphVersion serving_version() const;
  [[nodiscard]] GraphVersion latest_version() const;
  // The snapshot queries are currently served from (graph + version).
  [[nodiscard]] GraphSnapshot snapshot() const;
  [[nodiscard]] const std::shared_ptr<GraphStore>& store() const;

  // The currently serving hierarchy. The reference is only guaranteed
  // until the next rebuild swap retires it — do not hold it across
  // apply()/refresh().
  [[nodiscard]] const ShermanHierarchy& hierarchy() const;
  [[nodiscard]] const EngineOptions& options() const;
  // Snapshot of the counters (taken under the stats lock; safe to call
  // while queries are in flight).
  [[nodiscard]] EngineStats stats() const;

 private:
  struct Core;

  template <typename Query, typename Payload>
  Ticket<Payload> submit_impl(
      Query query, std::function<void(const Result<Payload>&)> done,
      SubmitOptions opts);

  void schedule_rebuild();

  std::shared_ptr<Core> core_;
  std::shared_ptr<WorkerPool> pool_;
};

}  // namespace dmf
