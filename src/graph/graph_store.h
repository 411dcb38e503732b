// Versioned graph snapshots with copy-on-write mutation.
//
// A GraphStore holds the latest immutable snapshot, a
// `shared_ptr<const Graph>` tagged with a monotonically increasing
// GraphVersion. Readers take a snapshot and keep computing against it
// for as long as they like; writers record a MutationBatch and apply()
// it, which copies the latest graph, mutates the copy, and publishes it
// as the next version — no reader is ever blocked by, or exposed to, a
// half-applied mutation. This is the same pattern dataplane forwarding
// tables use: expensive derived state (the FlowEngine's congestion
// approximator) is rebuilt in the background per snapshot while traffic
// keeps being served from the previous one.
//
// apply() is atomic: the batch is validated while mutating the private
// copy, so a bad op (invalid id, non-finite capacity) throws and leaves
// the store unchanged — no version is consumed. Applies are serialized
// by a writer lock; snapshot() never waits on a writer's copy.
//
// The store keeps no history: a superseded version lives exactly as
// long as some reader still holds its GraphSnapshot.
//
// Persistence (GraphStoreOptions::persist + data_dir): published
// snapshots are written to disk as arena files (util/arena.h) — the
// edge list only, a manifest plus the endpoints and capacities arrays —
// and GraphStore::open rebuilds the latest one after a restart,
// including a crash, since every publish is arrays -> manifest ->
// CURRENT with each step an atomic tmp+fsync+rename. open reads each
// array into memory and checks it; nothing on disk is used in place.
// The CSR is never persisted: open replays the checked edge list and
// packs it, the same O(n + m) pass a content check of a stored CSR
// would cost. The on-disk copy-on-write ladder: a node-only version
// writes only a manifest, a capacity-only one a new capacities array as
// well, and only topology batches rewrite the endpoints. See README
// "Persistence & cold start".
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "util/thread_annotations.h"

namespace dmf {

// One immutable published state of the graph: the edge list (`graph`)
// and its CSR adjacency (`csr`, graph/csr_graph.h), packed once at
// publish time (or at open, from the replayed edge list).
// Capacity-only batches republish the previous snapshot's packed
// adjacency arrays unchanged; node-only batches reuse the half-edge
// arrays and re-derive the offsets; only batches that add edges pay a
// full O(n + m) repack. How the graph is partitioned for execution is
// the engine's concern, not the snapshot's.
struct GraphSnapshot {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const CsrGraph> csr;
  GraphVersion version = 0;
};

// What a MutationBatch does to the graph's shape — the engine's repair
// machinery keys off this: capacity-only batches are candidates for an
// incremental hierarchy repair, everything else forces a full rebuild.
enum class BatchKind {
  kCapacityOnly,  // only set_capacity ops (an empty batch counts)
  kNodeOnly,      // adds nodes but no edges
  kTopology,      // adds edges (possibly nodes as well)
};

// A recorded batch of mutations, applied atomically by
// GraphStore::apply to produce the next snapshot. Recording validates
// capacities immediately (finite and positive); node/edge ids are
// validated at apply time against the graph the batch lands on, so ops
// may reference nodes created earlier in the same batch.
//
// Id assignment is deterministic: applied to a snapshot with N nodes
// and M edges, the batch's add_nodes calls create ids N, N+1, ... and
// its add_edge calls create ids M, M+1, ... in recording order.
class MutationBatch {
 public:
  MutationBatch& set_capacity(EdgeId edge, double capacity) {
    DMF_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                "MutationBatch::set_capacity: capacity must be positive "
                "and finite");
    ops_.push_back({Op::Kind::kSetCapacity, kInvalidNode, kInvalidNode, edge,
                    capacity, 0});
    return *this;
  }

  MutationBatch& add_edge(NodeId u, NodeId v, double capacity = 1.0) {
    DMF_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                "MutationBatch::add_edge: capacity must be positive "
                "and finite");
    ops_.push_back({Op::Kind::kAddEdge, u, v, kInvalidEdge, capacity, 0});
    return *this;
  }

  MutationBatch& add_nodes(NodeId count = 1) {
    DMF_REQUIRE(count > 0, "MutationBatch::add_nodes: count must be positive");
    ops_.push_back(
        {Op::Kind::kAddNodes, kInvalidNode, kInvalidNode, kInvalidEdge, 0.0,
         count});
    return *this;
  }

  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }

  // The strongest structural effect any op in the batch has.
  [[nodiscard]] BatchKind classify() const {
    bool adds_nodes = false;
    for (const Op& op : ops_) {
      if (op.kind == Op::Kind::kAddEdge) return BatchKind::kTopology;
      if (op.kind == Op::Kind::kAddNodes) adds_nodes = true;
    }
    return adds_nodes ? BatchKind::kNodeOnly : BatchKind::kCapacityOnly;
  }

 private:
  friend class GraphStore;
  struct Op {
    enum class Kind { kSetCapacity, kAddEdge, kAddNodes };
    Kind kind;
    NodeId u;
    NodeId v;
    EdgeId edge;
    double capacity;
    NodeId count;
  };
  std::vector<Op> ops_;
};

// Whether published snapshots are written to data_dir.
enum class PersistPolicy {
  kNone,       // in-memory only (persist() still works when data_dir set)
  kOnPublish,  // every published version is persisted before apply returns
};

struct GraphStoreOptions {
  PersistPolicy persist = PersistPolicy::kNone;
  // Directory for the arena files; required when persist != kNone,
  // optional otherwise (enables manual persist()). Created on demand.
  // Each publish garbage-collects all but the newest four persisted
  // versions (CURRENT's always among them).
  std::string data_dir;
};

class GraphStore {
 public:
  // The initial graph becomes snapshot version 0.
  explicit GraphStore(Graph initial, GraphStoreOptions options = {});

  // Reopen a persisted store: CURRENT names the newest durable version,
  // and only that snapshot is rebuilt, from its manifest and the two
  // edge-list arrays it references: the edges are replayed through
  // Graph::add_edge (which checks every endpoint and capacity) and the
  // CSR is packed from them. Files of older versions are never read.
  // Corrupt or truncated files (a malformed CURRENT included, or
  // manifest counts that disagree with the arrays or exceed the
  // NodeId/EdgeId range) throw RequirementError (classified
  // kPreconditionFailed at the engine boundary); stray files from an
  // interrupted publish are ignored. The manifest is the only record of
  // n (a node-only version is just a larger n over older arrays), so an
  // in-range n is checked only against the edge endpoints; the pack
  // allocates n + 1 offsets for it, and one too large for memory fails
  // at that allocation, as add_nodes would in memory. Manifests in the 7-word layout of
  // earlier releases still open; their CSR files are never read and the
  // next GC removes them. New versions continue from the reopened latest.
  [[nodiscard]] static std::shared_ptr<GraphStore> open(
      const std::string& data_dir, GraphStoreOptions options = {});

  // True when `data_dir` holds an openable store (a CURRENT pointer).
  [[nodiscard]] static bool can_open(const std::string& data_dir);

  // The latest published snapshot.
  [[nodiscard]] GraphSnapshot snapshot() const;

  [[nodiscard]] GraphVersion latest_version() const;

  // Copy-on-write: copies the latest graph, applies every op of the
  // batch to the copy (throwing — and publishing nothing — if any op is
  // invalid), and publishes the result as the next version. Returns the
  // new snapshot. An empty batch still publishes a (identical) new
  // version, which callers can use as a barrier. With
  // PersistPolicy::kOnPublish the new version is durable on disk before
  // apply returns.
  GraphSnapshot apply(const MutationBatch& batch);

  // Force-write the latest snapshot to data_dir (no-op when it is
  // already durable). Requires a configured data_dir; returns the
  // persisted version.
  GraphVersion persist();

  [[nodiscard]] bool persistence_enabled() const {
    return !options_.data_dir.empty();
  }
  [[nodiscard]] const std::string& data_dir() const {
    return options_.data_dir;
  }
  [[nodiscard]] const GraphStoreOptions& options() const { return options_; }

 private:
  // Where each persisted array of the last written version lives on
  // disk (the `*_from` version whose file holds it) plus the snapshot
  // itself, kept so the next persist can share unchanged files by
  // edge count/content comparison against it.
  struct PersistedRefs {
    bool valid = false;
    GraphVersion version = 0;
    std::uint64_t endpoints_from = 0;
    std::uint64_t capacities_from = 0;
    GraphSnapshot snapshot;
  };

  // The reopened form: `last.snapshot` becomes the latest snapshot.
  GraphStore(GraphStoreOptions options, PersistedRefs last);

  // Both run under writer_mutex_.
  void persist_snapshot_locked(const GraphSnapshot& snap)
      DMF_REQUIRES(writer_mutex_);
  void gc_locked() const DMF_REQUIRES(writer_mutex_);

  GraphStoreOptions options_;
  // Lock order: writer_mutex_ first, mutex_ inside it (apply/persist
  // take the writer lock for the whole operation and the snapshot lock
  // only around the snapshot read/publish); never the reverse.
  mutable Mutex mutex_;
  mutable Mutex writer_mutex_ DMF_ACQUIRED_BEFORE(mutex_);
  GraphSnapshot latest_ DMF_GUARDED_BY(mutex_);
  PersistedRefs last_persisted_ DMF_GUARDED_BY(writer_mutex_);
};

}  // namespace dmf
