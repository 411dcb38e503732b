#include "graph/graph_store.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "util/arena.h"

namespace dmf {

namespace {

// Type tags of the per-array arena files; a mismatch (opening a
// capacities file as a manifest, say) is rejected at open. Tags 2-4
// named the CSR arrays earlier releases wrote; they stay unused.
constexpr std::uint64_t kTagManifest = 1;
constexpr std::uint64_t kTagEndpoints = 5;
constexpr std::uint64_t kTagCapacities = 6;

// Manifest word layout: version, n, m, endpoints_from, capacities_from.
// Earlier releases wrote 7 words, with the versions of their CSR files
// at indices 3 and 4 and the edge-list words at 5 and 6.
constexpr std::size_t kManifestWords = 5;
constexpr std::size_t kLegacyManifestWords = 7;

// How many persisted versions stay on disk; older manifests and the
// arena files only they reference are garbage-collected after each
// publish. The version CURRENT points at is always kept. This bounds
// disk use only: open() reads nothing but the CURRENT version.
constexpr std::size_t kRetainVersions = 4;

[[nodiscard]] std::string arena_path(const std::string& dir,
                                     const char* name, std::uint64_t version) {
  return dir + "/" + name + ".v" + std::to_string(version) + ".arena";
}

[[nodiscard]] std::string current_path(const std::string& dir) {
  return dir + "/CURRENT";
}

// Parse `<base>.v<digits>.<suffix>` (e.g. "endpoints.v12.arena",
// "hier.v3.meta.arena"); anything else is not ours.
[[nodiscard]] bool parse_versioned_name(const std::string& name,
                                        std::string* base,
                                        std::uint64_t* version) {
  const std::size_t pos = name.find(".v");
  if (pos == std::string::npos || pos == 0) return false;
  std::size_t i = pos + 2;
  std::uint64_t v = 0;
  bool any = false;
  while (i < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[i])) != 0) {
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
    ++i;
    any = true;
  }
  if (!any || i >= name.size() || name[i] != '.') return false;
  *base = name.substr(0, pos);
  *version = v;
  return true;
}

struct Manifest {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t endpoints_from = 0;
  std::uint64_t capacities_from = 0;
};

// Reads and checks version v's manifest in either layout; a legacy
// manifest's CSR words are ignored (the CSR is packed at open). Counts
// beyond the NodeId/EdgeId range are corrupt, not narrowed.
[[nodiscard]] Manifest read_manifest(const std::string& dir,
                                     std::uint64_t v) {
  const std::vector<std::uint64_t> words = read_arena<std::uint64_t>(
      arena_path(dir, "manifest", v), kTagManifest);
  const std::size_t size = words.size();
  DMF_REQUIRE((size == kManifestWords || size == kLegacyManifestWords) &&
                  words[0] == v,
              "GraphStore: malformed manifest for version " +
                  std::to_string(v));
  const std::size_t edge_list = size - 2;
  const Manifest manifest{words[1], words[2], words[edge_list],
                          words[edge_list + 1]};
  DMF_REQUIRE(manifest.n <= static_cast<std::uint64_t>(
                                std::numeric_limits<NodeId>::max()) &&
                  manifest.m <= static_cast<std::uint64_t>(
                                    std::numeric_limits<EdgeId>::max()),
              "GraphStore: manifest counts out of range for version " +
                  std::to_string(v));
  return manifest;
}

}  // namespace

GraphStore::GraphStore(Graph initial, GraphStoreOptions options)
    : options_(std::move(options)) {
  DMF_REQUIRE(
      options_.persist == PersistPolicy::kNone || persistence_enabled(),
      "GraphStore: persist policy requires a data_dir");
  auto graph = std::make_shared<const Graph>(std::move(initial));
  auto csr = std::make_shared<const CsrGraph>(graph);
  latest_ = GraphSnapshot{std::move(graph), std::move(csr), 0};
  if (options_.persist == PersistPolicy::kOnPublish) {
    MutexLock writer(writer_mutex_);
    persist_snapshot_locked(latest_);
  }
}

GraphStore::GraphStore(GraphStoreOptions options, PersistedRefs last)
    : options_(std::move(options)),
      latest_(last.snapshot),
      last_persisted_(std::move(last)) {}

bool GraphStore::can_open(const std::string& data_dir) {
  return file_exists(current_path(data_dir));
}

std::shared_ptr<GraphStore> GraphStore::open(const std::string& data_dir,
                                             GraphStoreOptions options) {
  options.data_dir = data_dir;
  DMF_REQUIRE(can_open(data_dir),
              "GraphStore::open: no CURRENT pointer in " + data_dir);
  // CURRENT names the newest version whose manifest completed; anything
  // newer on disk is an interrupted publish and is ignored.
  std::string current = read_small_file(current_path(data_dir));
  while (!current.empty() &&
         std::isspace(static_cast<unsigned char>(current.back())) != 0) {
    current.pop_back();
  }
  // Unsigned from_chars takes digits only (no sign, no blanks) and
  // reports a value beyond uint64 instead of wrapping it.
  GraphVersion v = 0;
  const char* const end = current.data() + current.size();
  const auto parsed = std::from_chars(current.data(), end, v);
  DMF_REQUIRE(parsed.ec == std::errc() && parsed.ptr == end,
              "GraphStore::open: malformed CURRENT in " + data_dir);

  DMF_REQUIRE(file_exists(arena_path(data_dir, "manifest", v)),
              "GraphStore::open: CURRENT points at a missing manifest in " +
                  data_dir);
  const Manifest manifest = read_manifest(data_dir, v);
  PersistedRefs last;
  last.valid = true;
  last.version = v;
  last.endpoints_from = manifest.endpoints_from;
  last.capacities_from = manifest.capacities_from;
  const std::vector<EdgeEndpoints> endpoints = read_arena<EdgeEndpoints>(
      arena_path(data_dir, "endpoints", last.endpoints_from), kTagEndpoints);
  const std::vector<double> capacities = read_arena<double>(
      arena_path(data_dir, "capacities", last.capacities_from),
      kTagCapacities);
  DMF_REQUIRE(
      endpoints.size() == manifest.m && capacities.size() == manifest.m,
      "GraphStore::open: arrays disagree with manifest edge count");

  // Rebuild the Graph's edge list by replaying the edges in id order
  // through add_edge, which re-validates every endpoint and capacity;
  // ids come out as persisted because mutation is append-only. The CSR
  // is packed from that checked edge list, never read from disk.
  Graph g(static_cast<NodeId>(manifest.n));
  for (std::uint64_t e = 0; e < manifest.m; ++e) {
    const EdgeEndpoints ep = endpoints[e];
    g.add_edge(ep.u, ep.v, capacities[e]);
  }
  auto graph = std::make_shared<const Graph>(std::move(g));
  auto csr = std::make_shared<const CsrGraph>(graph);
  last.snapshot = GraphSnapshot{std::move(graph), std::move(csr), v};
  return std::shared_ptr<GraphStore>(
      new GraphStore(std::move(options), std::move(last)));
}

GraphSnapshot GraphStore::snapshot() const {
  MutexLock lock(mutex_);
  return latest_;
}

GraphVersion GraphStore::latest_version() const {
  MutexLock lock(mutex_);
  return latest_.version;
}

GraphSnapshot GraphStore::apply(const MutationBatch& batch) {
  // One writer at a time: the copy below must be of the snapshot the
  // new version supersedes, or a concurrent apply would be silently
  // lost. Readers are untouched — they only take mutex_, never this.
  MutexLock writer(writer_mutex_);
  GraphSnapshot base;
  {
    MutexLock lock(mutex_);
    base = latest_;
  }
  // Copy-on-write: mutate a private copy; any invalid op throws here
  // and the store is left exactly as it was.
  Graph next = *base.graph;
  for (const MutationBatch::Op& op : batch.ops_) {
    switch (op.kind) {
      case MutationBatch::Op::Kind::kSetCapacity:
        next.set_capacity(op.edge, op.capacity);
        break;
      case MutationBatch::Op::Kind::kAddEdge:
        next.add_edge(op.u, op.v, op.capacity);
        break;
      case MutationBatch::Op::Kind::kAddNodes:
        next.add_nodes(op.count);
        break;
    }
  }
  auto next_graph = std::make_shared<const Graph>(std::move(next));
  // Pack the CSR view at publish time, reusing the base snapshot's
  // arrays where the batch left the adjacency untouched (the packed
  // half-edge arrays survive capacity- and node-only batches).
  auto next_csr =
      std::make_shared<const CsrGraph>(next_graph, base.csr.get());
  GraphSnapshot published{std::move(next_graph), std::move(next_csr),
                          base.version + 1};
  {
    MutexLock lock(mutex_);
    latest_ = published;
  }
  if (options_.persist == PersistPolicy::kOnPublish) {
    // A throwing persist (disk full, permissions) propagates with the
    // in-memory version already published; the next successful persist
    // (or the next apply) makes the store durable again.
    persist_snapshot_locked(published);
  }
  return published;
}

GraphVersion GraphStore::persist() {
  DMF_REQUIRE(persistence_enabled(),
              "GraphStore::persist: no data_dir configured");
  MutexLock writer(writer_mutex_);
  const GraphSnapshot latest = snapshot();
  if (!(last_persisted_.valid && last_persisted_.version == latest.version)) {
    persist_snapshot_locked(latest);
  }
  return latest.version;
}

void GraphStore::persist_snapshot_locked(const GraphSnapshot& snap) {
  const std::string& dir = options_.data_dir;
  std::filesystem::create_directories(dir);
  const std::uint64_t v = snap.version;
  const auto m = static_cast<std::size_t>(snap.graph->num_edges());
  PersistedRefs refs;
  refs.valid = true;
  refs.version = v;
  const bool have_prev = last_persisted_.valid;
  const GraphSnapshot& prev = last_persisted_.snapshot;

  // The on-disk COW ladder over the edge list, the only graph state
  // persisted (open packs the CSR): a node-only batch writes just a
  // manifest, a capacity-only one a capacities array too, a topology
  // batch both arrays. Mutation is append-only, so an unchanged edge
  // count means the endpoint array is identical and its file can be
  // shared.
  if (have_prev &&
      static_cast<std::size_t>(prev.graph->num_edges()) == m) {
    refs.endpoints_from = last_persisted_.endpoints_from;
  } else {
    refs.endpoints_from = v;
    const std::vector<EdgeEndpoints>& endpoints = snap.graph->edge_endpoints();
    write_arena(arena_path(dir, "endpoints", v), kTagEndpoints,
                endpoints.data(), endpoints.size());
  }
  const std::vector<double>& caps = snap.graph->capacities();
  if (have_prev && static_cast<std::size_t>(prev.graph->num_edges()) == m &&
      std::memcmp(caps.data(), prev.graph->capacities().data(),
                  m * sizeof(double)) == 0) {
    refs.capacities_from = last_persisted_.capacities_from;
  } else {
    refs.capacities_from = v;
    write_arena(arena_path(dir, "capacities", v), kTagCapacities, caps.data(),
                caps.size());
  }

  // Manifest after the arrays it references, CURRENT last: a crash at
  // any point leaves CURRENT naming a fully materialized version.
  const std::uint64_t words[kManifestWords] = {
      v,
      static_cast<std::uint64_t>(snap.graph->num_nodes()),
      static_cast<std::uint64_t>(m),
      refs.endpoints_from,
      refs.capacities_from};
  write_arena(arena_path(dir, "manifest", v), kTagManifest, words,
              kManifestWords);
  write_file_atomic(current_path(dir), std::to_string(v) + "\n");

  refs.snapshot = snap;
  last_persisted_ = std::move(refs);
  gc_locked();
}

void GraphStore::gc_locked() const {
  namespace fs = std::filesystem;
  const std::string& dir = options_.data_dir;
  std::error_code ec;

  // Which manifests stay: the newest kRetainVersions (CURRENT's always
  // among them — it is the newest by construction).
  std::vector<std::uint64_t> manifests;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string base;
    std::uint64_t version = 0;
    if (parse_versioned_name(entry.path().filename().string(), &base,
                             &version) &&
        base == "manifest") {
      manifests.push_back(version);
    }
  }
  if (ec) return;  // GC is best-effort
  std::sort(manifests.begin(), manifests.end());
  if (manifests.size() > kRetainVersions) {
    manifests.erase(manifests.begin(), manifests.end() - kRetainVersions);
  }
  const std::set<std::uint64_t> kept(manifests.begin(), manifests.end());
  if (kept.empty()) return;
  const std::uint64_t min_kept = *kept.begin();

  // Arena files referenced by a kept manifest survive; everything else
  // of ours goes (stray .tmp files from interrupted publishes too).
  std::set<std::pair<std::string, std::uint64_t>> referenced;
  for (const std::uint64_t v : kept) {
    Manifest manifest;
    try {
      manifest = read_manifest(dir, v);
    } catch (const RequirementError&) {
      return;  // unreadable manifest: skip GC rather than guess
    }
    referenced.emplace("endpoints", manifest.endpoints_from);
    referenced.emplace("capacities", manifest.capacities_from);
  }

  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      continue;
    }
    std::string base;
    std::uint64_t version = 0;
    if (!parse_versioned_name(name, &base, &version)) continue;
    bool drop = false;
    if (base == "manifest") {
      drop = kept.count(version) == 0;
    } else if (base == "hier") {
      // Hierarchy files are written by the engine after the snapshot
      // publish; only retire them with their snapshot generation.
      drop = version < min_kept;
    } else {
      drop = referenced.count({base, version}) == 0;
    }
    if (drop) fs::remove(entry.path(), ec);
  }
}

}  // namespace dmf
