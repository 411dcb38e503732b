#include "graph/graph_store.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>

#include "util/mmap_arena.h"

namespace dmf {

namespace {

// Type tags of the per-array arena files; a mismatch (opening a
// capacities file as offsets, say) is rejected at open.
constexpr std::uint64_t kTagManifest = 1;
constexpr std::uint64_t kTagOffsets = 2;
constexpr std::uint64_t kTagNeighbors = 3;
constexpr std::uint64_t kTagEdgeIds = 4;
constexpr std::uint64_t kTagEndpoints = 5;
constexpr std::uint64_t kTagCapacities = 6;

// Manifest word layout (see persist_snapshot_locked).
constexpr std::size_t kManifestWords = 7;

[[nodiscard]] std::string arena_path(const std::string& dir,
                                     const char* name, std::uint64_t version) {
  return dir + "/" + name + ".v" + std::to_string(version) + ".arena";
}

[[nodiscard]] std::string current_path(const std::string& dir) {
  return dir + "/CURRENT";
}

// Parse `<base>.v<digits>.<suffix>` (e.g. "offsets.v12.arena",
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

  const std::string manifest_path = arena_path(data_dir, "manifest", v);
  DMF_REQUIRE(file_exists(manifest_path),
              "GraphStore::open: CURRENT points at a missing manifest in " +
                  data_dir);
  const SharedArray<std::uint64_t> manifest =
      ArenaVector<std::uint64_t>::open(manifest_path, kTagManifest);
  DMF_REQUIRE(manifest.size() == kManifestWords && manifest[0] == v,
              "GraphStore::open: malformed manifest for version " +
                  std::to_string(v));
  const std::uint64_t n = manifest[1];
  const std::uint64_t m = manifest[2];
  PersistedRefs last;
  last.valid = true;
  last.version = v;
  last.offsets_from = manifest[3];
  last.half_from = manifest[4];
  last.endpoints_from = manifest[5];
  last.capacities_from = manifest[6];

  CsrArrays arrays{
      ArenaVector<std::size_t>::open(
          arena_path(data_dir, "offsets", last.offsets_from), kTagOffsets),
      ArenaVector<NodeId>::open(
          arena_path(data_dir, "neighbors", last.half_from), kTagNeighbors),
      ArenaVector<EdgeId>::open(
          arena_path(data_dir, "edge_ids", last.half_from), kTagEdgeIds)};
  const SharedArray<EdgeEndpoints> endpoints = ArenaVector<EdgeEndpoints>::open(
      arena_path(data_dir, "endpoints", last.endpoints_from), kTagEndpoints);
  const SharedArray<double> capacities = ArenaVector<double>::open(
      arena_path(data_dir, "capacities", last.capacities_from),
      kTagCapacities);
  DMF_REQUIRE(endpoints.size() >= m && capacities.size() >= m,
              "GraphStore::open: arrays shorter than manifest edge count");

  // Rebuild the Graph's edge list by replaying the edges in id order
  // through add_edge, which re-validates every endpoint and capacity;
  // ids come out as persisted because mutation is append-only.
  Graph g(static_cast<NodeId>(n));
  for (std::uint64_t e = 0; e < m; ++e) {
    const EdgeEndpoints ep = endpoints[e];
    g.add_edge(ep.u, ep.v, capacities[e]);
  }
  auto graph = std::make_shared<const Graph>(std::move(g));
  auto csr = std::make_shared<const CsrGraph>(graph, std::move(arrays));
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

  // The on-disk COW ladder, decided by pointer identity against the
  // previously persisted snapshot (the in-memory ladder shares the
  // SharedArray handles, so sharing is directly observable here):
  // capacity-only shares every structure file, node-only shares the
  // half-edge files and rewrites the offsets, topology rewrites all.
  if (have_prev &&
      prev.csr->offsets().data() == snap.csr->offsets().data()) {
    refs.offsets_from = last_persisted_.offsets_from;
  } else {
    refs.offsets_from = v;
    ArenaVector<std::size_t>::write(arena_path(dir, "offsets", v),
                                    kTagOffsets, snap.csr->offsets());
  }
  if (have_prev && prev.csr->neighbor_array().data() ==
                       snap.csr->neighbor_array().data()) {
    refs.half_from = last_persisted_.half_from;
  } else {
    refs.half_from = v;
    ArenaVector<NodeId>::write(arena_path(dir, "neighbors", v), kTagNeighbors,
                               snap.csr->neighbor_array());
    ArenaVector<EdgeId>::write(arena_path(dir, "edge_ids", v), kTagEdgeIds,
                               snap.csr->edge_id_array());
  }
  // Mutation is append-only, so an unchanged edge count means the
  // endpoint array is identical and its file can be shared.
  if (have_prev &&
      static_cast<std::size_t>(prev.graph->num_edges()) == m) {
    refs.endpoints_from = last_persisted_.endpoints_from;
  } else {
    refs.endpoints_from = v;
    ArenaVector<EdgeEndpoints>::write(arena_path(dir, "endpoints", v),
                                      kTagEndpoints,
                                      snap.graph->edge_endpoints());
  }
  const std::vector<double>& caps = snap.graph->capacities();
  if (have_prev && static_cast<std::size_t>(prev.graph->num_edges()) == m &&
      std::memcmp(caps.data(), prev.graph->capacities().data(),
                  m * sizeof(double)) == 0) {
    refs.capacities_from = last_persisted_.capacities_from;
  } else {
    refs.capacities_from = v;
    ArenaVector<double>::write(arena_path(dir, "capacities", v),
                               kTagCapacities, caps);
  }

  // Manifest after the arrays it references, CURRENT last: a crash at
  // any point leaves CURRENT naming a fully materialized version.
  const std::uint64_t words[kManifestWords] = {
      v,
      static_cast<std::uint64_t>(snap.graph->num_nodes()),
      static_cast<std::uint64_t>(m),
      refs.offsets_from,
      refs.half_from,
      refs.endpoints_from,
      refs.capacities_from};
  ArenaVector<std::uint64_t>::write(arena_path(dir, "manifest", v),
                                    kTagManifest,
                                    Span<const std::uint64_t>(words,
                                                              kManifestWords));
  write_file_atomic(current_path(dir), std::to_string(v) + "\n");

  refs.snapshot = snap;
  last_persisted_ = std::move(refs);
  gc_locked();
}

void GraphStore::gc_locked() const {
  namespace fs = std::filesystem;
  const std::string& dir = options_.data_dir;
  std::error_code ec;

  // Which manifests stay: the newest retain_versions (CURRENT's always
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
  const std::size_t keep = std::max<std::size_t>(1, options_.retain_versions);
  if (manifests.size() > keep) {
    manifests.erase(manifests.begin(),
                    manifests.end() - static_cast<std::ptrdiff_t>(keep));
  }
  const std::set<std::uint64_t> kept(manifests.begin(), manifests.end());
  if (kept.empty()) return;
  const std::uint64_t min_kept = *kept.begin();

  // Arena files referenced by a kept manifest survive; everything else
  // of ours goes (stray .tmp files from interrupted publishes too).
  std::set<std::pair<std::string, std::uint64_t>> referenced;
  for (const std::uint64_t v : kept) {
    SharedArray<std::uint64_t> manifest;
    try {
      manifest = ArenaVector<std::uint64_t>::open(
          arena_path(dir, "manifest", v), kTagManifest,
          /*verify_checksum=*/false);
    } catch (const RequirementError&) {
      return;  // unreadable manifest: skip GC rather than guess
    }
    if (manifest.size() != kManifestWords) return;
    referenced.emplace("offsets", manifest[3]);
    referenced.emplace("neighbors", manifest[4]);
    referenced.emplace("edge_ids", manifest[4]);
    referenced.emplace("endpoints", manifest[5]);
    referenced.emplace("capacities", manifest[6]);
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
