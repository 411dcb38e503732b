// Persistence: arena round trips and format, hard rejection of
// corrupt files, the on-disk copy-on-write ladder, and the zero-rebuild
// engine cold start (a reopened snapshot + persisted hierarchy serves
// queries bitwise identical to the process that wrote them).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/result.h"
#include "graph/algorithms.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/graph_store.h"
#include "maxflow/hierarchy_io.h"
#include "util/arena.h"
#include "util/rng.h"

namespace dmf {
namespace {

namespace fs = std::filesystem;

// A fresh directory under the system temp root, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("dmf_persist_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void overwrite_byte(const std::string& path, std::streamoff offset,
                    char value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(offset);
  f.write(&value, 1);
}

void truncate_file(const std::string& path, std::uintmax_t size) {
  fs::resize_file(path, size);
}

Graph test_grid(int w = 8, int h = 8, std::uint64_t seed = 7) {
  Rng rng(seed);
  return make_grid(w, h, {1, 64}, rng);
}

EngineOptions small_engine_options() {
  EngineOptions opts;
  opts.sherman.num_trees = 4;
  opts.threads = 2;
  opts.seed = 42;
  // Keep the 64-node grid on the Sherman path (not the exact-baseline
  // dispatch) so the queries actually exercise the reloaded hierarchy.
  opts.exact_cutoff_nodes = 4;
  return opts;
}

// --- arena round trip --------------------------------------------------------

TEST(MmapArena, RoundTripIsBitwise) {
  TempDir dir;
  const std::string path = dir.path() + "/caps.arena";
  std::vector<double> values;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) values.push_back(rng.next_double(0.1, 99.0));

  write_arena(path, /*type_tag=*/6, values.data(), values.size());
  const std::vector<double> read = read_arena<double>(path, /*type_tag=*/6);
  ASSERT_EQ(read.size(), values.size());
  EXPECT_EQ(read, values);  // bitwise: doubles compare exactly
  EXPECT_EQ(fs::file_size(path), 64 + values.size() * sizeof(double));
  // No stray tmp file left behind by the atomic publish.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(MmapArena, EmptyArrayRoundTrips) {
  TempDir dir;
  const std::string path = dir.path() + "/empty.arena";
  write_arena<std::uint64_t>(path, 1, nullptr, 0);
  const std::vector<std::uint64_t> read = read_arena<std::uint64_t>(path, 1);
  EXPECT_EQ(read.size(), 0u);
  EXPECT_TRUE(read.empty());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// The exact bytes written for fixed arrays, as hashes recorded from the
// release that still mapped arenas: any drift of the on-disk format
// (header layout, checksums, payload encoding) fails here before it
// strands a data directory.
TEST(MmapArena, FormatIsPinned) {
  TempDir dir;
  const std::string doubles = dir.path() + "/doubles.arena";
  const std::vector<double> values{0.5, -1.25, 3e10, 1.0 / 3.0, 7.0};
  write_arena(doubles, /*type_tag=*/6, values.data(), values.size());
  const std::string bytes = file_bytes(doubles);
  EXPECT_EQ(bytes.size(), 104u);
  EXPECT_EQ(fnv1a(bytes), 0x2a72be2543c56875ULL);

  const std::string empty = dir.path() + "/empty.arena";
  write_arena<std::uint64_t>(empty, /*type_tag=*/1, nullptr, 0);
  EXPECT_EQ(file_bytes(empty).size(), 64u);
  EXPECT_EQ(fnv1a(file_bytes(empty)), 0xecd01238b56a1a79ULL);
}

// --- corruption corpus -------------------------------------------------------

class MmapArenaCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = dir_.path() + "/victim.arena";
    std::vector<std::uint64_t> values;
    for (std::uint64_t i = 0; i < 64; ++i) values.push_back(i * 3 + 1);
    write_arena(path_, kTag, values.data(), values.size());
  }
  static constexpr std::uint64_t kTag = 5;
  TempDir dir_;
  std::string path_;
};

TEST_F(MmapArenaCorruption, MissingFile) {
  EXPECT_THROW(
      read_arena<std::uint64_t>(dir_.path() + "/nope.arena", kTag),
      RequirementError);
}

TEST_F(MmapArenaCorruption, TruncatedBelowHeader) {
  truncate_file(path_, 10);
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, TruncatedPayload) {
  truncate_file(path_, 64 + 8 * 13);  // header intact, payload short
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, ForeignMagic) {
  overwrite_byte(path_, 0, 'X');
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, FutureLayoutVersion) {
  overwrite_byte(path_, 8, 99);  // layout_version field
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, WrongTypeTag) {
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag + 1),
               RequirementError);
}

TEST_F(MmapArenaCorruption, WrongElementSize) {
  EXPECT_THROW(read_arena<std::uint32_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, TamperedCountFailsHeaderChecksum) {
  overwrite_byte(path_, 32, 1);  // count field, low byte
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

// A count whose byte size wraps 2^64 to exactly the payload's 512 bytes,
// under a recomputed header checksum: the count must be bounded by the
// file before it is multiplied or allocated.
TEST_F(MmapArenaCorruption, CountPastTheFileUnderValidChecksum) {
  constexpr std::uint64_t kWrappingCount = (std::uint64_t{1} << 61) + 64;
  std::string bytes = file_bytes(path_);
  ASSERT_EQ(bytes.size(), 64u + 64u * 8u);
  std::memcpy(&bytes[32], &kWrappingCount, sizeof(kWrappingCount));
  const std::uint64_t header_hash = fnv1a(bytes.substr(0, 48));
  std::memcpy(&bytes[48], &header_hash, sizeof(header_hash));
  {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag), RequirementError);
}

TEST_F(MmapArenaCorruption, FlippedPayloadByte) {
  overwrite_byte(path_, 64 + 100, 'Z');
  EXPECT_THROW(read_arena<std::uint64_t>(path_, kTag),
               RequirementError);
}

TEST_F(MmapArenaCorruption, ForeignFileAndErrorClassification) {
  const std::string junk = dir_.path() + "/junk.arena";
  {
    std::ofstream f(junk, std::ios::binary);
    for (int i = 0; i < 200; ++i) f << "not an arena ";
  }
  try {
    (void)read_arena<std::uint64_t>(junk, kTag);
    FAIL() << "foreign file must be rejected";
  } catch (const RequirementError& e) {
    // The engine boundary maps arena rejections to kPreconditionFailed
    // — corrupt data is the caller's state, not an engine bug.
    EXPECT_EQ(classify_error(e), ErrorCode::kPreconditionFailed);
  }
}

// --- GraphStore persistence --------------------------------------------------

MutationBatch capacity_batch(const Graph& g) {
  MutationBatch batch;
  batch.set_capacity(0, 17.5);
  batch.set_capacity(g.num_edges() - 1, 3.25);
  return batch;
}

TEST(GraphStorePersist, RoundTripAcrossReopen) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();

  Graph g = test_grid();
  const auto n = g.num_nodes();
  std::vector<GraphVersion> published{0};
  {
    GraphStore store(std::move(g), gopts);
    published.push_back(store.apply(capacity_batch(*store.snapshot().graph))
                            .version);
    MutationBatch nodes;
    nodes.add_nodes(3);
    published.push_back(store.apply(nodes).version);
    MutationBatch topo;
    topo.add_edge(0, n, 9.0).add_edge(n + 1, n + 2, 2.0);
    published.push_back(store.apply(topo).version);
  }  // store destroyed; only the files remain

  ASSERT_TRUE(GraphStore::can_open(dir.path()));
  const std::shared_ptr<GraphStore> reopened = GraphStore::open(dir.path());
  EXPECT_EQ(reopened->latest_version(), published.back());

  // The reopened latest is bitwise identical to what was persisted:
  // same shape, same endpoints, same capacities, same packed CSR.
  GraphStoreOptions plain;
  GraphStore fresh_store(test_grid(), plain);
  GraphSnapshot fresh = fresh_store.apply(
      capacity_batch(*fresh_store.snapshot().graph));
  MutationBatch nodes;
  nodes.add_nodes(3);
  fresh = fresh_store.apply(nodes);
  MutationBatch topo;
  topo.add_edge(0, n, 9.0).add_edge(n + 1, n + 2, 2.0);
  fresh = fresh_store.apply(topo);

  const GraphSnapshot got = reopened->snapshot();
  EXPECT_EQ(got.version, published.back());
  ASSERT_EQ(got.graph->num_nodes(), fresh.graph->num_nodes());
  ASSERT_EQ(got.graph->num_edges(), fresh.graph->num_edges());
  EXPECT_EQ(got.graph->capacities(), fresh.graph->capacities());
  for (EdgeId e = 0; e < got.graph->num_edges(); ++e) {
    EXPECT_EQ(got.graph->endpoints(e).u, fresh.graph->endpoints(e).u);
    EXPECT_EQ(got.graph->endpoints(e).v, fresh.graph->endpoints(e).v);
  }
  EXPECT_EQ(got.csr->offsets(), fresh.csr->offsets());
  EXPECT_EQ(got.csr->neighbor_array(), fresh.csr->neighbor_array());
  EXPECT_EQ(got.csr->edge_id_array(), fresh.csr->edge_id_array());

  // The reopened store continues publishing from where it stopped.
  const GraphSnapshot next = reopened->apply(MutationBatch{});
  EXPECT_EQ(next.version, published.back() + 1);
}

// The arena files a version wrote, by array name.
std::set<std::string> files_of_version(const std::string& dir,
                                       std::uint64_t v) {
  const std::string suffix = ".v" + std::to_string(v) + ".arena";
  std::set<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      out.insert(name.substr(0, name.size() - suffix.size()));
    }
  }
  return out;
}

TEST(GraphStorePersist, OnDiskCowLadderSharesUnchangedFiles) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  const NodeId n = store.snapshot().graph->num_nodes();

  const auto written = [&](std::uint64_t v) {
    return files_of_version(dir.path(), v);
  };
  // A store reopened at each rung of the ladder agrees with the live
  // snapshot of that version.
  const auto expect_reopens_as = [&](const GraphSnapshot& a) {
    const GraphSnapshot b = GraphStore::open(dir.path())->snapshot();
    EXPECT_EQ(b.version, a.version);
    EXPECT_EQ(b.graph->capacities(), a.graph->capacities());
    EXPECT_EQ(b.csr->offsets(), a.csr->offsets());
  };
  const std::set<std::string> whole_edge_list{"manifest", "endpoints",
                                              "capacities"};
  // v0: the whole edge list; the CSR is never persisted.
  EXPECT_EQ(written(0), whole_edge_list);
  expect_reopens_as(store.snapshot());

  // Capacity-only: only a new capacities array (plus the manifest).
  expect_reopens_as(store.apply(capacity_batch(*store.snapshot().graph)));
  EXPECT_EQ(written(1), (std::set<std::string>{"manifest", "capacities"}));

  // Node-only: the edge list is unchanged, so only a manifest.
  MutationBatch nodes;
  nodes.add_nodes(2);
  expect_reopens_as(store.apply(nodes));
  EXPECT_EQ(written(2), std::set<std::string>{"manifest"});

  // Topology: the whole edge list is rewritten.
  MutationBatch topo;
  topo.add_edge(0, n, 5.0);
  expect_reopens_as(store.apply(topo));
  EXPECT_EQ(written(3), whole_edge_list);
}

TEST(GraphStorePersist, GcBoundsRetainedVersionsOnDisk) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  for (int i = 0; i < 5; ++i) {
    MutationBatch batch;
    batch.set_capacity(i, 2.0 + i);
    store.apply(batch);
  }
  int manifests = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("manifest.", 0) == 0) ++manifests;
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
  // Six versions published; GC keeps the newest four
  // (kRetainVersions, graph/graph_store.cpp).
  EXPECT_EQ(manifests, 4);
  // The kept tail reopens at its newest version.
  const std::shared_ptr<GraphStore> reopened = GraphStore::open(dir.path(),
                                                               gopts);
  EXPECT_EQ(reopened->latest_version(), 5u);
}

// open() reads CURRENT's manifest and the five arrays it references,
// nothing older: a file only a superseded version references can go
// missing without making the complete CURRENT version unopenable.
TEST(GraphStorePersist, ReopenReadsOnlyTheCurrentVersion) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  GraphSnapshot live;
  {
    GraphStore store(test_grid(), gopts);
    for (int i = 0; i < 5; ++i) {
      MutationBatch batch;
      batch.set_capacity(i, 2.0 + i);
      live = store.apply(batch);
    }
  }
  ASSERT_EQ(live.version, 5u);
  // Capacity-only batches write a capacities array per version, so
  // capacities.v4 is referenced by v4's manifest alone.
  fs::remove(dir.path() + "/capacities.v4.arena");
  const std::shared_ptr<GraphStore> reopened = GraphStore::open(dir.path());
  const GraphSnapshot got = reopened->snapshot();
  EXPECT_EQ(got.version, 5u);
  EXPECT_EQ(got.graph->capacities(), live.graph->capacities());
  EXPECT_EQ(got.csr->offsets(), live.csr->offsets());
}

TEST(GraphStorePersist, ManualPersistAndOpenRejectsCorruption) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();  // policy kNone: persist() is manual
  GraphStore store(test_grid(), gopts);
  EXPECT_FALSE(GraphStore::can_open(dir.path()));
  EXPECT_EQ(store.persist(), 0u);
  EXPECT_TRUE(GraphStore::can_open(dir.path()));
  EXPECT_EQ(store.persist(), 0u);  // idempotent no-op when durable

  // Garbage CURRENT is rejected, not guessed at.
  write_file_atomic(dir.path() + "/CURRENT", "banana\n");
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
  // CURRENT naming a version with no manifest is rejected.
  write_file_atomic(dir.path() + "/CURRENT", "7\n");
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
  write_file_atomic(dir.path() + "/CURRENT", "0\n");
  EXPECT_NO_THROW((void)GraphStore::open(dir.path()));
  // A flipped payload byte in a referenced array fails the reopen.
  overwrite_byte(dir.path() + "/capacities.v0.arena", 64 + 5, 'X');
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
}

// A CURRENT of digits only, but beyond uint64, is a corrupt file like
// any other: RequirementError, not std::out_of_range.
TEST(GraphStorePersist, CurrentBeyondUint64IsARequirementError) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  (void)store.persist();
  for (const char* current :
       {"99999999999999999999999\n", "18446744073709551616\n"}) {
    write_file_atomic(dir.path() + "/CURRENT", current);
    EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError)
        << current;
  }
  write_file_atomic(dir.path() + "/CURRENT", "0\n");
  EXPECT_EQ(GraphStore::open(dir.path())->latest_version(), 0u);
}

constexpr std::uint64_t kTagManifest = 1;  // graph/graph_store.cpp

// Rewrites one word of version v's manifest under a valid checksum.
void rewrite_manifest_word(const std::string& dir, std::uint64_t v,
                           std::size_t word, std::uint64_t value) {
  const std::string path = dir + "/manifest.v" + std::to_string(v) + ".arena";
  std::vector<std::uint64_t> words =
      read_arena<std::uint64_t>(path, kTagManifest);
  ASSERT_GT(words.size(), word);
  words[word] = value;
  write_arena(path, kTagManifest, words.data(), words.size());
}

// Writes version 0 in the layout earlier releases wrote: a 7-word
// manifest whose words 3 and 4 name offsets/neighbors/edge_ids arenas
// (`csr`'s, with `neighbors` in place of its neighbor array), plus `g`'s
// endpoints and capacities. The manifest's edge count is csr's.
void write_legacy_version(const std::string& dir, const Graph& g,
                          const CsrGraph& csr,
                          const std::vector<NodeId>& neighbors) {
  constexpr std::uint64_t kTagOffsets = 2;
  constexpr std::uint64_t kTagNeighbors = 3;
  constexpr std::uint64_t kTagEdgeIds = 4;
  constexpr std::uint64_t kTagEndpoints = 5;
  constexpr std::uint64_t kTagCapacities = 6;
  const auto file = [&](const char* name) {
    return dir + "/" + name + ".v0.arena";
  };
  write_arena(file("offsets"), kTagOffsets, csr.offsets().data(),
              csr.offsets().size());
  write_arena(file("neighbors"), kTagNeighbors, neighbors.data(),
              neighbors.size());
  write_arena(file("edge_ids"), kTagEdgeIds, csr.edge_id_array().data(),
              csr.edge_id_array().size());
  write_arena(file("endpoints"), kTagEndpoints, g.edge_endpoints().data(),
              g.edge_endpoints().size());
  write_arena(file("capacities"), kTagCapacities, g.capacities().data(),
              g.capacities().size());
  const std::uint64_t manifest[7] = {
      0, static_cast<std::uint64_t>(g.num_nodes()),
      static_cast<std::uint64_t>(csr.num_edges()), 0, 0, 0, 0};
  write_arena(file("manifest"), kTagManifest, manifest, 7);
  write_file_atomic(dir + "/CURRENT", "0\n");
}

// Manifest counts are checked before they are narrowed: an n or m past
// the NodeId/EdgeId range is corrupt, not read modulo 2^32.
TEST(GraphStorePersist, ManifestCountsBeyondInt32AreRejected) {
  constexpr std::size_t kWordNodes = 1;
  constexpr std::size_t kWordEdges = 2;
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  (void)store.persist();
  const GraphSnapshot snap = store.snapshot();
  const Graph& g = *snap.graph;
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  const std::uint64_t wrap = std::uint64_t{1} << 32;
  rewrite_manifest_word(dir.path(), 0, kWordNodes, wrap + n);
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
  rewrite_manifest_word(dir.path(), 0, kWordNodes, n);
  rewrite_manifest_word(dir.path(), 0, kWordEdges, wrap + m);
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
  rewrite_manifest_word(dir.path(), 0, kWordEdges, m);
  EXPECT_EQ(GraphStore::open(dir.path())->snapshot().graph->num_nodes(),
            g.num_nodes());
}

// The manifest is the only record of n: a node-only version is exactly
// a manifest with a larger n over older arrays. So an in-range n above
// the edges opens as that many nodes (the extra ones isolated), while an
// n below some endpoint fails in the edge replay.
TEST(GraphStorePersist, ManifestNodeCountIsCheckedOnlyAgainstTheEdges) {
  constexpr std::size_t kWordNodes = 1;
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  (void)store.persist();
  const GraphSnapshot snap = store.snapshot();
  const Graph& g = *snap.graph;
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  rewrite_manifest_word(dir.path(), 0, kWordNodes, n + 1000);
  const GraphSnapshot grown = GraphStore::open(dir.path())->snapshot();
  EXPECT_EQ(grown.graph->num_nodes(), g.num_nodes() + 1000);
  EXPECT_EQ(grown.csr->num_nodes(), g.num_nodes() + 1000);
  ASSERT_EQ(grown.graph->num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(grown.graph->endpoints(e).u, g.endpoints(e).u);
    EXPECT_EQ(grown.graph->endpoints(e).v, g.endpoints(e).v);
  }
  EXPECT_EQ(grown.csr->degree(g.num_nodes()), 0u);
  rewrite_manifest_word(dir.path(), 0, kWordNodes, n - 1);
  EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError);
}

// The writer stores exactly m endpoints and capacities, so arrays of any
// other length are corrupt — a smaller m must not silently drop edges.
TEST(GraphStorePersist, ManifestEdgeCountMustMatchTheArrays) {
  constexpr std::size_t kWordEdges = 2;
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();
  GraphStore store(test_grid(), gopts);
  (void)store.persist();
  const auto m =
      static_cast<std::uint64_t>(store.snapshot().graph->num_edges());
  for (const std::uint64_t bad : {m - 1, m + 1, std::uint64_t{0}}) {
    rewrite_manifest_word(dir.path(), 0, kWordEdges, bad);
    EXPECT_THROW((void)GraphStore::open(dir.path()), RequirementError) << bad;
  }
  rewrite_manifest_word(dir.path(), 0, kWordEdges, m);
  EXPECT_EQ(GraphStore::open(dir.path())->snapshot().graph->num_edges(),
            store.snapshot().graph->num_edges());

  // The same in the layout earlier releases wrote: a manifest (and CSR)
  // one edge short of the edge-list arrays must not open without the
  // last edge.
  TempDir legacy;
  const Graph g = test_grid();
  Graph short_g(g.num_nodes());
  for (EdgeId e = 0; e + 1 < g.num_edges(); ++e) {
    short_g.add_edge(g.endpoints(e).u, g.endpoints(e).v, g.capacity(e));
  }
  const CsrGraph short_csr(short_g);
  write_legacy_version(legacy.path(), g, short_csr,
                       short_csr.neighbor_array());
  EXPECT_THROW((void)GraphStore::open(legacy.path()), RequirementError);
}

// A directory in the layout earlier releases wrote still opens, and its
// CSR files are never read: here the neighbors arena holds an
// out-of-range node id under a valid checksum, and the reopened store
// serves exactly what a fresh engine on the same graph does. The next
// publish's GC removes the CSR files.
TEST(GraphStorePersist, LegacyLayoutOpensWithoutReadingItsCsrFiles) {
  TempDir dir;
  const Graph g = test_grid();
  const CsrGraph csr(g);
  std::vector<NodeId> neighbors = csr.neighbor_array();
  neighbors[0] = std::numeric_limits<NodeId>::max();
  write_legacy_version(dir.path(), g, csr, neighbors);

  const EngineOptions eopts = small_engine_options();
  FlowEngine cold(GraphStore::open(dir.path()), eopts);
  FlowEngine fresh(test_grid(), eopts);
  EXPECT_EQ(cold.snapshot().csr->neighbor_array(), csr.neighbor_array());

  const MaxFlowApproxResult got_flow =
      cold.submit(MaxFlowQuery{0, 63}).get().value();
  const MaxFlowApproxResult want_flow =
      fresh.submit(MaxFlowQuery{0, 63}).get().value();
  EXPECT_EQ(got_flow.value, want_flow.value);
  EXPECT_EQ(got_flow.flow, want_flow.flow);
  EXPECT_EQ(got_flow.rounds, want_flow.rounds);

  std::vector<double> demand(64, 0.0);
  demand[0] = 2.0;
  demand[5] = -1.0;
  demand[63] = -1.0;
  const RouteResult got_route = cold.submit(RouteQuery{demand}).get().value();
  const RouteResult want_route =
      fresh.submit(RouteQuery{demand}).get().value();
  EXPECT_EQ(got_route.flow, want_route.flow);
  EXPECT_EQ(got_route.congestion, want_route.congestion);
  EXPECT_EQ(got_route.rounds, want_route.rounds);

  const MultiTerminalQuery multi{{0, 1}, {62, 63}};
  const auto got_multi = cold.submit(multi).get().value();
  const auto want_multi = fresh.submit(multi).get().value();
  EXPECT_EQ(got_multi.value, want_multi.value);
  EXPECT_EQ(got_multi.flow, want_multi.flow);

  const auto got_congest = cold.submit(CongestQuery{0, 63}).get().value();
  const auto want_congest = fresh.submit(CongestQuery{0, 63}).get().value();
  EXPECT_EQ(got_congest.flow_value, want_congest.flow_value);
  EXPECT_EQ(got_congest.stats.transcript_hash,
            want_congest.stats.transcript_hash);

  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  const std::shared_ptr<GraphStore> store = GraphStore::open(dir.path(), gopts);
  (void)store->apply(MutationBatch{});
  EXPECT_EQ(files_of_version(dir.path(), 0),
            (std::set<std::string>{"manifest", "endpoints", "capacities"}));
  EXPECT_EQ(files_of_version(dir.path(), 1), std::set<std::string>{"manifest"});
}

// --- engine cold start -------------------------------------------------------

TEST(EngineColdStart, ReopenServesBitwiseIdenticalWithZeroRebuilds) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();

  std::vector<double> demand(64, 0.0);
  demand[0] = 2.0;
  demand[5] = -1.0;
  demand[63] = -1.0;

  MaxFlowApproxResult warm_flow;
  RouteResult warm_route;
  std::uint64_t warm_transcript = 0;
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    EXPECT_EQ(engine.stats().hierarchy_cold_loads, 0);
    EXPECT_GE(engine.stats().hierarchy_saves, 1);
    warm_flow = engine.submit(MaxFlowQuery{0, 63}).get().value();
    warm_route = engine.submit(RouteQuery{demand}).get().value();
    warm_transcript = engine.submit(CongestQuery{0, 63})
                          .get()
                          .value()
                          .stats.transcript_hash;
  }  // SIGKILL stand-in: nothing flushed beyond what publish wrote

  auto reopened = GraphStore::open(dir.path(), gopts);
  FlowEngine cold(reopened, eopts);
  const EngineStats stats = cold.stats();
  EXPECT_EQ(stats.hierarchy_cold_loads, 1);
  EXPECT_EQ(stats.hierarchy_load_failures, 0);
  EXPECT_EQ(stats.rebuild.started, 0);

  const MaxFlowApproxResult cold_flow =
      cold.submit(MaxFlowQuery{0, 63}).get().value();
  EXPECT_EQ(cold_flow.value, warm_flow.value);  // bitwise, not approx
  EXPECT_EQ(cold_flow.flow, warm_flow.flow);
  EXPECT_EQ(cold_flow.alpha, warm_flow.alpha);
  const RouteResult cold_route =
      cold.submit(RouteQuery{demand}).get().value();
  EXPECT_EQ(cold_route.flow, warm_route.flow);
  EXPECT_EQ(cold_route.congestion, warm_route.congestion);
  EXPECT_EQ(cold.submit(CongestQuery{0, 63})
                .get()
                .value()
                .stats.transcript_hash,
            warm_transcript);
  // Still zero rebuilds after serving.
  EXPECT_EQ(cold.stats().rebuild.started, 0);
}

TEST(EngineColdStart, MutationAfterReopenMatchesFreshEngine) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    (void)engine.submit(MaxFlowQuery{0, 63}).get();
  }

  auto reopened = GraphStore::open(dir.path(), gopts);
  FlowEngine cold(reopened, eopts);
  MutationBatch batch;
  batch.set_capacity(0, 9.75).set_capacity(7, 0.5);
  const ApplyResult applied = cold.apply(batch);
  ASSERT_TRUE(cold.wait_for_version(applied.version, 120.0));
  const MaxFlowApproxResult after =
      cold.submit(MaxFlowQuery{0, 63}).get().value();

  // A fresh engine built directly on the mutated graph agrees bitwise:
  // the cold-open + repair path changes where state comes from, never
  // what it is.
  auto plain = std::make_shared<GraphStore>(test_grid(), GraphStoreOptions{});
  FlowEngine fresh(plain, eopts);
  const ApplyResult fresh_applied = fresh.apply(batch);
  ASSERT_TRUE(fresh.wait_for_version(fresh_applied.version, 120.0));
  const MaxFlowApproxResult want =
      fresh.submit(MaxFlowQuery{0, 63}).get().value();
  EXPECT_EQ(after.value, want.value);
  EXPECT_EQ(after.flow, want.flow);
  EXPECT_EQ(after.alpha, want.alpha);
}

TEST(EngineColdStart, FingerprintMismatchFallsBackToBuild) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, small_engine_options());
  }
  EngineOptions other = small_engine_options();
  other.seed = 4242;  // different stream: the persisted trees are stale
  FlowEngine cold(GraphStore::open(dir.path(), gopts), other);
  const EngineStats stats = cold.stats();
  EXPECT_EQ(stats.hierarchy_cold_loads, 0);  // clean miss, not a failure
  EXPECT_EQ(stats.hierarchy_load_failures, 0);
  EXPECT_TRUE(cold.submit(MaxFlowQuery{0, 63}).get().ok());
}

TEST(EngineColdStart, CorruptHierarchyFallsBackToBuild) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();
  MaxFlowApproxResult warm;
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    warm = engine.submit(MaxFlowQuery{0, 63}).get().value();
  }
  overwrite_byte(dir.path() + "/hier.v0.parents.arena", 64 + 9, 'X');
  FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
  const EngineStats stats = cold.stats();
  EXPECT_EQ(stats.hierarchy_cold_loads, 0);
  EXPECT_EQ(stats.hierarchy_load_failures, 1);
  // The rebuilt hierarchy still answers identically.
  EXPECT_EQ(cold.submit(MaxFlowQuery{0, 63}).get().value().value, warm.value);
}

// Checksum-valid but inconsistent hierarchy files must be rejected at
// load (counted as a failure, then rebuilt), never served: a MWST link
// naming an edge outside the snapshot would make the first Sherman
// query index past the edge arrays.
TEST(EngineColdStart, MwstEdgesOutsideTheSnapshotFallBackToBuild) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
  }
  // The edges arena holds one n-entry slice per sampled tree, then the
  // MWST's slice last. Rewrite the MWST's edge ids out of range, with a
  // valid checksum.
  constexpr std::uint64_t kTagHierEdges = 21;  // maxflow/hierarchy_io.cpp
  const std::string path = dir.path() + "/hier.v0.edges.arena";
  std::vector<EdgeId> edges = read_arena<EdgeId>(path, kTagHierEdges);
  ASSERT_GE(edges.size(), 64u);
  for (std::size_t i = edges.size() - 64; i < edges.size(); ++i) {
    if (edges[i] != kInvalidEdge) edges[i] += 1000000;
  }
  write_arena(path, kTagHierEdges, edges.data(), edges.size());

  FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
  const EngineStats stats = cold.stats();
  EXPECT_EQ(stats.hierarchy_load_failures, 1);
  EXPECT_EQ(stats.hierarchy_cold_loads, 0);
  FlowEngine fresh(test_grid(), eopts);
  const MaxFlowApproxResult got =
      cold.submit(MaxFlowQuery{0, 63}).get().value();
  const MaxFlowApproxResult want =
      fresh.submit(MaxFlowQuery{0, 63}).get().value();
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.flow, want.flow);
}

// The same for the scalar summary: an alpha that is not finite and > 0
// fails the load.
TEST(EngineColdStart, BadAlphaFallsBackToBuild) {
  constexpr std::uint64_t kTagHierMeta = 16;  // maxflow/hierarchy_io.cpp
  constexpr std::size_t kMetaAlpha = 4;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t nan_bits = 0;
  std::memcpy(&nan_bits, &nan, sizeof(nan));
  const struct {
    std::size_t word;
    std::uint64_t value;
  } tampers[] = {{kMetaAlpha, nan_bits}, {kMetaAlpha, 0}};  // NaN, +0.0
  for (const auto& tamper : tampers) {
    TempDir dir;
    GraphStoreOptions gopts;
    gopts.persist = PersistPolicy::kOnPublish;
    gopts.data_dir = dir.path();
    const EngineOptions eopts = small_engine_options();
    {
      auto store = std::make_shared<GraphStore>(test_grid(), gopts);
      FlowEngine engine(store, eopts);
    }
    const std::string path = dir.path() + "/hier.v0.meta.arena";
    std::vector<std::uint64_t> meta =
        read_arena<std::uint64_t>(path, kTagHierMeta);
    ASSERT_GT(meta.size(), kMetaAlpha);
    meta[tamper.word] = tamper.value;
    write_arena(path, kTagHierMeta, meta.data(), meta.size());

    FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
    const EngineStats stats = cold.stats();
    EXPECT_EQ(stats.hierarchy_load_failures, 1) << tamper.word;
    EXPECT_EQ(stats.hierarchy_cold_loads, 0) << tamper.word;
    EXPECT_TRUE(cold.submit(MaxFlowQuery{0, 63}).get().ok());
  }
}

// A hierarchy meta in the 8-word layout of earlier releases (the BFS
// height at word 6) is a load failure: the engine rebuilds once, saves
// the current layout, and the next cold open loads it.
TEST(EngineColdStart, EarlierMetaLayoutRebuildsOnce) {
  constexpr std::uint64_t kTagHierMeta = 16;  // maxflow/hierarchy_io.cpp
  constexpr std::size_t kOldMetaBfsHeight = 6;
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();
  MaxFlowApproxResult warm;
  int bfs_height = 0;
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    warm = engine.submit(MaxFlowQuery{0, 63}).get().value();
    bfs_height = engine.hierarchy().bfs_height();
  }
  const std::string path = dir.path() + "/hier.v0.meta.arena";
  std::vector<std::uint64_t> meta =
      read_arena<std::uint64_t>(path, kTagHierMeta);
  ASSERT_EQ(meta.size(), kOldMetaBfsHeight + 1);
  meta.insert(meta.begin() + kOldMetaBfsHeight,
              static_cast<std::uint64_t>(bfs_height));
  write_arena(path, kTagHierMeta, meta.data(), meta.size());

  {
    FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
    EXPECT_EQ(cold.stats().hierarchy_load_failures, 1);
    EXPECT_EQ(cold.stats().hierarchy_cold_loads, 0);
    EXPECT_EQ(cold.submit(MaxFlowQuery{0, 63}).get().value().flow, warm.flow);
  }
  FlowEngine reloaded(GraphStore::open(dir.path(), gopts), eopts);
  EXPECT_EQ(reloaded.stats().hierarchy_load_failures, 0);
  EXPECT_EQ(reloaded.stats().hierarchy_cold_loads, 1);
  EXPECT_EQ(reloaded.submit(MaxFlowQuery{0, 63}).get().value().flow,
            warm.flow);
}

// The BFS height is not persisted: a cold-loaded hierarchy derives it
// from the reopened snapshot as the build does. After a topology batch
// that shortens it, the cold engine answers bitwise like the warm one.
TEST(EngineColdStart, ColdLoadDerivesBfsHeightAfterTopologyBatch) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.persist = PersistPolicy::kOnPublish;
  gopts.data_dir = dir.path();
  const EngineOptions eopts = small_engine_options();
  std::vector<double> demand(64, 0.0);
  demand[0] = 2.0;
  demand[5] = -1.0;
  demand[63] = -1.0;

  MaxFlowApproxResult warm_flow;
  RouteResult warm_route;
  int warm_height = 0;
  int grid_height = 0;
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    grid_height = engine.hierarchy().bfs_height();
    MutationBatch topo;
    topo.add_edge(0, 63, 4.0);
    const ApplyResult applied = engine.apply(topo);
    ASSERT_TRUE(engine.wait_for_version(applied.version, 120.0));
    warm_height = engine.hierarchy().bfs_height();
    warm_flow = engine.submit(MaxFlowQuery{0, 63}).get().value();
    warm_route = engine.submit(RouteQuery{demand}).get().value();
  }
  EXPECT_LT(warm_height, grid_height);

  FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
  EXPECT_EQ(cold.stats().hierarchy_cold_loads, 1);
  EXPECT_EQ(cold.stats().rebuild.started, 0);
  const GraphSnapshot snap = cold.snapshot();
  EXPECT_EQ(snap.version, 1u);
  EXPECT_EQ(cold.hierarchy().bfs_height(),
            build_bfs_tree(*snap.csr, 0).height);
  EXPECT_EQ(cold.hierarchy().bfs_height(), warm_height);

  const MaxFlowApproxResult cold_flow =
      cold.submit(MaxFlowQuery{0, 63}).get().value();
  EXPECT_EQ(cold_flow.value, warm_flow.value);
  EXPECT_EQ(cold_flow.flow, warm_flow.flow);
  EXPECT_EQ(cold_flow.rounds, warm_flow.rounds);
  const RouteResult cold_route = cold.submit(RouteQuery{demand}).get().value();
  EXPECT_EQ(cold_route.flow, warm_route.flow);
  EXPECT_EQ(cold_route.rounds, warm_route.rounds);
}

TEST(EngineColdStart, ManualEnginePersistEnablesColdOpen) {
  TempDir dir;
  GraphStoreOptions gopts;
  gopts.data_dir = dir.path();  // kNone: nothing persists until asked
  const EngineOptions eopts = small_engine_options();
  MaxFlowApproxResult warm;
  {
    auto store = std::make_shared<GraphStore>(test_grid(), gopts);
    FlowEngine engine(store, eopts);
    warm = engine.submit(MaxFlowQuery{0, 63}).get().value();
    EXPECT_FALSE(GraphStore::can_open(dir.path()));
    EXPECT_EQ(engine.persist(), 0u);
    EXPECT_EQ(engine.stats().hierarchy_saves, 1);
  }
  FlowEngine cold(GraphStore::open(dir.path(), gopts), eopts);
  EXPECT_EQ(cold.stats().hierarchy_cold_loads, 1);
  EXPECT_EQ(cold.submit(MaxFlowQuery{0, 63}).get().value().flow, warm.flow);
}

TEST(EngineColdStart, PersistWithoutDataDirThrows) {
  FlowEngine engine(test_grid(), small_engine_options());
  EXPECT_THROW((void)engine.persist(), RequirementError);
}

}  // namespace
}  // namespace dmf
