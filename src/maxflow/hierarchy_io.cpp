#include "maxflow/hierarchy_io.h"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "capprox/approximator.h"
#include "graph/tree.h"
#include "util/arena.h"

namespace dmf {
namespace {

// Distinct from the GraphStore's snapshot tags (1, 5 and 6; 2-4 are
// retired) so a hierarchy array can never be opened as a graph array or
// vice versa.
constexpr std::uint64_t kTagHierMeta = 16;
constexpr std::uint64_t kTagHierRecords = 17;
constexpr std::uint64_t kTagHierRoots = 18;
constexpr std::uint64_t kTagHierParents = 19;
constexpr std::uint64_t kTagHierCaps = 20;
constexpr std::uint64_t kTagHierEdges = 21;

// meta word layout (all u64; doubles bit-punned). Earlier releases
// wrote 8 words, with the BFS height at index 6; such a meta fails the
// word-count check, so the engine rebuilds once and saves this layout.
constexpr std::size_t kMetaFingerprint = 0;
constexpr std::size_t kMetaGraphVersion = 1;
constexpr std::size_t kMetaNumNodes = 2;
constexpr std::size_t kMetaNumTrees = 3;
constexpr std::size_t kMetaAlpha = 4;
constexpr std::size_t kMetaBuildRounds = 5;
constexpr std::size_t kMetaBucketOctaves = 6;
constexpr std::size_t kMetaWords = 7;

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hier_path(const std::string& dir, GraphVersion version,
                      const char* part) {
  return dir + "/hier.v" + std::to_string(version) + "." + part + ".arena";
}

}  // namespace

std::uint64_t hierarchy_fingerprint(const ShermanOptions& options,
                                    std::uint64_t engine_seed) {
  // Every option that influences the sampled state, in a fixed order.
  // Thread counts are deliberately absent (builds are thread-count
  // invariant).
  std::uint64_t h = 14695981039346656037ull;
  h = fnv1a_mix(h, engine_seed);
  h = fnv1a_mix(h, double_bits(options.epsilon));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(options.num_trees));
  h = fnv1a_mix(h, double_bits(options.alpha));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(options.alpha_samples));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(options.max_almost_route_calls));
  h = fnv1a_mix(h, double_bits(options.route_residual_tolerance));
  h = fnv1a_mix(h, double_bits(options.almost_route.epsilon));
  h = fnv1a_mix(h, double_bits(options.almost_route.alpha));
  h = fnv1a_mix(
      h, static_cast<std::uint64_t>(options.almost_route.max_iterations));
  // The retired heavy-ball momentum flag, mixed as off, so hierarchies
  // saved with it off keep their fingerprint.
  h = fnv1a_mix(h, 0u);
  // The virtual-tree build's constants (capprox/hierarchy.cpp), mixed as
  // the options they once were so existing fingerprints stay valid: beta,
  // trees per level and finish threshold (0: derived from beta and n),
  // sparsify degree, sparsifier upscale, MWU step. Change them together
  // with the build.
  h = fnv1a_mix(h, double_bits(4.0));
  h = fnv1a_mix(h, 0);
  h = fnv1a_mix(h, 0);
  h = fnv1a_mix(h, double_bits(16.0));
  h = fnv1a_mix(h, double_bits(1.25));
  h = fnv1a_mix(h, double_bits(0.5));
  h = fnv1a_mix(h, double_bits(options.hierarchy.capacity_bucket_octaves));
  return h;
}

void save_hierarchy(const std::string& dir, const ShermanHierarchy& hierarchy,
                    std::uint64_t fingerprint) {
  const NodeId n = hierarchy.graph().num_nodes();
  const std::size_t nn = static_cast<std::size_t>(n);
  const CongestionApproximator& approx = hierarchy.approximator();
  const int num_trees = approx.num_trees();
  const GraphVersion version = hierarchy.graph_version();

  // Sampled trees first, the MWST as the final slice: each array holds
  // (num_trees + 1) tree-slices of n entries, concatenated.
  const std::size_t slices = static_cast<std::size_t>(num_trees) + 1;
  std::vector<NodeId> roots;
  roots.reserve(slices);
  std::vector<NodeId> parents;
  parents.reserve(slices * nn);
  std::vector<double> caps;
  caps.reserve(slices * nn);
  std::vector<EdgeId> edges;
  edges.reserve(slices * nn);
  for (std::size_t s = 0; s < slices; ++s) {
    const RootedTree& tree = s < static_cast<std::size_t>(num_trees)
                                 ? approx.tree(static_cast<int>(s))
                                 : hierarchy.mwst();
    DMF_REQUIRE(tree.num_nodes() == n,
                "save_hierarchy: tree node count disagrees with graph");
    roots.push_back(tree.root);
    parents.insert(parents.end(), tree.parent.begin(), tree.parent.end());
    caps.insert(caps.end(), tree.parent_cap.begin(), tree.parent_cap.end());
    edges.insert(edges.end(), tree.parent_edge.begin(),
                 tree.parent_edge.end());
  }

  const std::vector<TreeBuildRecord>& records = hierarchy.tree_records();
  DMF_REQUIRE(records.size() == static_cast<std::size_t>(num_trees),
              "save_hierarchy: tree record count disagrees with approximator");

  write_arena(hier_path(dir, version, "records"), kTagHierRecords,
              records.data(), records.size());
  write_arena(hier_path(dir, version, "roots"), kTagHierRoots, roots.data(),
              roots.size());
  write_arena(hier_path(dir, version, "parents"), kTagHierParents,
              parents.data(), parents.size());
  write_arena(hier_path(dir, version, "caps"), kTagHierCaps, caps.data(),
              caps.size());
  write_arena(hier_path(dir, version, "edges"), kTagHierEdges, edges.data(),
              edges.size());

  // Meta last: its presence marks the set complete, so a crash between
  // any of the writes above reads back as "no saved hierarchy".
  std::uint64_t meta[kMetaWords] = {};
  meta[kMetaFingerprint] = fingerprint;
  meta[kMetaGraphVersion] = version;
  meta[kMetaNumNodes] = static_cast<std::uint64_t>(n);
  meta[kMetaNumTrees] = static_cast<std::uint64_t>(num_trees);
  meta[kMetaAlpha] = double_bits(hierarchy.alpha());
  meta[kMetaBuildRounds] = double_bits(hierarchy.build_rounds());
  meta[kMetaBucketOctaves] = double_bits(hierarchy.capacity_bucket_octaves());
  write_arena(hier_path(dir, version, "meta"), kTagHierMeta, meta,
              kMetaWords);
}

std::shared_ptr<const ShermanHierarchy> load_hierarchy(
    const std::string& dir, const GraphSnapshot& snap,
    std::uint64_t fingerprint) {
  DMF_REQUIRE(snap.graph != nullptr, "load_hierarchy: null snapshot graph");
  const GraphVersion version = snap.version;
  const std::string meta_path = hier_path(dir, version, "meta");
  // Meta is written last, so its absence — or the absence of any array
  // file (a GC race) — is a clean miss, not corruption.
  if (!file_exists(meta_path) ||
      !file_exists(hier_path(dir, version, "records")) ||
      !file_exists(hier_path(dir, version, "roots")) ||
      !file_exists(hier_path(dir, version, "parents")) ||
      !file_exists(hier_path(dir, version, "caps")) ||
      !file_exists(hier_path(dir, version, "edges"))) {
    return nullptr;
  }

  const std::vector<std::uint64_t> meta =
      read_arena<std::uint64_t>(meta_path, kTagHierMeta);
  DMF_REQUIRE(meta.size() == kMetaWords,
              "load_hierarchy: meta arena has wrong word count");
  const NodeId n = snap.graph->num_nodes();
  if (meta[kMetaFingerprint] != fingerprint ||
      meta[kMetaGraphVersion] != version ||
      meta[kMetaNumNodes] != static_cast<std::uint64_t>(n)) {
    return nullptr;  // saved under different options or a different graph
  }
  const std::size_t num_trees =
      static_cast<std::size_t>(meta[kMetaNumTrees]);
  const std::size_t slices = num_trees + 1;
  const std::size_t nn = static_cast<std::size_t>(n);

  std::vector<TreeBuildRecord> records = read_arena<TreeBuildRecord>(
      hier_path(dir, version, "records"), kTagHierRecords);
  const std::vector<NodeId> roots =
      read_arena<NodeId>(hier_path(dir, version, "roots"), kTagHierRoots);
  const std::vector<NodeId> parents = read_arena<NodeId>(
      hier_path(dir, version, "parents"), kTagHierParents);
  const std::vector<double> caps =
      read_arena<double>(hier_path(dir, version, "caps"), kTagHierCaps);
  const std::vector<EdgeId> edges =
      read_arena<EdgeId>(hier_path(dir, version, "edges"), kTagHierEdges);
  DMF_REQUIRE(records.size() == num_trees,
              "load_hierarchy: record count disagrees with meta");
  DMF_REQUIRE(roots.size() == slices,
              "load_hierarchy: root count disagrees with meta");
  DMF_REQUIRE(parents.size() == slices * nn && caps.size() == slices * nn &&
                  edges.size() == slices * nn,
              "load_hierarchy: tree array length disagrees with meta");

  auto slice_tree = [&](std::size_t s) {
    RootedTree tree;
    tree.root = roots[s];
    const std::size_t base = s * nn;
    tree.parent.assign(parents.data() + base, parents.data() + base + nn);
    tree.parent_cap.assign(caps.data() + base, caps.data() + base + nn);
    tree.parent_edge.assign(edges.data() + base, edges.data() + base + nn);
    tree.validate();
    return tree;
  };

  std::vector<RootedTree> trees;
  trees.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) trees.push_back(slice_tree(t));

  ShermanHierarchy::Parts parts;
  // The approximator's derived state (orders, inverse capacities) is a
  // deterministic function of the trees, so this reload is bitwise.
  parts.approximator =
      std::make_shared<const CongestionApproximator>(std::move(trees));
  parts.mwst = slice_tree(num_trees);
  // Queries route leftover demand over the MWST's links unchecked, so
  // each must be the snapshot edge joining its node to its parent.
  const Graph& g = *snap.graph;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = parts.mwst.parent_edge[static_cast<std::size_t>(v)];
    if (v == parts.mwst.root) {
      DMF_REQUIRE(e == kInvalidEdge, "load_hierarchy: mwst root has an edge");
      continue;
    }
    DMF_REQUIRE(e >= 0 && e < g.num_edges(),
                "load_hierarchy: mwst edge out of range");
    const EdgeEndpoints ep = g.endpoints(e);
    const NodeId p = parts.mwst.parent[static_cast<std::size_t>(v)];
    DMF_REQUIRE((ep.u == v && ep.v == p) || (ep.u == p && ep.v == v),
                "load_hierarchy: mwst edge does not join a node to its "
                "parent");
  }
  parts.tree_records = std::move(records);
  parts.bucket_octaves = bits_double(meta[kMetaBucketOctaves]);
  parts.alpha = bits_double(meta[kMetaAlpha]);
  DMF_REQUIRE(std::isfinite(parts.alpha) && parts.alpha > 0.0,
              "load_hierarchy: alpha must be finite and > 0");
  parts.build_rounds = bits_double(meta[kMetaBuildRounds]);
  return ShermanHierarchy::from_parts(snap.graph, snap.csr, version,
                                      std::move(parts));
}

}  // namespace dmf
