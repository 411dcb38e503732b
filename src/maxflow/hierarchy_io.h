// Persistence of the ShermanHierarchy: the zero-rebuild cold-start
// path. The engine saves the serving hierarchy's per-tree arrays
// (RootedTree parent/parent_cap/parent_edge for every sampled tree and
// the MWST), the TreeBuildRecord provenance, and the scalar summary
// (alpha, build rounds, quantization width) as arena files
// (util/arena.h) next to the GraphStore's snapshot arrays. A restarted
// engine reads them back, each checked, and copies every tree slice
// into its RootedTree — bitwise, since the CongestionApproximator's
// derived state is a deterministic function of the trees — and serves
// its first query without any sampling. What is cheap to recompute from
// the snapshot is not saved: the BFS height is re-derived at load, as
// the build derives it. Tree capacities and the MWST are saved because
// re-deriving them costs a large share of a load.
//
// Safety: a fingerprint of the engine seed and every build-relevant
// option is stored alongside; load_hierarchy returns null (engine falls
// back to a normal build) when the fingerprint, graph version, or node
// count disagree, or when no hierarchy was saved for the snapshot.
// Corrupt files — a bad checksum or shape (a meta in the 8-word layout
// of earlier releases included), a MWST link that is not the snapshot
// edge joining its endpoints, an alpha that is not finite and positive
// — throw RequirementError (kPreconditionFailed at the engine
// boundary); the engine counts a load failure and rebuilds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph_store.h"
#include "maxflow/sherman.h"

namespace dmf {

// Hash of the engine seed plus every ShermanOptions field that feeds
// the hierarchy build (sampling, alpha estimation, quantization) and the
// build's fixed parameters. Thread counts are excluded — builds are
// thread-count invariant.
[[nodiscard]] std::uint64_t hierarchy_fingerprint(
    const ShermanOptions& options, std::uint64_t engine_seed);

// Write the hierarchy's state for its graph_version into `dir`. The
// meta file is written last, so a crash mid-save reads as "no saved
// hierarchy" rather than a torn one.
void save_hierarchy(const std::string& dir, const ShermanHierarchy& hierarchy,
                    std::uint64_t fingerprint);

// Reload the hierarchy saved for `snap.version`, or null when none
// matches (missing files, fingerprint/version/shape mismatch). Throws
// RequirementError on corrupt files.
[[nodiscard]] std::shared_ptr<const ShermanHierarchy> load_hierarchy(
    const std::string& dir, const GraphSnapshot& snap,
    std::uint64_t fingerprint);

}  // namespace dmf
