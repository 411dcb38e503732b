// dmf-lint-fixture-path: src/graph/plan_bad.cpp
// A foundation-layer file reaching up into a higher layer must fail
// layering: graph/ and util/ include only their own and system headers.
#include "graph/plan_bad.h"

#include <vector>

// expect-lint: layering
#include "lsst/split_graph.h"
#include "util/rng.h"
// expect-lint: layering
#include "engine/shard_plan.h"

namespace dmf {

int plan_size(const std::vector<int>& cluster) {
  return static_cast<int>(cluster.size());
}

}  // namespace dmf
