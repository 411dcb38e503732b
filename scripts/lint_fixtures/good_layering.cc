// dmf-lint-fixture-path: src/util/layering_ok.cpp
// A foundation-layer file that stays in its lane: graph/, util/ and
// system headers only. Includes that are commented out do not count:
// #include "engine/engine.h"
/* #include "lsst/split_graph.h" */
#include "util/layering_ok.h"

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/require.h"

namespace dmf {

std::uint64_t layering_ok(const std::vector<std::uint64_t>& words) {
  std::uint64_t acc = 0;
  for (const std::uint64_t w : words) acc ^= w;
  return acc;
}

}  // namespace dmf
