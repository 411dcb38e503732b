#include "graph/generators.h"

#include <algorithm>
#include <set>
#include <utility>

#include "graph/algorithms.h"

namespace dmf {

double draw_capacity(const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(caps.lo >= 1 && caps.lo <= caps.hi,
              "CapacityRange: need 1 <= lo <= hi");
  return static_cast<double>(rng.next_int(caps.lo, caps.hi));
}

Graph make_grid(int width, int height, const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(width >= 1 && height >= 1, "make_grid: bad dimensions");
  Graph g(static_cast<NodeId>(width) * height);
  const auto id = [width](int x, int y) {
    return static_cast<NodeId>(y * width + x);
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) {
        g.add_edge(id(x, y), id(x + 1, y), draw_capacity(caps, rng));
      }
      if (y + 1 < height) {
        g.add_edge(id(x, y), id(x, y + 1), draw_capacity(caps, rng));
      }
    }
  }
  return g;
}

Graph make_torus(int width, int height, const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(width >= 3 && height >= 3, "make_torus: need >= 3x3");
  Graph g(static_cast<NodeId>(width) * height);
  const auto id = [width](int x, int y) {
    return static_cast<NodeId>(y * width + x);
  };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      g.add_edge(id(x, y), id((x + 1) % width, y), draw_capacity(caps, rng));
      g.add_edge(id(x, y), id(x, (y + 1) % height), draw_capacity(caps, rng));
    }
  }
  return g;
}

Graph make_gnp_connected(NodeId n, double p, const CapacityRange& caps,
                         Rng& rng) {
  DMF_REQUIRE(n >= 1, "make_gnp_connected: need n >= 1");
  DMF_REQUIRE(p >= 0.0 && p <= 1.0, "make_gnp_connected: bad p");
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) g.add_edge(u, v, draw_capacity(caps, rng));
    }
  }
  // Stitch components together: link node 0 to the smallest node of
  // every other component, in label order. Labels number components by
  // their smallest node, so this is the same edge sequence as linking
  // node 0 to the smallest node it cannot reach until none is left.
  const Components comps = connected_components(CsrGraph(g));
  std::vector<char> linked(static_cast<std::size_t>(comps.count), 0);
  for (NodeId v = 0; v < n; ++v) {
    char& done = linked[static_cast<std::size_t>(
        comps.label[static_cast<std::size_t>(v)])];
    if (done == 0 && v != 0) g.add_edge(0, v, draw_capacity(caps, rng));
    done = 1;
  }
  return g;
}

Graph make_random_regular(NodeId n, int d, const CapacityRange& caps,
                          Rng& rng) {
  DMF_REQUIRE(n >= d + 1, "make_random_regular: n too small for d");
  DMF_REQUIRE((static_cast<std::int64_t>(n) * d) % 2 == 0,
              "make_random_regular: n*d must be even");
  for (int attempt = 0; attempt < 200; ++attempt) {
    // Pairing model: d stubs per node, random perfect matching on stubs,
    // followed by double-edge-swap repair of self-loops and multi-edges
    // (rejection alone fails for d beyond ~5).
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
    for (NodeId v = 0; v < n; ++v) {
      for (int k = 0; k < d; ++k) stubs.push_back(v);
    }
    rng.shuffle(stubs);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      pairs.emplace_back(stubs[i], stubs[i + 1]);
    }
    const auto norm = [](NodeId a, NodeId b) {
      return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    };
    bool repaired = true;
    for (int pass = 0; pass < 200 && repaired; ++pass) {
      std::multiset<std::pair<NodeId, NodeId>> used;
      for (const auto& [a, b] : pairs) used.insert(norm(a, b));
      repaired = false;
      bool all_good = true;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        auto& [a, b] = pairs[i];
        const bool bad = (a == b) || used.count(norm(a, b)) > 1;
        if (!bad) continue;
        all_good = false;
        // Swap with a uniformly random other pair.
        const std::size_t j = rng.next_below(pairs.size());
        if (j == i) continue;
        used.erase(used.find(norm(a, b)));
        used.erase(used.find(norm(pairs[j].first, pairs[j].second)));
        std::swap(b, pairs[j].second);
        used.insert(norm(a, b));
        used.insert(norm(pairs[j].first, pairs[j].second));
        repaired = true;
      }
      if (all_good) break;
    }
    // Validate simplicity.
    std::set<std::pair<NodeId, NodeId>> used;
    bool simple = true;
    for (const auto& [a, b] : pairs) {
      if (a == b || !used.insert(norm(a, b)).second) {
        simple = false;
        break;
      }
    }
    if (!simple) continue;
    Graph g(n);
    for (const auto& [a, b] : pairs) g.add_edge(a, b, draw_capacity(caps, rng));
    if (is_connected(CsrGraph(g))) return g;
  }
  DMF_REQUIRE(false, "make_random_regular: failed to generate after retries");
  return Graph();  // unreachable
}

Graph make_barbell(int clique_size, const CapacityRange& clique_caps,
                   double bridge_cap, Rng& rng) {
  DMF_REQUIRE(clique_size >= 2, "make_barbell: clique_size >= 2");
  DMF_REQUIRE(bridge_cap > 0.0, "make_barbell: bad bridge capacity");
  const NodeId k = clique_size;
  Graph g(2 * k);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) {
      g.add_edge(u, v, draw_capacity(clique_caps, rng));
      g.add_edge(k + u, k + v, draw_capacity(clique_caps, rng));
    }
  }
  g.add_edge(k - 1, k, bridge_cap);
  return g;
}

Graph make_path(NodeId n, const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(n >= 1, "make_path: need n >= 1");
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1, draw_capacity(caps, rng));
  }
  return g;
}

Graph make_random_tree(NodeId n, const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(n >= 1, "make_random_tree: need n >= 1");
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId parent = static_cast<NodeId>(rng.next_below(
        static_cast<std::uint64_t>(v)));
    g.add_edge(v, parent, draw_capacity(caps, rng));
  }
  return g;
}

Graph make_tree_plus_chords(NodeId n, int extra_chords,
                            const CapacityRange& caps, Rng& rng) {
  Graph g = make_random_tree(n, caps, rng);
  for (int i = 0; i < extra_chords; ++i) {
    const NodeId u =
        static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    NodeId v =
        static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) v = (v + 1) % n;
    g.add_edge(u, v, draw_capacity(caps, rng));
  }
  return g;
}

Graph make_complete(NodeId n, const CapacityRange& caps, Rng& rng) {
  DMF_REQUIRE(n >= 2, "make_complete: need n >= 2");
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      g.add_edge(u, v, draw_capacity(caps, rng));
    }
  }
  return g;
}

Graph make_caterpillar(int spine, int legs, const CapacityRange& caps,
                       Rng& rng) {
  DMF_REQUIRE(spine >= 1 && legs >= 0, "make_caterpillar: bad shape");
  Graph g(static_cast<NodeId>(spine) * (1 + legs));
  for (int s = 0; s + 1 < spine; ++s) {
    g.add_edge(s, s + 1, draw_capacity(caps, rng));
  }
  NodeId next = spine;
  for (int s = 0; s < spine; ++s) {
    for (int l = 0; l < legs; ++l) {
      g.add_edge(static_cast<NodeId>(s), next++, draw_capacity(caps, rng));
    }
  }
  return g;
}

Graph make_layered_bottleneck(int layers, int width, double dense_cap,
                              double bottleneck, Rng& rng, NodeId* source,
                              NodeId* sink) {
  DMF_REQUIRE(layers >= 3 && width >= 1, "make_layered_bottleneck: bad shape");
  DMF_REQUIRE(dense_cap > 0.0 && bottleneck > 0.0,
              "make_layered_bottleneck: bad capacities");
  (void)rng;
  // Nodes: source, layers*width internal, sink.
  const NodeId n = 2 + static_cast<NodeId>(layers) * width;
  Graph g(n);
  const NodeId s = 0;
  const NodeId t = n - 1;
  const auto id = [width](int layer, int i) {
    return static_cast<NodeId>(1 + layer * width + i);
  };
  for (int i = 0; i < width; ++i) {
    g.add_edge(s, id(0, i), dense_cap);
    g.add_edge(id(layers - 1, i), t, dense_cap);
  }
  const int thin = layers / 2;  // crossing between layer thin-1 and thin
  for (int layer = 0; layer + 1 < layers; ++layer) {
    if (layer + 1 == thin) {
      // Thin crossing: a single perfect matching with small capacities
      // summing to `bottleneck`.
      const double per_edge = bottleneck / width;
      for (int i = 0; i < width; ++i) {
        g.add_edge(id(layer, i), id(layer + 1, i), per_edge);
      }
    } else {
      // Dense crossing: matching plus a shifted matching, high capacity.
      for (int i = 0; i < width; ++i) {
        g.add_edge(id(layer, i), id(layer + 1, i), dense_cap);
        if (width > 1) {
          g.add_edge(id(layer, i), id(layer + 1, (i + 1) % width), dense_cap);
        }
      }
    }
  }
  if (source != nullptr) *source = s;
  if (sink != nullptr) *sink = t;
  return g;
}

}  // namespace dmf
