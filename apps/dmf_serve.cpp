// dmf-serve: the network front door for the flow engine.
//
// Boots a FlowEngine on a synthetic graph (grid or G(n,p); a real
// deployment would load one), then serves it over HTTP/1.1 and the
// binary protocol until SIGTERM/SIGINT, at which point it drains
// gracefully: new work answers 503, in-flight queries finish and
// flush, final stats go to stderr, and the process exits 0.
//
// Usage:
//   dmf-serve [--port N] [--binary-port N] [--grid WxH | --gnp N P]
//             [--trees K] [--threads T] [--shards K] [--max-in-flight N]
//             [--tenant-qps R] [--deadline-ms D] [--seed S]
//             [--data-dir DIR]
//
// --shards K > 0 gives the engine's worker pool K single-worker lanes;
// each query goes to the lane its content hashes to, whose replay store
// answers identical repeats (see EngineOptions::shards). /v1/stats then
// carries a per-shard breakdown.
//
// --data-dir DIR makes the store durable: every published snapshot (and
// the hierarchy serving it) is persisted as mmap arena files under DIR
// before the mutate returns. When DIR already holds a store, it is
// reopened instead of generating a graph — the synthetic-graph flags
// are ignored and the first query is served from the persisted
// hierarchy with zero rebuilds (even after a SIGKILL).
//
// With --port 0 the kernel picks a port; it is printed on stdout as
//   dmf-serve listening http=PORT binary=PORT
// so scripts (the CI smoke step) can scrape it.
//
// Startup never aborts: a malformed flag value (trailing junk, a
// non-integral or out-of-range count, a negative or non-finite rate)
// exits 2, and a store that cannot be opened or an engine that cannot
// be built exits 1, each with a one-line `dmf-serve: ...` message.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "graph/generators.h"
#include "serve/serve_app.h"
#include "util/rng.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

[[noreturn]] void bad_flag(const char* flag, const std::string& what) {
  std::fprintf(stderr, "dmf-serve: %s %s\n", flag, what.c_str());
  std::exit(2);
}

const char* arg_value(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) bad_flag(flag, "needs a value");
  return argv[++*i];
}

// A base-10 integer in [lo, hi] with nothing after it; "1e3", "2.5",
// "12abc" and values beyond T are rejected, never truncated.
template <typename T>
T arg_integer(int argc, char** argv, int* i, const char* flag,
              T lo = std::numeric_limits<T>::min(),
              T hi = std::numeric_limits<T>::max()) {
  const char* text = arg_value(argc, argv, i, flag);
  const char* end = text + std::strlen(text);
  T value = 0;
  const std::from_chars_result parsed = std::from_chars(text, end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end || value < lo ||
      value > hi) {
    bad_flag(flag, "needs an integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

// A finite number >= 0 with nothing after it.
double arg_nonnegative(int argc, char** argv, int* i, const char* flag) {
  const char* text = arg_value(argc, argv, i, flag);
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    bad_flag(flag, std::string("needs a finite number >= 0, got '") + text +
                       "'");
  }
  return value;
}

constexpr int kMaxPort = 65535;

}  // namespace

int main(int argc, char** argv) {
  int http_port = 8080;
  int binary_port = -1;
  int grid_w = 24;
  int grid_h = 24;
  bool use_gnp = false;
  int gnp_n = 0;
  double gnp_p = 0.0;
  int trees = 6;
  int threads = 0;
  int shards = 0;
  int max_in_flight = 256;
  double tenant_qps = 0.0;
  double deadline_ms = 0.0;
  std::uint64_t seed = 1;
  std::string data_dir;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--port") == 0) {
      http_port = arg_integer<int>(argc, argv, &i, a, 0, kMaxPort);
    } else if (std::strcmp(a, "--binary-port") == 0) {
      binary_port = arg_integer<int>(argc, argv, &i, a, -1, kMaxPort);
    } else if (std::strcmp(a, "--grid") == 0) {
      if (i + 1 >= argc ||
          std::sscanf(argv[++i], "%dx%d", &grid_w, &grid_h) != 2) {
        std::fprintf(stderr, "dmf-serve: --grid needs WxH\n");
        return 2;
      }
    } else if (std::strcmp(a, "--gnp") == 0) {
      use_gnp = true;
      gnp_n = arg_integer<int>(argc, argv, &i, a, 0);
      gnp_p = arg_nonnegative(argc, argv, &i, a);
    } else if (std::strcmp(a, "--trees") == 0) {
      trees = arg_integer<int>(argc, argv, &i, a, 0);
    } else if (std::strcmp(a, "--threads") == 0) {
      threads = arg_integer<int>(argc, argv, &i, a, 0);
    } else if (std::strcmp(a, "--shards") == 0) {
      shards = arg_integer<int>(argc, argv, &i, a, 0);
    } else if (std::strcmp(a, "--max-in-flight") == 0) {
      max_in_flight = arg_integer<int>(argc, argv, &i, a, 0);
    } else if (std::strcmp(a, "--tenant-qps") == 0) {
      tenant_qps = arg_nonnegative(argc, argv, &i, a);
    } else if (std::strcmp(a, "--deadline-ms") == 0) {
      deadline_ms = arg_nonnegative(argc, argv, &i, a);
    } else if (std::strcmp(a, "--seed") == 0) {
      seed = arg_integer<std::uint64_t>(argc, argv, &i, a);
    } else if (std::strcmp(a, "--data-dir") == 0) {
      data_dir = arg_value(argc, argv, &i, a);
    } else {
      std::fprintf(stderr, "dmf-serve: unknown flag %s\n", a);
      return 2;
    }
  }

  dmf::GraphStoreOptions gopts;
  gopts.data_dir = data_dir;
  if (!data_dir.empty()) gopts.persist = dmf::PersistPolicy::kOnPublish;

  dmf::EngineOptions eopts;
  eopts.sherman.num_trees = trees;
  eopts.threads = threads;
  eopts.shards = shards;
  eopts.seed = seed;

  // A corrupt data dir, a graph the generator rejects, or engine
  // options the engine rejects end here with exit 1, not std::terminate.
  std::unique_ptr<dmf::FlowEngine> engine;
  try {
    std::shared_ptr<dmf::GraphStore> store;
    if (!data_dir.empty() && dmf::GraphStore::can_open(data_dir)) {
      store = dmf::GraphStore::open(data_dir, gopts);
      std::fprintf(stderr, "dmf-serve: reopened %s at version %llu\n",
                   data_dir.c_str(),
                   static_cast<unsigned long long>(store->latest_version()));
    } else {
      dmf::Rng rng(seed);
      dmf::Graph graph =
          use_gnp ? dmf::make_gnp_connected(gnp_n, gnp_p, {1, 64}, rng)
                  : dmf::make_grid(grid_w, grid_h, {1, 64}, rng);
      store = std::make_shared<dmf::GraphStore>(std::move(graph), gopts);
    }
    engine = std::make_unique<dmf::FlowEngine>(std::move(store), eopts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmf-serve: %s\n", e.what());
    return 1;
  }

  dmf::serve::ServeAppOptions sopts;
  sopts.http.http_port = http_port;
  sopts.http.binary_port = binary_port;
  sopts.max_in_flight = max_in_flight;
  sopts.default_quota.tokens_per_second = tenant_qps;
  sopts.default_deadline_seconds = deadline_ms / 1000.0;
  dmf::serve::ServeApp app(*engine, sopts);

  std::string error;
  if (!app.start(&error)) {
    std::fprintf(stderr, "dmf-serve: start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("dmf-serve listening http=%d binary=%d\n", app.http_port(),
              app.binary_port());
  std::fflush(stdout);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (g_shutdown == 0) {
    timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  std::fprintf(stderr, "dmf-serve: draining\n");
  app.drain();
  const dmf::serve::ServeCounters counters = app.counters();
  const dmf::EngineStats stats = engine->stats();
  std::fprintf(stderr,
               "dmf-serve: drained admitted=%lld shed=%lld cancelled=%lld "
               "queries_served=%lld\n",
               static_cast<long long>(counters.admitted),
               static_cast<long long>(counters.shed_in_flight +
                                      counters.shed_quota),
               static_cast<long long>(counters.deadline_cancelled),
               static_cast<long long>(stats.queries_served));
  return 0;
}
