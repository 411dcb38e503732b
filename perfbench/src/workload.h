// The three workloads and the traced layer replicas (see README.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "graph/graph.h"

namespace pb {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  int nproc = 1;
};

struct RunOutput {
  Metrics metrics;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> violations;  // oracle / parity failures
  std::vector<std::string> stamp;       // "key=value" run-stamp entries
};

// Runs one workload end to end against a freshly spawned dmf-serve.
// Returns false on a set-up failure (no metrics).
bool run_workload(const RunConfig& config, RunOutput* out);

// What the traced layer replicas need from the workload run.
struct LayerInputs {
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = 5.0;  // wall time for the in-process engine replay
  std::shared_ptr<const dmf::Graph> graph;  // the served version 0
  dmf::EngineOptions engine_options;        // identical to the server's
  int conns = 1;
  double replay_rate_qps = 0.0;  // > 0: open-loop replay at this rate
  // The workload's query bodies, in send order (the replay and the
  // route replica draw from these).
  std::vector<std::string> query_bodies;
  // The first answered query of the server run and its "result" member,
  // re-asked of the in-process engine for the engine<->server parity.
  std::string parity_query;
  std::string parity_result;
  bool route_replica = true;      // off where one query takes too long
  bool super_terminal = true;     // super-terminal build replica
  bool congest_replica = true;    // CONGEST simulation replica
  std::vector<std::pair<dmf::NodeId, dmf::NodeId>> pairs;  // baselines
  std::string persist_dir;  // scratch directory for the persist replicas
};

// In-process replicas of the layers, timed with spans; checks that each
// replica reproduces the engine bitwise (violations on mismatch).
void run_layers(const LayerInputs& in, Tracer& tracer, Metrics* metrics,
                std::vector<std::string>* violations);

}  // namespace pb
