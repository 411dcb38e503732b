// Solver selection for the FlowEngine's max-flow and multi-terminal
// queries.
//
// The engine answers a query either on the paper's (1+o(1))-approximate
// Sherman path over the shared hierarchy or with an exact baseline (the
// trivial collect-and-solve comparison the paper improves on). Tiny
// instances are solved faster, and exactly, by the baselines, and a
// caller may demand exactness outright. select_solver is that whole
// policy; route and CONGEST queries name their solver directly.
#pragma once

#include <algorithm>

#include "graph/graph.h"

namespace dmf {

enum class SolverKind {
  kDinic,        // exact, best on sparse residual graphs
  kPushRelabel,  // exact, preferred on dense instances
  kSherman,      // (1+eps)-approximate on the shared hierarchy
};

// An epsilon at or below this is an accuracy no approximate run can
// promise, so the query goes to an exact baseline.
constexpr double kExactEpsilon = 1e-6;

// The policy for an instance of n nodes and m edges:
//   * push-relabel for exact-or-tiny dense instances (m >= 8 n),
//   * Dinic for every other exact-or-tiny instance,
//   * Sherman for the rest.
// "Tiny" means n <= exact_cutoff_nodes; "exact" means want_exact or
// epsilon <= kExactEpsilon.
[[nodiscard]] constexpr SolverKind select_solver(NodeId n, EdgeId m,
                                                 double epsilon,
                                                 bool want_exact,
                                                 NodeId exact_cutoff_nodes) {
  const bool exact =
      want_exact || n <= exact_cutoff_nodes || epsilon <= kExactEpsilon;
  if (!exact) return SolverKind::kSherman;
  return m >= 8 * std::max<EdgeId>(1, n) ? SolverKind::kPushRelabel
                                         : SolverKind::kDinic;
}

// The name Result::solver and EngineStats::queries_by_solver report.
[[nodiscard]] constexpr const char* solver_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDinic:
      return "dinic-exact";
    case SolverKind::kPushRelabel:
      return "push-relabel-exact";
    case SolverKind::kSherman:
      return "sherman-approx";
  }
  return "unknown";
}

}  // namespace dmf
