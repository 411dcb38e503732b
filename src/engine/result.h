// Typed query results and the engine's error taxonomy.
//
// FlowEngine v2 replaces the untyped QueryOutcome bag (bool + string +
// three optionals) with one Result<T> per query kind: the payload type
// matches the query statically, and failures carry a structured
// ErrorCode alongside the human-readable message. Library-level
// RequirementError throws are classified into the taxonomy at the engine
// boundary, so callers can branch on `code` instead of parsing strings.
#pragma once

#include <exception>
#include <optional>
#include <string>

#include "graph/graph.h"
#include "util/require.h"

namespace dmf {

// Why a query did not produce a payload. kOk is the success sentinel so a
// Result can carry its code unconditionally.
enum class ErrorCode {
  kOk = 0,
  // The query content is malformed: invalid node ids, s == t, a demand
  // vector of the wrong size or nonzero sum, empty or overlapping
  // terminal sets.
  kInvalidQuery,
  // A multi-terminal query names a terminal with no incident capacity;
  // the super-terminal reduction cannot attach a meaningful virtual edge
  // to it (see build_super_terminal_graph).
  kIsolatedTerminal,
  // The ticket was cancelled while still queued; the query never ran.
  kCancelled,
  // The engine was destroyed (or shut down) with the query still queued.
  kShutdown,
  // The query asked for SubmitOptions::min_version and the engine can
  // no longer satisfy it: it shut down while the query was parked, or
  // the hierarchy rebuild for that version failed.
  kVersionUnavailable,
  // The solver detected a degenerate numerical situation (e.g. a
  // zero-congestion route) it cannot recover from.
  kNumericalFailure,
  // A DMF_REQUIRE precondition tripped inside the solver stack that the
  // engine's up-front validation did not anticipate.
  kPreconditionFailed,
  // Any other exception escaping a query.
  kInternalError,
};

[[nodiscard]] constexpr const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kInvalidQuery:
      return "invalid_query";
    case ErrorCode::kIsolatedTerminal:
      return "isolated_terminal";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kShutdown:
      return "shutdown";
    case ErrorCode::kVersionUnavailable:
      return "version_unavailable";
    case ErrorCode::kNumericalFailure:
      return "numerical_failure";
    case ErrorCode::kPreconditionFailed:
      return "precondition_failed";
    case ErrorCode::kInternalError:
      return "internal_error";
  }
  return "unknown";
}

struct EngineError {
  ErrorCode code = ErrorCode::kInternalError;
  std::string message;
};

// Map an exception escaping the solver stack to the taxonomy. The
// classification keys on the stable DMF_REQUIRE message fragments; the
// engine validates queries up front, so this is the fallback for
// conditions only the deep machinery can detect.
[[nodiscard]] ErrorCode classify_error(const std::exception& e);

// The engine's per-query result: either an ok() payload plus serving
// metadata, or an ErrorCode + message. Payload access through value()
// is checked.
template <typename T>
struct Result {
  ErrorCode code = ErrorCode::kOk;
  std::string message;  // empty iff ok()
  // The solver that served it: "dinic-exact", "push-relabel-exact",
  // "sherman-approx", "sherman-route" or "congest-push-relabel".
  std::string solver;
  double seconds = 0.0;  // execution wall time; queue wait excluded
  // The graph snapshot version the query was served from. During a
  // background rebuild this lags GraphStore::latest_version (stale
  // serving); SubmitOptions::min_version lower-bounds it per query.
  GraphVersion served_version = 0;
  std::optional<T> payload;  // engaged iff ok()

  [[nodiscard]] bool ok() const { return code == ErrorCode::kOk; }

  [[nodiscard]] const T& value() const& {
    DMF_REQUIRE(ok() && payload.has_value(),
                "Result::value: " + std::string(error_code_name(code)) +
                    (message.empty() ? "" : " — " + message));
    return *payload;
  }
  [[nodiscard]] T&& value() && {
    DMF_REQUIRE(ok() && payload.has_value(),
                "Result::value: " + std::string(error_code_name(code)) +
                    (message.empty() ? "" : " — " + message));
    return *std::move(payload);
  }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  [[nodiscard]] EngineError error() const { return {code, message}; }

  static Result failure(ErrorCode code, std::string message) {
    Result out;
    out.code = code;
    out.message = std::move(message);
    return out;
  }
};

}  // namespace dmf
