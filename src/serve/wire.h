// Wire formats for dmf-serve: a dependency-free JSON document model,
// the JSON <-> engine-type translation for every endpoint, the
// ErrorCode -> HTTP status mapping, and the length-prefixed binary
// framing that shares the HTTP dispatch.
//
// JSON is the only interchange format: the binary protocol frames the
// same JSON bodies (its win is skipping HTTP header parsing, not a
// second serialization). The writer escapes control characters and
// serializes non-finite numbers as null — a latency field that hit Inf
// at overload must degrade the record, never corrupt the document.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "graph/graph_store.h"

namespace dmf::serve {

// Thrown on malformed wire input (JSON syntax errors, bad frames,
// fields of the wrong type). The serve layer maps it to a 400.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

// --- JSON document model -----------------------------------------------------

class Json;
using JsonArray = std::vector<Json>;
// Object members keep insertion order (stable, readable responses);
// lookup is linear — documents on this path are tiny.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}         // NOLINT
  Json(bool v) : value_(v) {}                       // NOLINT
  Json(double v) : value_(v) {}                     // NOLINT
  Json(int v) : value_(static_cast<double>(v)) {}   // NOLINT
  Json(std::int64_t v) : value_(static_cast<double>(v)) {}  // NOLINT
  Json(std::uint64_t v) : value_(static_cast<double>(v)) {}  // NOLINT
  Json(const char* v) : value_(std::string(v)) {}   // NOLINT
  Json(std::string v) : value_(std::move(v)) {}     // NOLINT
  Json(JsonArray v) : value_(std::move(v)) {}       // NOLINT
  Json(JsonObject v) : value_(std::move(v)) {}      // NOLINT

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  // Checked accessors; throw WireError naming `context` on a type
  // mismatch so endpoint errors read like field diagnostics.
  [[nodiscard]] bool as_bool(const std::string& context) const;
  [[nodiscard]] double as_number(const std::string& context) const;
  [[nodiscard]] std::int64_t as_int(const std::string& context) const;
  [[nodiscard]] const std::string& as_string(const std::string& context) const;
  [[nodiscard]] const JsonArray& as_array(const std::string& context) const;
  [[nodiscard]] const JsonObject& as_object(const std::string& context) const;

  // Object member lookup; null when absent (or not an object).
  [[nodiscard]] const Json* find(const std::string& key) const;

  // Strict parser (one document, whole input consumed; depth-limited).
  // Throws WireError with an offset on malformed input.
  static Json parse(const std::string& text);

  // Compact serialization. Strings are escaped (", \, control chars);
  // non-finite numbers serialize as null.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

// --- ErrorCode -> HTTP status ------------------------------------------------

// 2xx/4xx/5xx mapping of the engine taxonomy: caller mistakes are 4xx,
// capacity/lifecycle conditions are retryable 5xx/429, solver faults
// are 500. kCancelled surfaces as 504 — on this path cancellation
// means the request deadline expired before the query ran.
[[nodiscard]] int http_status_for(ErrorCode code);

// Reason phrase for the handful of statuses this server emits.
[[nodiscard]] const char* http_status_reason(int status);

// {"error": <code name>, "message": ...} body used for every failure.
[[nodiscard]] std::string error_body(ErrorCode code,
                                     const std::string& message);

// --- engine translation ------------------------------------------------------

// Per-request knobs that ride alongside the parsed query.
struct QueryEnvelope {
  EngineQuery query;
  bool include_flow = false;  // flow vectors are large; opt-in
  GraphVersion min_version = 0;
  int priority = 0;
};

// POST /v1/query body -> typed engine query. Throws WireError on an
// unknown kind or malformed fields, including a negative min_version
// and a priority, max_rounds or threads outside the `int` range.
[[nodiscard]] QueryEnvelope parse_query_request(const Json& body);

// POST /v1/mutate body -> MutationBatch. Throws WireError on malformed
// ops; capacity-range violations surface as the underlying
// RequirementError (mapped to 400 upstream).
[[nodiscard]] MutationBatch parse_mutation_request(const Json& body,
                                                   double* wait_seconds);

// Result payloads -> response JSON objects.
[[nodiscard]] Json to_json(const MaxFlowApproxResult& r, bool include_flow);
[[nodiscard]] Json to_json(const RouteResult& r, bool include_flow);
[[nodiscard]] Json to_json(const MultiTerminalMaxFlowResult& r,
                           bool include_flow);
[[nodiscard]] Json to_json(const CongestRunResult& r, bool include_flow);
[[nodiscard]] Json to_json(const ApplyResult& r);
[[nodiscard]] Json to_json(const EngineStats& s);

// --- binary protocol framing -------------------------------------------------
//
// One request frame:  u32 length | u8 method (0 GET, 1 POST) |
//                     u16 path_len | path bytes | JSON body bytes
// One response frame: u32 length | u16 status | JSON body bytes
// All integers little-endian; `length` counts everything after itself.
// Responses come back in request order on a connection (same contract
// as HTTP keep-alive pipelining — it IS the same dispatch).

constexpr std::size_t kBinaryHeaderBytes = 4;

struct BinaryRequest {
  std::string method;  // "GET" or "POST"
  std::string path;
  std::string body;
};

[[nodiscard]] std::string encode_binary_request(const BinaryRequest& req);
// Decode one frame's payload (everything after the u32 length).
// Throws WireError on a malformed frame.
[[nodiscard]] BinaryRequest decode_binary_request(const std::string& payload);

[[nodiscard]] std::string encode_binary_response(int status,
                                                 const std::string& body);

// Little-endian u32 helpers shared by server, client, and tests.
[[nodiscard]] std::uint32_t read_u32le(const unsigned char* p);
void append_u32le(std::string& out, std::uint32_t v);

}  // namespace dmf::serve
