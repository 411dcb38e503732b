#include "serve/wire.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace dmf::serve {

namespace {

// Matches the engine's NodeId/EdgeId range checks at the wire boundary:
// ids must be non-negative integers that fit the engine's 32-bit types.
std::int64_t checked_id(const Json& v, const std::string& context) {
  const std::int64_t id = v.as_int(context);
  if (id < 0 || id > 0x7fffffffLL) {
    throw WireError(context + ": id out of range");
  }
  return id;
}

// An integer field the engine stores as `int`: a value outside that
// range is a bad request, never a silently wrapped one.
int checked_int(const Json& v, const std::string& context) {
  const std::int64_t x = v.as_int(context);
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    throw WireError(context + ": integer out of range");
  }
  return static_cast<int>(x);
}

}  // namespace

// --- Json accessors ----------------------------------------------------------

bool Json::as_bool(const std::string& context) const {
  if (const bool* v = std::get_if<bool>(&value_)) return *v;
  throw WireError(context + ": expected a boolean");
}

double Json::as_number(const std::string& context) const {
  if (const double* v = std::get_if<double>(&value_)) return *v;
  throw WireError(context + ": expected a number");
}

std::int64_t Json::as_int(const std::string& context) const {
  const double v = as_number(context);
  if (!std::isfinite(v) || v != std::floor(v) || std::abs(v) > 9e15) {
    throw WireError(context + ": expected an integer");
  }
  return static_cast<std::int64_t>(v);
}

const std::string& Json::as_string(const std::string& context) const {
  if (const std::string* v = std::get_if<std::string>(&value_)) return *v;
  throw WireError(context + ": expected a string");
}

const JsonArray& Json::as_array(const std::string& context) const {
  if (const JsonArray* v = std::get_if<JsonArray>(&value_)) return *v;
  throw WireError(context + ": expected an array");
}

const JsonObject& Json::as_object(const std::string& context) const {
  if (const JsonObject* v = std::get_if<JsonObject>(&value_)) return *v;
  throw WireError(context + ": expected an object");
}

const Json* Json::find(const std::string& key) const {
  const JsonObject* obj = std::get_if<JsonObject>(&value_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

// --- Json parser -------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw WireError("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default:
        return Json(parse_number());
    }
  }

  Json parse_object(int depth) {
    expect('{');
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(members));
      }
      fail("expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed
          // through as two encoded halves — fields on this path are
          // ASCII identifiers, not prose).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&value_)) {
    if (!std::isfinite(*d)) {
      out += "null";  // NaN/Inf would corrupt the document
    } else if (*d == std::floor(*d) && std::abs(*d) < 9e15) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(*d));
      out += buf;
    } else {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.12g", *d);
      out += buf;
    }
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    append_escaped(out, *s);
  } else if (const JsonArray* a = std::get_if<JsonArray>(&value_)) {
    out.push_back('[');
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i > 0) out.push_back(',');
      (*a)[i].dump_to(out);
    }
    out.push_back(']');
  } else if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    out.push_back('{');
    for (std::size_t i = 0; i < o->size(); ++i) {
      if (i > 0) out.push_back(',');
      append_escaped(out, (*o)[i].first);
      out.push_back(':');
      (*o)[i].second.dump_to(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// --- status mapping ----------------------------------------------------------

int http_status_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return 200;
    case ErrorCode::kInvalidQuery:
    case ErrorCode::kIsolatedTerminal:
      return 400;
    case ErrorCode::kCancelled:
      return 504;  // deadline expired before the query ran
    case ErrorCode::kShutdown:
    case ErrorCode::kVersionUnavailable:
      return 503;
    case ErrorCode::kNumericalFailure:
    case ErrorCode::kPreconditionFailed:
    case ErrorCode::kInternalError:
      return 500;
  }
  return 500;
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

std::string error_body(ErrorCode code, const std::string& message) {
  JsonObject body;
  body.emplace_back("error", Json(error_code_name(code)));
  body.emplace_back("message", Json(message));
  return Json(std::move(body)).dump();
}

// --- engine translation ------------------------------------------------------

QueryEnvelope parse_query_request(const Json& body) {
  const JsonObject& obj = body.as_object("query");
  (void)obj;  // validated as an object; fields are read via find()
  const Json* kind_field = body.find("kind");
  if (kind_field == nullptr) throw WireError("query: missing \"kind\"");
  const std::string& kind = kind_field->as_string("query.kind");

  QueryEnvelope env;
  if (const Json* f = body.find("include_flow")) {
    env.include_flow = f->as_bool("query.include_flow");
  }
  if (const Json* f = body.find("min_version")) {
    const std::int64_t v = f->as_int("query.min_version");
    if (v < 0) throw WireError("query.min_version: must be >= 0");
    env.min_version = static_cast<GraphVersion>(v);
  }
  if (const Json* f = body.find("priority")) {
    env.priority = checked_int(*f, "query.priority");
  }

  const auto number_or = [&](const char* key, double fallback) {
    const Json* f = body.find(key);
    return f != nullptr ? f->as_number(std::string("query.") + key)
                        : fallback;
  };
  const auto bool_or = [&](const char* key, bool fallback) {
    const Json* f = body.find(key);
    return f != nullptr ? f->as_bool(std::string("query.") + key) : fallback;
  };
  const auto id_field = [&](const char* key) {
    const Json* f = body.find(key);
    if (f == nullptr) {
      throw WireError(std::string("query: missing \"") + key + "\"");
    }
    return static_cast<NodeId>(checked_id(*f, std::string("query.") + key));
  };
  const auto id_list = [&](const char* key) {
    const Json* f = body.find(key);
    if (f == nullptr) {
      throw WireError(std::string("query: missing \"") + key + "\"");
    }
    std::vector<NodeId> ids;
    for (const Json& v : f->as_array(std::string("query.") + key)) {
      ids.push_back(
          static_cast<NodeId>(checked_id(v, std::string("query.") + key)));
    }
    return ids;
  };

  if (kind == "max_flow") {
    MaxFlowQuery q;
    q.s = id_field("s");
    q.t = id_field("t");
    q.epsilon = number_or("epsilon", 0.0);
    q.exact = bool_or("exact", false);
    env.query = q;
  } else if (kind == "route") {
    RouteQuery q;
    const Json* f = body.find("demand");
    if (f == nullptr) throw WireError("query: missing \"demand\"");
    for (const Json& v : f->as_array("query.demand")) {
      q.demand.push_back(v.as_number("query.demand"));
    }
    env.query = std::move(q);
  } else if (kind == "multi_terminal") {
    MultiTerminalQuery q;
    q.sources = id_list("sources");
    q.sinks = id_list("sinks");
    q.epsilon = number_or("epsilon", 0.0);
    q.exact = bool_or("exact", false);
    env.query = std::move(q);
  } else if (kind == "congest") {
    CongestQuery q;
    q.source = id_field("source");
    q.sink = id_field("sink");
    if (const Json* f = body.find("max_rounds")) {
      q.max_rounds = checked_int(*f, "query.max_rounds");
    }
    if (const Json* f = body.find("threads")) {
      q.threads = checked_int(*f, "query.threads");
    }
    env.query = q;
  } else {
    throw WireError("query: unknown kind \"" + kind + "\"");
  }
  return env;
}

MutationBatch parse_mutation_request(const Json& body, double* wait_seconds) {
  (void)body.as_object("mutate");  // type check: throws on a non-object
  if (wait_seconds != nullptr) {
    *wait_seconds = 0.0;
    if (const Json* w = body.find("wait_seconds")) {
      *wait_seconds = w->as_number("mutate.wait_seconds");
    }
  }
  const Json* ops_field = body.find("ops");
  if (ops_field == nullptr) throw WireError("mutate: missing \"ops\"");
  MutationBatch batch;
  for (const Json& op_json : ops_field->as_array("mutate.ops")) {
    (void)op_json.as_object("mutate.ops[]");  // type check
    const Json* op_name = op_json.find("op");
    if (op_name == nullptr) throw WireError("mutate: op missing \"op\"");
    const std::string& op = op_name->as_string("mutate.ops[].op");
    const auto required = [&](const char* key) -> const Json& {
      const Json* f = op_json.find(key);
      if (f == nullptr) {
        throw WireError("mutate: " + op + " missing \"" + key + "\"");
      }
      return *f;
    };
    if (op == "set_capacity") {
      const auto edge = static_cast<EdgeId>(
          checked_id(required("edge"), "mutate.edge"));
      batch.set_capacity(edge,
                         required("capacity").as_number("mutate.capacity"));
    } else if (op == "add_edge") {
      const auto u =
          static_cast<NodeId>(checked_id(required("u"), "mutate.u"));
      const auto v =
          static_cast<NodeId>(checked_id(required("v"), "mutate.v"));
      double capacity = 1.0;
      if (const Json* c = op_json.find("capacity")) {
        capacity = c->as_number("mutate.capacity");
      }
      batch.add_edge(u, v, capacity);
    } else if (op == "add_nodes") {
      batch.add_nodes(
          static_cast<NodeId>(checked_id(required("count"), "mutate.count")));
    } else {
      throw WireError("mutate: unknown op \"" + op + "\"");
    }
  }
  return batch;
}

namespace {

Json flow_json(const std::vector<double>& flow, bool include_flow) {
  if (!include_flow) return Json(nullptr);
  JsonArray arr;
  arr.reserve(flow.size());
  for (const double f : flow) arr.emplace_back(f);
  return Json(std::move(arr));
}

}  // namespace

Json to_json(const MaxFlowApproxResult& r, bool include_flow) {
  JsonObject obj;
  obj.emplace_back("value", Json(r.value));
  obj.emplace_back("alpha", Json(r.alpha));
  obj.emplace_back("num_trees", Json(r.num_trees));
  obj.emplace_back("gradient_iterations", Json(r.gradient_iterations));
  obj.emplace_back("rounds", Json(r.rounds));
  obj.emplace_back("converged", Json(r.converged));
  if (include_flow) obj.emplace_back("flow", flow_json(r.flow, true));
  return Json(std::move(obj));
}

Json to_json(const RouteResult& r, bool include_flow) {
  JsonObject obj;
  obj.emplace_back("congestion", Json(r.congestion));
  obj.emplace_back("almost_route_calls", Json(r.almost_route_calls));
  obj.emplace_back("gradient_iterations", Json(r.gradient_iterations));
  obj.emplace_back("rounds", Json(r.rounds));
  obj.emplace_back("converged", Json(r.converged));
  if (include_flow) obj.emplace_back("flow", flow_json(r.flow, true));
  return Json(std::move(obj));
}

Json to_json(const MultiTerminalMaxFlowResult& r, bool include_flow) {
  JsonObject obj;
  obj.emplace_back("value", Json(r.value));
  obj.emplace_back("rounds", Json(r.rounds));
  obj.emplace_back("converged", Json(r.converged));
  if (include_flow) obj.emplace_back("flow", flow_json(r.flow, true));
  return Json(std::move(obj));
}

Json to_json(const CongestRunResult& r, bool include_flow) {
  (void)include_flow;  // congest runs carry no flow vector
  JsonObject obj;
  obj.emplace_back("flow_value", Json(r.flow_value));
  obj.emplace_back("rounds", Json(static_cast<double>(r.stats.rounds)));
  obj.emplace_back("messages", Json(r.stats.messages));
  return Json(std::move(obj));
}

Json to_json(const ApplyResult& r) {
  JsonObject obj;
  obj.emplace_back("version", Json(static_cast<std::uint64_t>(r.version)));
  const char* plan = "full_rebuild";
  if (r.plan == RebuildPlan::kTreeRepair) plan = "tree_repair";
  if (r.plan == RebuildPlan::kNoOp) plan = "no_op";
  obj.emplace_back("plan", Json(plan));
  obj.emplace_back("trees_dirty", Json(r.trees_dirty));
  obj.emplace_back("trees_total", Json(r.trees_total));
  return Json(std::move(obj));
}

Json to_json(const EngineStats& s) {
  JsonObject obj;
  obj.emplace_back("build_seconds", Json(s.build_seconds));
  obj.emplace_back("num_trees", Json(s.num_trees));
  obj.emplace_back("alpha", Json(s.alpha));
  obj.emplace_back("queries_served", Json(s.queries_served));
  obj.emplace_back("queries_failed", Json(s.queries_failed));
  obj.emplace_back("queries_cancelled", Json(s.queries_cancelled));
  obj.emplace_back("queries_served_stale", Json(s.queries_served_stale));
  obj.emplace_back("queries_parked", Json(s.queries_parked));
  obj.emplace_back("hierarchy_cache_hits", Json(s.hierarchy_cache_hits));
  obj.emplace_back("hierarchy_cache_misses", Json(s.hierarchy_cache_misses));
  obj.emplace_back("serving_version",
                   Json(static_cast<std::uint64_t>(s.serving_version)));
  obj.emplace_back("latest_version",
                   Json(static_cast<std::uint64_t>(s.latest_version)));
  obj.emplace_back("query_seconds_total", Json(s.query_seconds_total));
  obj.emplace_back("max_congestion", Json(s.max_congestion));
  obj.emplace_back("hierarchy_cold_loads", Json(s.hierarchy_cold_loads));
  obj.emplace_back("hierarchy_load_failures",
                   Json(s.hierarchy_load_failures));
  obj.emplace_back("hierarchy_saves", Json(s.hierarchy_saves));
  JsonObject rebuild;
  rebuild.emplace_back("started", Json(s.rebuild.started));
  rebuild.emplace_back("completed", Json(s.rebuild.completed));
  rebuild.emplace_back("failed", Json(s.rebuild.failed));
  rebuild.emplace_back("seconds_total", Json(s.rebuild.seconds_total));
  rebuild.emplace_back("repairs_started", Json(s.rebuild.repairs_started));
  rebuild.emplace_back("repairs_completed",
                       Json(s.rebuild.repairs_completed));
  rebuild.emplace_back("trees_repaired", Json(s.rebuild.trees_repaired));
  rebuild.emplace_back("trees_reused", Json(s.rebuild.trees_reused));
  rebuild.emplace_back("repair_seconds_total",
                       Json(s.rebuild.repair_seconds_total));
  obj.emplace_back("rebuild", Json(std::move(rebuild)));
  JsonObject by_solver;
  for (const auto& [name, count] : s.queries_by_solver) {
    by_solver.emplace_back(name, Json(count));
  }
  obj.emplace_back("queries_by_solver", Json(std::move(by_solver)));
  // Sharded-backend breakdown (EngineOptions::shards > 0); num_shards 0
  // with an empty array means the classic single-pool backend.
  obj.emplace_back("num_shards", Json(s.num_shards));
  if (s.num_shards > 0) {
    obj.emplace_back("queries_routed_local", Json(s.queries_routed_local));
    obj.emplace_back("queries_routed_cross", Json(s.queries_routed_cross));
    obj.emplace_back("result_store_hits", Json(s.result_store_hits));
    obj.emplace_back("result_store_misses", Json(s.result_store_misses));
    obj.emplace_back("shard_locality", Json(s.shard_locality));
  }
  JsonArray shards;
  for (const ShardStats& shard : s.shards) {
    JsonObject row;
    row.emplace_back("shard", Json(shard.shard));
    row.emplace_back("nodes", Json(static_cast<std::int64_t>(shard.nodes)));
    row.emplace_back("internal_edges",
                     Json(static_cast<std::int64_t>(shard.internal_edges)));
    row.emplace_back("boundary_edges",
                     Json(static_cast<std::int64_t>(shard.boundary_edges)));
    row.emplace_back("queue_depth",
                     Json(static_cast<std::uint64_t>(shard.queue_depth)));
    row.emplace_back("executed", Json(shard.executed));
    row.emplace_back("routed_local", Json(shard.routed_local));
    row.emplace_back("routed_cross", Json(shard.routed_cross));
    row.emplace_back("result_store_hits", Json(shard.result_store_hits));
    row.emplace_back("result_store_misses", Json(shard.result_store_misses));
    shards.emplace_back(Json(std::move(row)));
  }
  obj.emplace_back("shards", Json(std::move(shards)));
  return Json(std::move(obj));
}

// --- binary framing ----------------------------------------------------------

std::uint32_t read_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void append_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::string encode_binary_request(const BinaryRequest& req) {
  if (req.path.size() > 0xffff) {
    throw WireError("binary request: path too long");
  }
  std::string out;
  const std::size_t payload = 1 + 2 + req.path.size() + req.body.size();
  append_u32le(out, static_cast<std::uint32_t>(payload));
  out.push_back(req.method == "GET" ? '\0' : '\1');
  out.push_back(static_cast<char>(req.path.size() & 0xff));
  out.push_back(static_cast<char>((req.path.size() >> 8) & 0xff));
  out += req.path;
  out += req.body;
  return out;
}

BinaryRequest decode_binary_request(const std::string& payload) {
  if (payload.size() < 3) throw WireError("binary request: short frame");
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  BinaryRequest req;
  if (p[0] == 0) {
    req.method = "GET";
  } else if (p[0] == 1) {
    req.method = "POST";
  } else {
    throw WireError("binary request: unknown method byte");
  }
  const std::size_t path_len =
      static_cast<std::size_t>(p[1]) | (static_cast<std::size_t>(p[2]) << 8);
  if (payload.size() < 3 + path_len) {
    throw WireError("binary request: path overruns frame");
  }
  req.path = payload.substr(3, path_len);
  req.body = payload.substr(3 + path_len);
  return req;
}

std::string encode_binary_response(int status, const std::string& body) {
  std::string out;
  append_u32le(out, static_cast<std::uint32_t>(2 + body.size()));
  out.push_back(static_cast<char>(status & 0xff));
  out.push_back(static_cast<char>((status >> 8) & 0xff));
  out += body;
  return out;
}

}  // namespace dmf::serve
