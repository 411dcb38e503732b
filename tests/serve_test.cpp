// Tests for the dmf-serve front door: the wire-format JSON layer, the
// binary framing, the HTTP parser's rejection corpus (truncated,
// oversized, pipelined, malformed), admission control (in-flight
// window and tenant quotas -> 429), deadline enforcement (parked query
// -> kCancelled -> 504), and the drain contract (in-flight queries
// finish and flush; drain never abandons them). Runs under TSan in CI:
// the server core, the app locks, and the engine callbacks all cross
// threads here.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "graph/generators.h"
#include "serve/histogram.h"
#include "serve/http_server.h"
#include "serve/serve_app.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace dmf::serve {
namespace {

std::uint32_t u32at(const std::string& s, std::size_t off) {
  return read_u32le(reinterpret_cast<const unsigned char*>(s.data()) + off);
}

// --- raw-socket test client -------------------------------------------------

class TestClient {
 public:
  ~TestClient() { close_fd(); }

  bool connect_to(int port) {
    close_fd();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads exactly one HTTP response (headers + Content-Length body).
  bool read_response(int* status, std::string* body,
                     std::map<std::string, std::string>* headers = nullptr) {
    std::string raw = std::move(leftover_);
    leftover_.clear();
    std::size_t header_end = std::string::npos;
    char buf[4096];
    while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    int code = 0;
    if (std::sscanf(raw.c_str(), "HTTP/1.1 %d", &code) != 1) return false;
    *status = code;
    std::size_t content_length = 0;
    std::size_t pos = raw.find("\r\n") + 2;
    while (pos < header_end) {
      const std::size_t eol = raw.find("\r\n", pos);
      const std::string line = raw.substr(pos, eol - pos);
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string name = line.substr(0, colon);
        for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
        std::string value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.erase(0, 1);
        if (headers != nullptr) (*headers)[name] = value;
        if (name == "content-length") content_length = std::stoul(value);
      }
      pos = eol + 2;
    }
    std::string rest = raw.substr(header_end + 4);
    while (rest.size() < content_length) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      rest.append(buf, static_cast<std::size_t>(n));
    }
    *body = rest.substr(0, content_length);
    // Keep any pipelined tail for the next read (none of the tests
    // interleave reads, so dropping it here would lose data).
    leftover_ = rest.substr(content_length);
    return true;
  }

  // True once the peer closed (EOF) without sending more data.
  bool at_eof() {
    char buf[64];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    return n == 0;
  }

  ssize_t recv_some(char* buf, std::size_t len) {
    return ::recv(fd_, buf, len, 0);
  }

  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string leftover_;
};

std::string http_request(const std::string& method, const std::string& path,
                         const std::string& body,
                         const std::vector<std::pair<std::string,
                                                     std::string>>& extra =
                             {}) {
  std::string req = method + " " + path + " HTTP/1.1\r\nHost: t\r\n";
  for (const auto& [k, v] : extra) req += k + ": " + v + "\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  return req;
}

// One round trip on a fresh connection.
bool roundtrip(int port, const std::string& raw, int* status,
               std::string* body,
               std::map<std::string, std::string>* headers = nullptr) {
  TestClient c;
  if (!c.connect_to(port)) return false;
  if (!c.send_all(raw)) return false;
  return c.read_response(status, body, headers);
}

// --- wire.h: JSON value layer ------------------------------------------------

TEST(Wire, JsonParseAccessorsAndErrors) {
  const Json v = Json::parse(
      R"({"a": 1, "b": [true, null, "x\ny"], "nested": {"k": -2.5e1}})");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->as_int("a"), 1);
  const Json* b = v.find("b");
  ASSERT_NE(b, nullptr);
  const JsonArray& arr = b->as_array("b");
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool("b[0]"));
  EXPECT_TRUE(arr[1].is_null());
  EXPECT_EQ(arr[2].as_string("b[2]"), "x\ny");
  const Json* nested = v.find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_DOUBLE_EQ(nested->find("k")->as_number("k"), -25.0);

  EXPECT_THROW(Json::parse(""), WireError);
  EXPECT_THROW(Json::parse("{"), WireError);
  EXPECT_THROW(Json::parse("{} trailing"), WireError);
  EXPECT_THROW(Json::parse("{\"a\":}"), WireError);
  EXPECT_THROW(Json::parse("\"\\q\""), WireError);
  // Depth bomb: 100 nested arrays exceeds the parser's depth cap.
  EXPECT_THROW(Json::parse(std::string(100, '[') + std::string(100, ']')),
               WireError);
  // Type mismatch on a checked accessor names the context.
  try {
    (void)Json::parse("[1]").as_object("root");
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("root"), std::string::npos);
  }
}

TEST(Wire, JsonDumpEscapesAndRoundTrips) {
  JsonObject obj;
  obj.emplace_back("quote\"back\\slash", Json(std::string("ctrl\x01\n\t")));
  obj.emplace_back("num", Json(42.0));
  obj.emplace_back("frac", Json(0.125));
  const std::string dumped = Json(obj).dump();
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  EXPECT_NE(dumped.find("\\\\"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  const Json back = Json::parse(dumped);
  EXPECT_EQ(back.find("quote\"back\\slash")->as_string("k"), "ctrl\x01\n\t");
  EXPECT_EQ(back.find("num")->as_int("num"), 42);
  EXPECT_DOUBLE_EQ(back.find("frac")->as_number("frac"), 0.125);

  // Non-finite numbers degrade to null rather than corrupting the doc.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

TEST(Wire, BinaryFramingRoundTrip) {
  BinaryRequest req;
  req.method = "POST";
  req.path = "/v1/query";
  req.body = R"({"kind":"max_flow","s":0,"t":1})";
  const std::string encoded = encode_binary_request(req);
  // u32 frame length prefix covers everything after itself.
  EXPECT_EQ(u32at(encoded, 0), encoded.size() - 4);
  const BinaryRequest back = decode_binary_request(encoded.substr(4));
  EXPECT_EQ(back.method, req.method);
  EXPECT_EQ(back.path, req.path);
  EXPECT_EQ(back.body, req.body);

  const std::string resp = encode_binary_response(200, "{\"ok\":true}");
  EXPECT_EQ(u32at(resp, 0), resp.size() - 4);
  EXPECT_EQ(static_cast<unsigned char>(resp[4]), 200);  // status u16le
  EXPECT_EQ(static_cast<unsigned char>(resp[5]), 0);
  EXPECT_EQ(resp.substr(6), "{\"ok\":true}");
}

TEST(Wire, ErrorCodeToHttpStatus) {
  EXPECT_EQ(http_status_for(ErrorCode::kOk), 200);
  EXPECT_EQ(http_status_for(ErrorCode::kInvalidQuery), 400);
  EXPECT_EQ(http_status_for(ErrorCode::kIsolatedTerminal), 400);
  EXPECT_EQ(http_status_for(ErrorCode::kCancelled), 504);
  EXPECT_EQ(http_status_for(ErrorCode::kShutdown), 503);
  EXPECT_EQ(http_status_for(ErrorCode::kInternalError), 500);
}

// Integer query fields are range-checked at the wire: a wrapped
// min_version would park the query until shutdown, and a wrapped
// max_rounds turns a huge round budget into a tiny one.
TEST(Wire, QueryIntegerFieldsRejectValuesThatDoNotFit) {
  const auto parse = [](const std::string& text) {
    return parse_query_request(Json::parse(text));
  };
  const std::string max_flow = R"({"kind":"max_flow","s":0,"t":5,)";
  const std::string congest = R"({"kind":"congest","source":0,"sink":5,)";
  for (const std::string& bad : {
           max_flow + R"("min_version":-1})",
           max_flow + R"("priority":2147483648})",
           max_flow + R"("priority":-2147483649})",
           congest + R"("max_rounds":4294967297})",
           congest + R"("max_rounds":-2147483649})",
           congest + R"("threads":2147483648})",
           congest + R"("threads":-2147483649})",
       }) {
    EXPECT_THROW((void)parse(bad), WireError) << bad;
  }
  // The extremes that fit still parse unchanged.
  const QueryEnvelope env = parse(
      congest + R"("min_version":0,"priority":-2147483648,)" +
      R"("max_rounds":2147483647,"threads":2147483647})");
  EXPECT_EQ(env.min_version, 0u);
  EXPECT_EQ(env.priority, std::numeric_limits<int>::min());
  const auto& q = std::get<CongestQuery>(env.query);
  EXPECT_EQ(q.max_rounds, std::numeric_limits<int>::max());
  EXPECT_EQ(q.threads, std::numeric_limits<int>::max());
}

// --- HTTP server core: parser corpus -----------------------------------------

class ParserCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<HttpServer>(
        HttpServerOptions{}, [](Request req, Responder r) {
          r.send(200, "{\"echo\":" + std::to_string(req.body.size()) + "}");
        });
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    port_ = server_->http_port();
  }

  void TearDown() override { server_->drain(); }

  std::unique_ptr<HttpServer> server_;
  int port_ = 0;
};

TEST_F(ParserCorpusTest, WellFormedAndPipelined) {
  TestClient c;
  ASSERT_TRUE(c.connect_to(port_));
  // Two pipelined requests in a single write: two responses, in order,
  // on the same keep-alive connection.
  const std::string two = http_request("POST", "/a", "xy") +
                          http_request("POST", "/b", "wxyz");
  ASSERT_TRUE(c.send_all(two));
  int status = 0;
  std::string body;
  ASSERT_TRUE(c.read_response(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"echo\":2}");
  ASSERT_TRUE(c.read_response(&status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"echo\":4}");
}

TEST_F(ParserCorpusTest, RejectionCorpus) {
  struct Case {
    const char* name;
    std::string raw;
    int want_status;
  };
  const std::vector<Case> cases = {
      {"bad request line", "NOT-HTTP\r\n\r\n", 400},
      {"bad version", "GET / HTTP/9.9\r\n\r\n", 400},
      // The server's limits are 8 KiB of headers and 4 MiB of body.
      {"oversized header",
       "GET / HTTP/1.1\r\nX-Pad: " + std::string(9000, 'a') + "\r\n\r\n",
       431},
      {"oversized body",
       "POST / HTTP/1.1\r\nContent-Length: 4194305\r\n\r\n", 413},
      {"negative content-length",
       "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello", 400},
      {"garbage content-length",
       "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"missing content-length", "POST / HTTP/1.1\r\nHost: t\r\n\r\n", 411},
      {"transfer-encoding unsupported",
       "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
       "0\r\n\r\n",
       501},
  };
  for (const Case& tc : cases) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(roundtrip(port_, tc.raw, &status, &body)) << tc.name;
    EXPECT_EQ(status, tc.want_status) << tc.name;
    // Every rejection carries a JSON error body.
    EXPECT_NO_THROW(Json::parse(body)) << tc.name;
  }
}

TEST_F(ParserCorpusTest, TruncatedRequestsDoNotWedgeTheServer) {
  // Half a request line, half a header block, half a body: close each
  // mid-request. The server must survive and keep answering.
  for (const std::string& frag :
       {std::string("GET /part"), std::string("GET / HTTP/1.1\r\nHos"),
        std::string("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal")}) {
    TestClient c;
    ASSERT_TRUE(c.connect_to(port_));
    ASSERT_TRUE(c.send_all(frag));
    c.close_fd();
  }
  int status = 0;
  std::string body;
  ASSERT_TRUE(
      roundtrip(port_, http_request("POST", "/ok", "ab"), &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"echo\":2}");
}

TEST_F(ParserCorpusTest, BadRequestClosesAfterResponse) {
  TestClient c;
  ASSERT_TRUE(c.connect_to(port_));
  ASSERT_TRUE(c.send_all("JUNK\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(c.read_response(&status, &body));
  EXPECT_EQ(status, 400);
  EXPECT_TRUE(c.at_eof());
}

// --- ServeApp: admission, deadlines, drain -----------------------------------

Graph serve_graph() {
  Rng rng(7);
  return make_grid(6, 6, {1, 8}, rng);  // 36 nodes: exact solver path
}

EngineOptions serve_engine_options() {
  EngineOptions options;
  options.threads = 1;
  options.sherman.num_trees = 4;
  options.seed = 99;
  return options;
}

std::string query_json(int s, int t, GraphVersion min_version = 0) {
  std::string q = R"({"kind":"max_flow","s":)" + std::to_string(s) +
                  R"(,"t":)" + std::to_string(t) + R"(,"epsilon":0.25)";
  if (min_version > 0) {
    q += R"(,"min_version":)" + std::to_string(min_version);
  }
  return q + "}";
}

TEST(ServeApp, QueryMutateStatsHealthz) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeAppOptions opts;
  ServeApp app(engine, opts);
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  int status = 0;
  std::string body;
  ASSERT_TRUE(roundtrip(port, http_request("GET", "/healthz", ""), &status,
                        &body));
  EXPECT_EQ(status, 200);

  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query", query_json(0, 35)),
                        &status, &body));
  EXPECT_EQ(status, 200);
  const Json q = Json::parse(body);
  EXPECT_GT(q.find("result")->find("value")->as_number("value"), 0.0);

  ASSERT_TRUE(roundtrip(
      port,
      http_request("POST", "/v1/mutate",
                   R"({"ops":[{"op":"set_capacity","edge":0,)"
                   R"("capacity":3.5}],"wait_seconds":30})"),
      &status, &body));
  EXPECT_EQ(status, 200);
  const Json m = Json::parse(body);
  EXPECT_EQ(m.find("version")->as_int("version"), 1);
  EXPECT_TRUE(m.find("version_reached")->as_bool("version_reached"));

  ASSERT_TRUE(roundtrip(port, http_request("GET", "/v1/stats", ""), &status,
                        &body));
  EXPECT_EQ(status, 200);
  const Json stats = Json::parse(body);
  EXPECT_GE(stats.find("engine")->find("queries_served")->as_int("qs"), 1);

  // Error mapping through the app layer.
  ASSERT_TRUE(roundtrip(port, http_request("GET", "/nope", ""), &status,
                        &body));
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(roundtrip(port, http_request("GET", "/v1/query", ""), &status,
                        &body));
  EXPECT_EQ(status, 405);
  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query", "{not json"),
                        &status, &body));
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query",
                                     R"({"kind":"sideways"})"),
                        &status, &body));
  EXPECT_EQ(status, 400);
  EXPECT_GE(app.counters().wire_errors, 1);
  // 1e999 parses to +inf: an accuracy the engine rejects, not one that
  // silently switches the solver's routing off. Same for demand entries.
  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query",
                                     R"({"kind":"max_flow","s":0,"t":35,)"
                                     R"("epsilon":1e999})"),
                        &status, &body));
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("epsilon"), std::string::npos) << body;
  std::string demand = R"({"kind":"route","demand":[1e999)";
  for (int v = 1; v < 35; ++v) demand += ",0";
  demand += ",-1e999]}";
  ASSERT_TRUE(roundtrip(port, http_request("POST", "/v1/query", demand),
                        &status, &body));
  EXPECT_EQ(status, 400);
  EXPECT_NE(body.find("finite"), std::string::npos) << body;

  app.drain();
}

// A node count past the NodeId range is a bad request, not a wrapped
// count: 400, nothing published, and the app keeps answering.
TEST(ServeApp, MutateRejectsNodeCountOverflow) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeApp app(engine, ServeAppOptions{});
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  int status = 0;
  std::string body;
  ASSERT_TRUE(roundtrip(
      port,
      http_request("POST", "/v1/mutate",
                   R"({"ops":[{"op":"add_nodes","count":2147483647}]})"),
      &status, &body));
  EXPECT_EQ(status, 400) << body;
  EXPECT_EQ(engine.latest_version(), 0u);

  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query", query_json(0, 35)),
                        &status, &body));
  EXPECT_EQ(status, 200) << body;
  const Json q = Json::parse(body);
  EXPECT_GT(q.find("result")->find("value")->as_number("value"), 0.0);

  app.drain();
}

// Out-of-range integers answer 400 before anything is submitted: no
// query parks, and the app keeps answering.
TEST(ServeApp, QueryIntegersThatDoNotFitAre400) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeApp app(engine, ServeAppOptions{});
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  int status = 0;
  std::string body;
  for (const char* bad : {
           R"({"kind":"max_flow","s":0,"t":5,"min_version":-1})",
           R"({"kind":"congest","source":0,"sink":5,"max_rounds":4294967297})",
       }) {
    ASSERT_TRUE(roundtrip(port, http_request("POST", "/v1/query", bad),
                          &status, &body));
    EXPECT_EQ(status, 400) << bad << " -> " << body;
  }
  EXPECT_EQ(engine.stats().queries_parked, 0);

  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query", query_json(0, 35)),
                        &status, &body));
  EXPECT_EQ(status, 200) << body;

  app.drain();
}

TEST(ServeApp, InFlightWindowShedsWith429) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeAppOptions opts;
  opts.max_in_flight = 1;
  ServeApp app(engine, opts);
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  // Pin the single in-flight slot with a query parked on a version
  // that has not been published yet (min_version = 1): it is admitted
  // and counted in flight, but cannot run.
  TestClient pinned;
  ASSERT_TRUE(pinned.connect_to(port));
  ASSERT_TRUE(pinned.send_all(
      http_request("POST", "/v1/query", query_json(0, 35, 1))));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (app.in_flight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(app.in_flight(), 1);

  // The window is full: the next query sheds with 429 + Retry-After.
  int status = 0;
  std::string body;
  std::map<std::string, std::string> headers;
  ASSERT_TRUE(roundtrip(port,
                        http_request("POST", "/v1/query", query_json(1, 30)),
                        &status, &body, &headers));
  EXPECT_EQ(status, 429);
  EXPECT_EQ(headers.count("retry-after"), 1u);
  EXPECT_EQ(app.counters().shed_in_flight, 1);

  // Publishing version 1 releases the parked query; it completes 200.
  engine.apply(MutationBatch{}.set_capacity(0, 2.0));
  ASSERT_TRUE(pinned.read_response(&status, &body));
  EXPECT_EQ(status, 200);
  app.drain();
}

TEST(ServeApp, TenantQuotaShedsWith429) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeAppOptions opts;
  // Every tenant gets one token and essentially no refill, each in its
  // own bucket.
  opts.default_quota = TenantQuota{1e-6, 1.0};
  ServeApp app(engine, opts);
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  const std::vector<std::pair<std::string, std::string>> tenant = {
      {"X-DMF-Tenant", "metered"}};
  int status = 0;
  std::string body;
  ASSERT_TRUE(roundtrip(
      port, http_request("POST", "/v1/query", query_json(0, 35), tenant),
      &status, &body));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(roundtrip(
      port, http_request("POST", "/v1/query", query_json(0, 35), tenant),
      &status, &body));
  EXPECT_EQ(status, 429);
  EXPECT_EQ(app.counters().shed_quota, 1);

  // Another tenant's bucket is untouched.
  ASSERT_TRUE(roundtrip(
      port,
      http_request("POST", "/v1/query", query_json(0, 35),
                   {{"X-DMF-Tenant", "other"}}),
      &status, &body));
  EXPECT_EQ(status, 200);
  app.drain();
}

TEST(ServeApp, DeadlineCancelsParkedQueryAs504) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeApp app(engine, ServeAppOptions{});
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  // Parked on an unpublished version with a 50 ms deadline: the timer
  // thread cancels the ticket, the engine resolves kCancelled, and the
  // wire maps it to 504.
  TestClient c;
  ASSERT_TRUE(c.connect_to(port));
  ASSERT_TRUE(c.send_all(http_request(
      "POST", "/v1/query", query_json(0, 35, 1),
      {{"X-DMF-Deadline-Ms", "50"}})));
  int status = 0;
  std::string body;
  ASSERT_TRUE(c.read_response(&status, &body));
  EXPECT_EQ(status, 504);
  const Json e = Json::parse(body);
  EXPECT_EQ(e.find("error")->as_string("error"), "cancelled");
  EXPECT_EQ(app.counters().deadline_cancelled, 1);
  EXPECT_EQ(app.in_flight(), 0);
  app.drain();
}

// A deadline too far out for the clock (from the header or from
// ServeAppOptions::default_deadline_seconds) parks without one. The
// overflowing conversion used to land it in the past, so the timer
// cancelled the parked query at once (504).
TEST(ServeApp, DeadlineBeyondTheClockParksWithoutOne) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeApp app(engine, ServeAppOptions{});
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;

  TestClient c;
  ASSERT_TRUE(c.connect_to(app.http_port()));
  ASSERT_TRUE(c.send_all(http_request("POST", "/v1/query",
                                      query_json(0, 35, 1),
                                      {{"X-DMF-Deadline-Ms", "1e300"}})));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (app.in_flight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(app.counters().deadline_cancelled, 0);

  // Publishing version 1 releases the parked query.
  engine.apply(MutationBatch{}.set_capacity(0, 2.0));
  int status = 0;
  std::string body;
  ASSERT_TRUE(c.read_response(&status, &body));
  EXPECT_EQ(status, 200) << body;
  EXPECT_EQ(app.counters().deadline_cancelled, 0);
  app.drain();
}

TEST(ServeApp, DrainCompletesInFlightQueries) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeApp app(engine, ServeAppOptions{});
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  const int port = app.http_port();

  // Admit a query parked on version 1, then start draining. Drain must
  // block on the in-flight request, answer 503 to new work, and return
  // only after the parked query completed AND its response flushed.
  TestClient parked;
  ASSERT_TRUE(parked.connect_to(port));
  ASSERT_TRUE(parked.send_all(
      http_request("POST", "/v1/query", query_json(0, 35, 1))));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (app.in_flight() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(app.in_flight(), 1);

  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    app.drain();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load());  // still waiting on the parked query

  // Release it: the mutation publishes version 1, the parked query
  // runs, drain unblocks.
  engine.apply(MutationBatch{}.set_capacity(0, 2.0));
  drainer.join();
  EXPECT_TRUE(drained.load());

  int status = 0;
  std::string body;
  ASSERT_TRUE(parked.read_response(&status, &body));
  EXPECT_EQ(status, 200);
  const Json q = Json::parse(body);
  EXPECT_GT(q.find("result")->find("value")->as_number("value"), 0.0);
  EXPECT_EQ(app.counters().rejected_draining, 0);
}

TEST(ServeApp, BinaryProtocolSharesDispatch) {
  FlowEngine engine(serve_graph(), serve_engine_options());
  ServeAppOptions opts;
  opts.http.binary_port = 0;  // enable, ephemeral
  ServeApp app(engine, opts);
  std::string error;
  ASSERT_TRUE(app.start(&error)) << error;
  ASSERT_GT(app.binary_port(), 0);

  TestClient c;
  ASSERT_TRUE(c.connect_to(app.binary_port()));
  BinaryRequest req;
  req.method = "POST";
  req.path = "/v1/query";
  req.body = query_json(0, 35);
  ASSERT_TRUE(c.send_all(encode_binary_request(req)));

  // Response frame: u32 len | u16 status | body.
  std::string raw;
  char buf[4096];
  while (raw.size() < 4 || raw.size() < 4 + u32at(raw, 0)) {
    const ssize_t n = c.recv_some(buf, sizeof(buf));
    ASSERT_GT(n, 0);
    raw.append(buf, static_cast<std::size_t>(n));
  }
  const std::uint32_t frame_len = u32at(raw, 0);
  ASSERT_GE(frame_len, 2u);
  const int status = static_cast<unsigned char>(raw[4]) |
                     (static_cast<unsigned char>(raw[5]) << 8);
  EXPECT_EQ(status, 200);
  const Json q = Json::parse(raw.substr(6, frame_len - 2));
  EXPECT_GT(q.find("result")->find("value")->as_number("value"), 0.0);
  app.drain();
}

}  // namespace
}  // namespace dmf::serve
