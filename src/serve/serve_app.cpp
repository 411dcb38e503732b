#include "serve/serve_app.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <variant>
#include <vector>

#include "util/require.h"

namespace dmf::serve {

namespace {

// Advertised in the Retry-After header of every 429.
constexpr int kRetryAfterSeconds = 1;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

bool ServeApp::TokenBucket::take(Clock::time_point now) {
  if (rate <= 0.0) return true;
  if (!primed) {
    tokens = burst;
    last = now;
    primed = true;
  }
  tokens = std::min(burst, tokens + rate * seconds_between(last, now));
  last = now;
  if (tokens >= 1.0) {
    tokens -= 1.0;
    return true;
  }
  return false;
}

ServeApp::ServeApp(FlowEngine& engine, ServeAppOptions options)
    : engine_(engine), options_(std::move(options)) {}

ServeApp::~ServeApp() { drain(); }

bool ServeApp::start(std::string* error) {
  if (started_) return true;
  server_ = std::make_unique<HttpServer>(
      options_.http,
      [this](Request req, Responder responder) {
        handle(std::move(req), responder);
      });
  if (!server_->start(error)) {
    server_.reset();
    return false;
  }
  deadline_thread_ = std::thread([this] { deadline_main(); });
  started_ = true;
  return true;
}

int ServeApp::http_port() const {
  return server_ != nullptr ? server_->http_port() : -1;
}

int ServeApp::binary_port() const {
  return server_ != nullptr ? server_->binary_port() : -1;
}

std::int64_t ServeApp::in_flight() const {
  MutexLock lock(mu_);
  return in_flight_;
}

ServeCounters ServeApp::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void ServeApp::drain() {
  if (!started_ || drained_) return;
  drained_ = true;
  // 1. New engine work answers 503 from here on.
  draining_.store(true, std::memory_order_release);
  // 2. Wait for every admitted request to be answered. Engine
  //    callbacks keep firing during this wait; nothing is abandoned.
  {
    MutexLock lock(mu_);
    while (in_flight_ != 0) cv_.wait(mu_);
    stop_deadline_thread_ = true;
  }
  cv_.notify_all();
  deadline_thread_.join();
  // 3. Flush all assigned responses and close every socket.
  server_->drain();
}

// --- deadline timer ----------------------------------------------------------

void ServeApp::deadline_main() {
  for (;;) {
    std::function<bool()> cancel;
    {
      MutexLock lock(mu_);
      while (!stop_deadline_thread_) {
        if (deadlines_.empty()) {
          cv_.wait(mu_);
          continue;
        }
        auto min_it = deadlines_.begin();
        for (auto it = deadlines_.begin(); it != deadlines_.end(); ++it) {
          if (it->second.at < min_it->second.at) min_it = it;
        }
        const Clock::time_point now = Clock::now();
        if (min_it->second.at > now) {
          cv_.wait_until(mu_, min_it->second.at);
          continue;
        }
        cancel = std::move(min_it->second.cancel);
        deadlines_.erase(min_it);
        break;
      }
    }
    if (cancel == nullptr) return;  // stop requested
    // cancel() may run the engine completion callback synchronously on
    // this thread (for still-queued/parked queries); that callback
    // re-takes mu_, so it must run outside the lock. The callback also
    // counts the cancellation (finish_query), before the 504 is sent.
    (void)cancel();
  }
}

double ServeApp::deadline_for(const Request& req) const {
  if (const std::string* ms = req.header("x-dmf-deadline-ms")) {
    char* end = nullptr;
    const double v = std::strtod(ms->c_str(), &end);
    if (end != ms->c_str() && v > 0.0 && std::isfinite(v)) return v / 1000.0;
  }
  return options_.default_deadline_seconds;
}

ServeApp::TokenBucket& ServeApp::bucket_for(const std::string& tenant) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    const TenantQuota& quota = options_.default_quota;
    TokenBucket bucket;
    bucket.rate = quota.tokens_per_second;
    bucket.burst = quota.burst > 0.0
                       ? quota.burst
                       : std::max(1.0, 2.0 * quota.tokens_per_second);
    it = buckets_.emplace(tenant, bucket).first;
  }
  return it->second;
}

template <typename Ticket>
void ServeApp::arm_deadline(std::uint64_t request_id, double deadline_seconds,
                            Ticket&& ticket) {
  if (deadline_seconds <= 0.0) return;
  // A deadline too far out for the clock to hold is no deadline, as in
  // FlowEngine::wait_for_version; converting it to ticks would overflow.
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> timeout(deadline_seconds);
  if (timeout >= (Clock::time_point::max() - now) / 2) return;
  auto shared = std::make_shared<Ticket>(std::move(ticket));
  {
    MutexLock lock(mu_);
    // The callback may already have fired and erased nothing; a stale
    // entry is harmless — cancel() on a resolved ticket returns false.
    deadlines_[request_id] = DeadlineEntry{
        now + std::chrono::duration_cast<Clock::duration>(timeout),
        [shared] { return shared->cancel(); }};
  }
  cv_.notify_all();
}

// --- response plumbing -------------------------------------------------------

void ServeApp::complete(
    const char* endpoint, Clock::time_point start, bool admitted,
    const Responder& responder, int status, std::string body,
    std::vector<std::pair<std::string, std::string>> extra_headers) {
  {
    MutexLock lock(mu_);
    endpoint_latency_[endpoint].record(
        seconds_between(start, Clock::now()));
    if (admitted) {
      --in_flight_;
      cv_.notify_all();
    }
  }
  responder.send(status, std::move(body), std::move(extra_headers));
}

template <typename Payload>
void ServeApp::finish_query(std::uint64_t request_id, Clock::time_point start,
                            const Responder& responder,
                            const Result<Payload>& res, bool include_flow) {
  {
    MutexLock lock(mu_);
    deadlines_.erase(request_id);
    // Only the deadline timer cancels tickets, so a kCancelled result
    // is a deadline kill. Counted here, before complete() releases the
    // response, so a client that has read its 504 sees the count.
    if (res.code == ErrorCode::kCancelled) ++counters_.deadline_cancelled;
  }
  if (!res.ok()) {
    complete("query", start, /*admitted=*/true, responder,
             http_status_for(res.code), error_body(res.code, res.message));
    return;
  }
  JsonObject obj;
  obj.emplace_back("result", to_json(*res.payload, include_flow));
  obj.emplace_back("solver", Json(res.solver));
  obj.emplace_back("seconds", Json(res.seconds));
  obj.emplace_back("served_version",
                   Json(static_cast<std::uint64_t>(res.served_version)));
  complete("query", start, /*admitted=*/true, responder, 200,
           Json(std::move(obj)).dump());
}

// --- endpoint handlers -------------------------------------------------------

void ServeApp::handle(Request req, Responder responder) {
  const Clock::time_point start = Clock::now();
  const std::string& path = req.target;

  if (path == "/healthz") {
    if (req.method != "GET") {
      complete("healthz", start, false, responder, 405,
               error_body(ErrorCode::kInvalidQuery, "use GET"));
      return;
    }
    JsonObject obj;
    obj.emplace_back("status", Json("ok"));
    obj.emplace_back("draining",
                     Json(draining_.load(std::memory_order_acquire)));
    obj.emplace_back(
        "serving_version",
        Json(static_cast<std::uint64_t>(engine_.serving_version())));
    complete("healthz", start, false, responder, 200,
             Json(std::move(obj)).dump());
    return;
  }

  if (path == "/v1/stats") {
    if (req.method != "GET") {
      complete("stats", start, false, responder, 405,
               error_body(ErrorCode::kInvalidQuery, "use GET"));
      return;
    }
    handle_stats(responder, start);
    return;
  }

  if (path == "/v1/admin/persist") {
    if (req.method != "POST") {
      complete("persist", start, false, responder, 405,
               error_body(ErrorCode::kInvalidQuery, "use POST"));
      return;
    }
    // Admin plane: no admission control (like /v1/stats), usable while
    // draining — persisting on the way down is the point.
    try {
      const GraphVersion persisted = engine_.persist();
      JsonObject obj;
      obj.emplace_back("persisted_version",
                       Json(static_cast<std::uint64_t>(persisted)));
      complete("persist", start, false, responder, 200,
               Json(std::move(obj)).dump());
    } catch (const RequirementError& e) {
      // No data_dir configured (or the write was refused).
      complete("persist", start, false, responder, 412,
               error_body(ErrorCode::kPreconditionFailed, e.what()));
    } catch (const std::exception& e) {
      complete("persist", start, false, responder, 500,
               error_body(ErrorCode::kInternalError, e.what()));
    }
    return;
  }

  const bool is_query = path == "/v1/query";
  const bool is_mutate = path == "/v1/mutate";
  if (!is_query && !is_mutate) {
    complete("other", start, false, responder, 404,
             error_body(ErrorCode::kInvalidQuery,
                        "no such endpoint: " + path));
    return;
  }
  const char* endpoint = is_query ? "query" : "mutate";
  if (req.method != "POST") {
    complete(endpoint, start, false, responder, 405,
             error_body(ErrorCode::kInvalidQuery, "use POST"));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    MutexLock lock(mu_);
    ++counters_.rejected_draining;
    // Not via complete(): no latency sample for rejected work, and the
    // in-flight window was never entered.
    responder.send(503, error_body(ErrorCode::kShutdown, "draining"));
    return;
  }

  // Admission: in-flight window first (global), then the tenant bucket.
  {
    const std::string* tenant_header = req.header("x-dmf-tenant");
    const std::string tenant =
        tenant_header != nullptr ? *tenant_header : std::string();
    MutexLock lock(mu_);
    const char* shed_reason = nullptr;
    if (in_flight_ >= options_.max_in_flight) {
      ++counters_.shed_in_flight;
      shed_reason = "in-flight window full";
    } else if (!bucket_for(tenant).take(Clock::now())) {
      ++counters_.shed_quota;
      shed_reason = "tenant quota exhausted";
    }
    if (shed_reason != nullptr) {
      responder.send(
          429,
          error_body(ErrorCode::kPreconditionFailed, shed_reason),
          {{"Retry-After", std::to_string(kRetryAfterSeconds)}});
      return;
    }
    ++in_flight_;
    ++counters_.admitted;
  }

  try {
    if (is_query) {
      handle_query(req, responder, start);
    } else {
      handle_mutate(req, responder, start);
    }
  } catch (const WireError& e) {
    {
      MutexLock lock(mu_);
      ++counters_.wire_errors;
    }
    complete(endpoint, start, /*admitted=*/true, responder, 400,
             error_body(ErrorCode::kInvalidQuery, e.what()));
  } catch (const RequirementError& e) {
    complete(endpoint, start, /*admitted=*/true, responder, 400,
             error_body(ErrorCode::kInvalidQuery, e.what()));
  } catch (const std::exception& e) {
    complete(endpoint, start, /*admitted=*/true, responder, 500,
             error_body(ErrorCode::kInternalError, e.what()));
  }
}

void ServeApp::handle_query(const Request& req, Responder responder,
                            Clock::time_point start) {
  const Json body = Json::parse(req.body);
  QueryEnvelope env = parse_query_request(body);
  const double deadline_seconds = deadline_for(req);
  const bool include_flow = env.include_flow;

  std::uint64_t request_id = 0;
  {
    MutexLock lock(mu_);
    request_id = next_request_id_++;
  }
  SubmitOptions sopts;
  sopts.priority = env.priority;
  sopts.min_version = env.min_version;

  std::visit(
      [&](auto&& query) {
        using Q = std::decay_t<decltype(query)>;
        using P = typename std::conditional_t<
            std::is_same_v<Q, MaxFlowQuery>, MaxFlowApproxResult,
            std::conditional_t<
                std::is_same_v<Q, RouteQuery>, RouteResult,
                std::conditional_t<std::is_same_v<Q, MultiTerminalQuery>,
                                   MultiTerminalMaxFlowResult,
                                   CongestRunResult>>>;
        auto ticket = engine_.submit(
            std::move(query),
            [this, request_id, start, responder,
             include_flow](const Result<P>& res) {
              finish_query(request_id, start, responder, res, include_flow);
            },
            sopts);
        arm_deadline(request_id, deadline_seconds, std::move(ticket));
      },
      std::move(env.query));
}

void ServeApp::handle_mutate(const Request& req, Responder responder,
                             Clock::time_point start) {
  const Json body = Json::parse(req.body);
  double wait_seconds = 0.0;
  const MutationBatch batch = parse_mutation_request(body, &wait_seconds);
  const ApplyResult applied = engine_.apply(batch);
  bool version_reached = false;
  if (wait_seconds != 0.0) {
    version_reached =
        engine_.wait_for_version(applied.version, wait_seconds);
  }
  Json obj_json = to_json(applied);
  JsonObject obj = obj_json.as_object("apply");
  obj.emplace_back("version_reached", Json(version_reached));
  complete("mutate", start, /*admitted=*/true, responder, 200,
           Json(std::move(obj)).dump());
}

void ServeApp::handle_stats(Responder responder, Clock::time_point start) {
  const EngineStats engine_stats = engine_.stats();
  JsonObject serve;
  {
    MutexLock lock(mu_);
    serve.emplace_back("in_flight", Json(in_flight_));
    serve.emplace_back("draining",
                       Json(draining_.load(std::memory_order_acquire)));
    serve.emplace_back("admitted", Json(counters_.admitted));
    serve.emplace_back("shed_in_flight", Json(counters_.shed_in_flight));
    serve.emplace_back("shed_quota", Json(counters_.shed_quota));
    serve.emplace_back("rejected_draining",
                       Json(counters_.rejected_draining));
    serve.emplace_back("deadline_cancelled",
                       Json(counters_.deadline_cancelled));
    serve.emplace_back("wire_errors", Json(counters_.wire_errors));
    JsonObject endpoints;
    for (const auto& [name, hist] : endpoint_latency_) {
      JsonObject e;
      e.emplace_back("count", Json(hist.count()));
      e.emplace_back("mean_seconds", Json(hist.mean()));
      e.emplace_back("p50_seconds", Json(hist.quantile(0.50)));
      e.emplace_back("p99_seconds", Json(hist.quantile(0.99)));
      e.emplace_back("p999_seconds", Json(hist.quantile(0.999)));
      e.emplace_back("max_seconds", Json(hist.max()));
      endpoints.emplace_back(name, Json(std::move(e)));
    }
    serve.emplace_back("endpoints", Json(std::move(endpoints)));
  }
  JsonObject obj;
  obj.emplace_back("engine", to_json(engine_stats));
  obj.emplace_back("serve", Json(std::move(serve)));
  complete("stats", start, /*admitted=*/false, responder, 200,
           Json(std::move(obj)).dump());
}

}  // namespace dmf::serve
