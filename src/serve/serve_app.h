// ServeApp: the application layer of dmf-serve. Routes requests from
// the HttpServer (either protocol) onto the FlowEngine without ever
// blocking a server thread on a query: /v1/query submits through the
// engine's callback API and the Responder fires from the engine's
// completion callback.
//
// Robustness lives here, in front of the engine:
//   - token-bucket admission per tenant (X-DMF-Tenant selects the
//     bucket; every tenant gets the default quota);
//   - a bounded in-flight window — past it requests shed with 429 +
//     Retry-After: 1 instead of queueing without bound;
//   - per-request deadlines (X-DMF-Deadline-Ms) enforced by a single
//     timer thread that cancels the engine ticket; a query cancelled
//     before it ran answers 504 through the same callback path;
//   - graceful drain: new work answers 503, in-flight queries finish
//     and flush, then the server closes. drain() returns only when
//     every admitted request has been answered.
//
// Endpoints: GET /healthz, GET /v1/stats (engine counters + per-
// endpoint latency histograms), POST /v1/query, POST /v1/mutate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "engine/engine.h"
#include "serve/histogram.h"
#include "serve/http_server.h"
#include "serve/wire.h"
#include "util/thread_annotations.h"

namespace dmf::serve {

struct TenantQuota {
  double tokens_per_second = 0.0;  // 0 = this tenant is not rate limited
  double burst = 0.0;              // bucket capacity; 0 = max(1, 2x rate)
};

struct ServeAppOptions {
  HttpServerOptions http;
  // Admitted-but-unanswered request ceiling across all endpoints that
  // touch the engine; beyond it, shed with 429.
  int max_in_flight = 256;
  // Every tenant's quota, each in its own bucket; 0 disables rate
  // limiting (the in-flight bound still applies).
  TenantQuota default_quota;
  // Deadline applied when the request carries no X-DMF-Deadline-Ms.
  // 0 = none.
  double default_deadline_seconds = 0.0;
};

struct ServeCounters {
  std::int64_t admitted = 0;
  std::int64_t shed_in_flight = 0;   // 429: in-flight window full
  std::int64_t shed_quota = 0;       // 429: tenant bucket empty
  std::int64_t rejected_draining = 0;
  std::int64_t deadline_cancelled = 0;  // tickets the timer actually killed
  std::int64_t wire_errors = 0;         // 400s from body parsing
};

class ServeApp {
 public:
  // The engine must outlive the app; drain() (or destruction) must run
  // before the engine is destroyed so every callback Responder fires.
  ServeApp(FlowEngine& engine, ServeAppOptions options);
  ~ServeApp();

  ServeApp(const ServeApp&) = delete;
  ServeApp& operator=(const ServeApp&) = delete;

  bool start(std::string* error);
  [[nodiscard]] int http_port() const;
  [[nodiscard]] int binary_port() const;

  // Graceful shutdown: reject new engine work with 503, wait for the
  // in-flight window to empty, stop the deadline timer, drain the
  // server (flushes every response). Idempotent; blocks until done.
  void drain();

  [[nodiscard]] std::int64_t in_flight() const;
  [[nodiscard]] ServeCounters counters() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct TokenBucket {
    double rate = 0.0;
    double burst = 0.0;
    double tokens = 0.0;
    Clock::time_point last{};
    bool primed = false;

    bool take(Clock::time_point now);
  };

  struct DeadlineEntry {
    Clock::time_point at;
    std::function<bool()> cancel;
  };

  void handle(Request req, Responder responder);
  void handle_query(const Request& req, Responder responder,
                    Clock::time_point start);
  void handle_mutate(const Request& req, Responder responder,
                     Clock::time_point start);
  void handle_stats(Responder responder, Clock::time_point start);

  // Record latency, release the in-flight slot if held, send.
  void complete(const char* endpoint, Clock::time_point start, bool admitted,
                const Responder& responder, int status, std::string body,
                std::vector<std::pair<std::string, std::string>>
                    extra_headers = {});

  template <typename Payload>
  void finish_query(std::uint64_t request_id, Clock::time_point start,
                    const Responder& responder, const Result<Payload>& res,
                    bool include_flow);

  template <typename Ticket>
  void arm_deadline(std::uint64_t request_id, double deadline_seconds,
                    Ticket&& ticket);

  double deadline_for(const Request& req) const;
  TokenBucket& bucket_for(const std::string& tenant) DMF_REQUIRES(mu_);
  void deadline_main();

  FlowEngine& engine_;
  ServeAppOptions options_;
  std::unique_ptr<HttpServer> server_;

  std::atomic<bool> draining_{false};
  bool drained_ = false;
  bool started_ = false;

  mutable Mutex mu_;
  CondVar cv_;  // in-flight drained; deadline set changed; stop requested
  std::int64_t in_flight_ DMF_GUARDED_BY(mu_) = 0;
  std::uint64_t next_request_id_ DMF_GUARDED_BY(mu_) = 1;
  ServeCounters counters_ DMF_GUARDED_BY(mu_);
  std::map<std::string, TokenBucket> buckets_ DMF_GUARDED_BY(mu_);
  std::map<std::string, LatencyHistogram> endpoint_latency_
      DMF_GUARDED_BY(mu_);
  std::map<std::uint64_t, DeadlineEntry> deadlines_ DMF_GUARDED_BY(mu_);
  bool stop_deadline_thread_ DMF_GUARDED_BY(mu_) = false;
  std::thread deadline_thread_;
};

}  // namespace dmf::serve
