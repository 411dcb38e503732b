// Dependency-free HTTP/1.1 + binary-frame server core for dmf-serve.
//
// One poll()-based event-loop thread owns every socket: it accepts,
// reads, runs the incremental parsers, and flushes responses. Complete
// requests are handed to a small worker pool that runs the single
// dispatch callback; the callback (or anything it schedules, e.g. an
// engine completion callback on a solver thread) answers through a
// Responder, which is safe to fire from any thread — it drops the
// encoded response into an outbox and wakes the loop over a self-pipe.
// The loop owns response ORDER: on a keep-alive connection responses
// go out in request order (per-connection sequence numbers), no matter
// which thread finished first. The binary listener speaks the
// length-prefixed framing from wire.h and shares the same dispatch.
//
// Robustness contract: hard caps on header and body bytes (431 / 413),
// malformed framing answers 400 and closes, and drain() stops
// accepting, lets every already-assigned response flush, then closes
// everything — it never abandons an in-flight request.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dmf::serve {

// One parsed request, either protocol. Header names are lowercased at
// parse time; values keep their bytes (outer whitespace trimmed).
struct Request {
  std::string method;  // "GET", "POST", ...
  std::string target;  // path as sent, e.g. "/v1/query"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool binary = false;  // arrived on the binary listener

  // Case-insensitive lookup (pass the name lowercased); null if absent.
  [[nodiscard]] const std::string* header(const std::string& name) const;
};

class HttpServer;

// One-shot reply handle, copyable and thread-safe. Exactly one send()
// wins; later sends on the same handle (or after the connection died)
// are dropped silently — the peer is gone, there is nobody to tell.
class Responder {
 public:
  Responder() = default;

  void send(int status, std::string body,
            std::vector<std::pair<std::string, std::string>> extra_headers =
                {}) const;

 private:
  friend class HttpServer;
  Responder(HttpServer* server, std::uint64_t conn_id, std::uint64_t seq,
            bool binary)
      : server_(server), conn_id_(conn_id), seq_(seq), binary_(binary) {}

  HttpServer* server_ = nullptr;
  std::uint64_t conn_id_ = 0;
  std::uint64_t seq_ = 0;
  bool binary_ = false;
};

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  int http_port = 0;    // 0 = ephemeral, resolved port via http_port()
  int binary_port = -1; // -1 disables the binary listener; 0 = ephemeral
};

class HttpServer {
 public:
  // The single routing callback. MUST eventually call responder.send()
  // on every invocation — drain() waits for assigned responses.
  using Dispatch = std::function<void(Request, Responder)>;

  HttpServer(HttpServerOptions options, Dispatch dispatch);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Bind + listen + spin up loop and workers. False (with *error set)
  // if a socket step fails; the server is then inert.
  bool start(std::string* error);

  // Resolved listen ports (after start). -1 when disabled / not started.
  [[nodiscard]] int http_port() const { return http_port_resolved_; }
  [[nodiscard]] int binary_port() const { return binary_port_resolved_; }

  // Graceful shutdown: close the listeners, stop reading new requests,
  // run the worker queue dry, flush every response that was already
  // assigned a sequence number, close all connections, join threads.
  // Idempotent. Blocks until done.
  void drain();

  [[nodiscard]] bool draining() const;

 private:
  friend class Responder;
  struct Impl;
  void deliver(std::uint64_t conn_id, std::uint64_t seq, int status,
               std::string&& body,
               std::vector<std::pair<std::string, std::string>>&&
                   extra_headers,
               bool binary);
  std::unique_ptr<Impl> impl_;
  int http_port_resolved_ = -1;
  int binary_port_resolved_ = -1;
};

}  // namespace dmf::serve
