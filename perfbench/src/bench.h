// Shared pieces of the perfbench binary: metrics, spans, the dmf-serve
// process wrapper, and the blocking HTTP / binary-protocol client.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

// Seconds on the steady clock since the first call in this process.
double now_s();
void sleep_until_s(double t);

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

// --- metrics -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;  // observations behind the value (1 for a single one)
};

using Metrics = std::map<std::string, Metric>;

inline void put(Metrics& m, const std::string& name, double value,
                const std::string& unit, long samples) {
  m[name] = Metric{value, unit, samples};
}

// --- spans -------------------------------------------------------------------
//
// Spans are recorded from the benchmark's own files around calls into the
// program's public functions (or, for a request, around the wire call). A
// span's module is its name up to the first '.'; a module's self time is
// the time its spans cover minus what their child spans cover.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span on the calling thread (parent = the innermost open
  // span of that thread). Returns -1 when tracing is off.
  int begin(const std::string& name, std::uint64_t request);
  void end(int id);
  // A span measured elsewhere (e.g. the exec seconds a server reports),
  // attached under `parent`. Returns its id (-1 when tracing is off).
  int add(const std::string& name, double start, double end, int parent,
           std::uint64_t request);

  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  std::map<std::string, double> self_seconds_by_module() const;
  std::size_t size() const;
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- dmf-serve process -------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `bin args...`, stderr to `log_path`, and waits for the
  // "dmf-serve listening" line (printed once the hierarchy is built).
  bool start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log_path, double timeout_s,
             std::string* error);
  int http_port() const { return http_port_; }
  int binary_port() const { return binary_port_; }
  // VmHWM of the live process, in MiB (0 when unavailable).
  double peak_rss_mb() const;
  // SIGTERM (graceful drain), SIGKILL after `timeout_s`; reaps.
  void stop(double timeout_s = 30.0);
  void kill_hard();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int http_port_ = -1;
  int binary_port_ = -1;
};

// --- client ------------------------------------------------------------------

struct Reply {
  bool transport_ok = false;
  int status = 0;
  std::string body;
};

class Conn {
 public:
  Conn(int port, bool binary);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connected() const { return fd_ >= 0; }
  Reply call(const std::string& method, const std::string& path,
             const std::string& body);

 private:
  bool reconnect();
  int port_;
  bool binary_;
  int fd_ = -1;
};

// Polls GET /healthz until it answers 200 or `timeout_s` passes.
bool wait_healthy(int port, double timeout_s);

}  // namespace pb
