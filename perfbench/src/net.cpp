#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.h"
#include "serve/wire.h"

namespace pb {

namespace {

thread_local std::vector<int> t_open_spans;

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

std::string module_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- Tracer ------------------------------------------------------------------

int Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  const int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_s(), 0.0, parent, request});
  }
  t_open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int Tracer::add(const std::string& name, double start, double end,
                int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  return durations(name).size();
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds_by_module() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[module_of(s.name)] += std::max(0.0, s.end - s.start - child[i]);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"request\":%llu}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

// --- ServerProcess -----------------------------------------------------------

ServerProcess::~ServerProcess() { kill_hard(); }

bool ServerProcess::start(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::string& log_path, double timeout_s,
                          std::string* error) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(bin);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execv(bin.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(out_pipe[1]);
  pid_ = pid;
  stdout_fd_ = out_pipe[0];

  std::string line;
  const double deadline = now_s() + timeout_s;
  while (line.find('\n') == std::string::npos) {
    const double left = deadline - now_s();
    if (left <= 0) {
      *error = "timed out waiting for dmf-serve to listen";
      kill_hard();
      return false;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "dmf-serve exited before listening (see " + log_path + ")";
      kill_hard();
      return false;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (std::sscanf(line.c_str(), "dmf-serve listening http=%d binary=%d",
                  &http_port_, &binary_port_) != 2) {
    *error = "unexpected dmf-serve banner: " + line;
    kill_hard();
    return false;
  }
  return true;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void ServerProcess::stop(double timeout_s) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill_hard();
}

void ServerProcess::kill_hard() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

// --- Conn --------------------------------------------------------------------

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_more(int fd, std::string& raw) {
  char buf[65536];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  if (n <= 0) return false;
  raw.append(buf, static_cast<std::size_t>(n));
  return true;
}

}  // namespace

Conn::Conn(int port, bool binary) : port_(port), binary_(binary) {
  reconnect();
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::reconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = connect_loopback(port_);
  return fd_ >= 0;
}

Reply Conn::call(const std::string& method, const std::string& path,
                 const std::string& body) {
  Reply reply;
  if (fd_ < 0 && !reconnect()) return reply;
  std::string raw;
  if (binary_) {
    dmf::serve::BinaryRequest req{method, path, body};
    if (!send_all(fd_, dmf::serve::encode_binary_request(req))) {
      reconnect();
      return reply;
    }
    const auto frame_len = [&]() -> std::size_t {
      return dmf::serve::read_u32le(
          reinterpret_cast<const unsigned char*>(raw.data()));
    };
    while (raw.size() < 4 || raw.size() < 4 + frame_len()) {
      if (!recv_more(fd_, raw)) {
        reconnect();
        return reply;
      }
    }
    reply.status = static_cast<unsigned char>(raw[4]) |
                   (static_cast<unsigned char>(raw[5]) << 8);
    reply.body = raw.substr(6, frame_len() - 2);
  } else {
    std::string req = method + " " + path + " HTTP/1.1\r\nHost: dmf\r\n";
    if (method == "POST") {
      req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    req += "\r\n" + body;
    if (!send_all(fd_, req)) {
      reconnect();
      return reply;
    }
    std::size_t header_end = 0;
    while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
      if (!recv_more(fd_, raw)) {
        reconnect();
        return reply;
      }
    }
    std::sscanf(raw.c_str(), "HTTP/1.1 %d", &reply.status);
    std::size_t content_length = 0;
    const std::string headers = raw.substr(0, header_end);
    const std::size_t cl = headers.find("Content-Length:");
    if (cl != std::string::npos) {
      content_length = std::strtoul(headers.c_str() + cl + 15, nullptr, 10);
    }
    while (raw.size() < header_end + 4 + content_length) {
      if (!recv_more(fd_, raw)) {
        reconnect();
        return reply;
      }
    }
    reply.body = raw.substr(header_end + 4, content_length);
  }
  reply.transport_ok = true;
  return reply;
}

bool wait_healthy(int port, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (now_s() < deadline) {
    Conn conn(port, false);
    if (conn.connected()) {
      const Reply r = conn.call("GET", "/healthz", "");
      if (r.transport_ok && r.status == 200) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace pb
