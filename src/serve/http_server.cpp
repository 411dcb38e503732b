#include "serve/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>

#include "serve/wire.h"
#include "util/thread_annotations.h"

namespace dmf::serve {

namespace {

constexpr std::uint64_t kNoCloseSeq = ~std::uint64_t{0};

// Worker threads running the dispatch callback; the event loop thread
// does all socket I/O and parsing.
constexpr int kWorkerThreads = 2;
// A header block past this answers 431, a body past this 413; a binary
// frame may carry kMaxBodyBytes plus its envelope.
constexpr std::size_t kMaxHeaderBytes = 8 * 1024;
constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;
// Open connections beyond this are closed as soon as they are accepted.
constexpr std::size_t kMaxConnections = 1024;

int make_listener(const std::string& address, int port, int* resolved,
                  std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket() failed";
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &sa.sin_addr) != 1) {
    if (error != nullptr) *error = "bad bind address: " + address;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (error != nullptr) {
      *error = "bind(" + address + ":" + std::to_string(port) +
               ") failed: " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    if (error != nullptr) *error = "listen() failed";
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    if (resolved != nullptr) *resolved = ntohs(bound.sin_port);
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

}  // namespace

const std::string* Request::header(const std::string& name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

// --- Impl --------------------------------------------------------------------

struct HttpServer::Impl {
  struct Connection {
    int fd = -1;
    bool binary = false;
    std::string in;
    std::string out;
    std::uint64_t next_seq = 0;   // next request sequence to assign
    std::uint64_t flush_seq = 0;  // next sequence to append to `out`
    std::map<std::uint64_t, std::string> ready;  // encoded, out of order
    std::uint64_t close_after_seq = kNoCloseSeq;
    bool stop_reading = false;
    bool want_close = false;  // close once `out` fully drains
    // HTTP incremental-parse state for the request being assembled.
    bool have_headers = false;
    Request req;
    std::size_t content_length = 0;
    bool keep_alive = true;

    [[nodiscard]] std::uint64_t pending() const {
      return next_seq - flush_seq;
    }
  };

  struct OutboxItem {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    int status = 500;
    std::string body;
    std::vector<std::pair<std::string, std::string>> extra_headers;
  };

  struct Task {
    Request request;
    Responder responder;
  };

  HttpServerOptions options;
  Dispatch dispatch;
  HttpServer* owner = nullptr;

  int http_fd = -1;
  int bin_fd = -1;
  int wake_read = -1;
  int wake_write = -1;

  std::thread loop_thread;
  std::vector<std::thread> worker_threads;

  std::atomic<bool> draining{false};
  bool started = false;
  bool drained = false;

  // Workers and the engine's completion callbacks deposit responses
  // here; only the loop thread drains it (process_outbox).
  Mutex outbox_mutex;
  std::vector<OutboxItem> outbox DMF_GUARDED_BY(outbox_mutex);

  Mutex task_mutex;
  CondVar task_cv;
  std::deque<Task> tasks DMF_GUARDED_BY(task_mutex);
  int busy_workers DMF_GUARDED_BY(task_mutex) = 0;
  bool workers_stop DMF_GUARDED_BY(task_mutex) = false;

  // Loop-thread-only state.
  std::unordered_map<std::uint64_t, Connection> conns;
  std::uint64_t next_conn_id = 1;

  ~Impl() {
    for (int fd : {http_fd, bin_fd, wake_read, wake_write}) {
      if (fd >= 0) ::close(fd);
    }
  }

  void wake() {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  void enqueue_task(Request&& req, std::uint64_t conn_id, std::uint64_t seq,
                    bool binary) {
    Responder responder(owner, conn_id, seq, binary);
    {
      MutexLock lock(task_mutex);
      tasks.push_back(Task{std::move(req), responder});
    }
    task_cv.notify_one();
  }

  void worker_main() {
    for (;;) {
      Task task;
      {
        MutexLock lock(task_mutex);
        while (!workers_stop && tasks.empty()) task_cv.wait(task_mutex);
        if (tasks.empty()) return;  // stop requested and queue is dry
        task = std::move(tasks.front());
        tasks.pop_front();
        ++busy_workers;
      }
      dispatch(std::move(task.request), task.responder);
      {
        MutexLock lock(task_mutex);
        --busy_workers;
      }
    }
  }

  [[nodiscard]] bool workers_idle() {
    MutexLock lock(task_mutex);
    return tasks.empty() && busy_workers == 0;
  }

  // --- response path (loop thread) -------------------------------------------

  static std::string encode_http_response(
      int status, const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& extra,
      bool close) {
    std::string r = "HTTP/1.1 " + std::to_string(status) + " " +
                    http_status_reason(status) + "\r\n";
    r += "Content-Type: application/json\r\n";
    r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    for (const auto& [k, v] : extra) {
      r += k + ": " + v + "\r\n";
    }
    r += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
    r += "\r\n";
    r += body;
    return r;
  }

  void flush_ready(Connection& c) {
    for (auto it = c.ready.find(c.flush_seq); it != c.ready.end();
         it = c.ready.find(c.flush_seq)) {
      c.out += it->second;
      c.ready.erase(it);
      if (c.flush_seq == c.close_after_seq) c.want_close = true;
      ++c.flush_seq;
    }
  }

  void process_outbox() {
    std::vector<OutboxItem> items;
    {
      MutexLock lock(outbox_mutex);
      items.swap(outbox);
    }
    for (OutboxItem& item : items) {
      auto it = conns.find(item.conn_id);
      if (it == conns.end()) continue;  // connection died; drop
      Connection& c = it->second;
      if (item.seq < c.flush_seq || c.ready.count(item.seq) != 0) {
        continue;  // duplicate send on the same Responder; first wins
      }
      const bool close = item.seq == c.close_after_seq;
      std::string encoded =
          c.binary ? encode_binary_response(item.status, item.body)
                   : encode_http_response(item.status, item.body,
                                          item.extra_headers, close);
      c.ready.emplace(item.seq, std::move(encoded));
      flush_ready(c);
    }
  }

  // Loop-originated failure (parse error, limit breach): answers with
  // `status` and closes after that response flushes; nothing after the
  // bad bytes is trusted.
  void fail_connection(Connection& c, int status, const std::string& msg) {
    const std::uint64_t seq = c.next_seq++;
    c.close_after_seq = seq;
    c.stop_reading = true;
    const std::string body = error_body(ErrorCode::kInvalidQuery, msg);
    std::string encoded = c.binary
                              ? encode_binary_response(status, body)
                              : encode_http_response(status, body, {}, true);
    c.ready.emplace(seq, std::move(encoded));
    flush_ready(c);
  }

  // --- request path (loop thread) --------------------------------------------

  // One complete request parsed: decide keep-alive, assign its
  // sequence slot, hand it to the workers.
  void dispatch_request(std::uint64_t conn_id, Connection& c, Request&& req,
                        bool keep_alive) {
    const std::uint64_t seq = c.next_seq++;
    if (!keep_alive) {
      c.close_after_seq = seq;
      c.stop_reading = true;
    }
    enqueue_task(std::move(req), conn_id, seq, c.binary);
  }

  // Returns false when the connection entered a fatal state.
  bool parse_http(std::uint64_t conn_id, Connection& c) {
    for (;;) {
      if (c.stop_reading) return true;
      if (!c.have_headers) {
        const std::size_t end = c.in.find("\r\n\r\n");
        if (end == std::string::npos) {
          if (c.in.size() > kMaxHeaderBytes) {
            fail_connection(c, 431, "request headers exceed limit");
          }
          return true;  // need more bytes
        }
        if (end + 4 > kMaxHeaderBytes) {
          fail_connection(c, 431, "request headers exceed limit");
          return true;
        }
        // Split the head into lines.
        std::vector<std::string> lines;
        std::size_t pos = 0;
        while (pos < end) {
          std::size_t eol = c.in.find("\r\n", pos);
          if (eol == std::string::npos || eol > end) eol = end;
          lines.push_back(c.in.substr(pos, eol - pos));
          pos = eol + 2;
        }
        c.in.erase(0, end + 4);
        if (lines.empty()) {
          fail_connection(c, 400, "empty request");
          return true;
        }
        // Request line: METHOD SP TARGET SP HTTP/x.y
        const std::string& rl = lines[0];
        const std::size_t sp1 = rl.find(' ');
        const std::size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : rl.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos) {
          fail_connection(c, 400, "malformed request line");
          return true;
        }
        c.req = Request{};
        c.req.method = rl.substr(0, sp1);
        c.req.target = rl.substr(sp1 + 1, sp2 - sp1 - 1);
        const std::string version = rl.substr(sp2 + 1);
        if (c.req.method.empty() || c.req.target.empty() ||
            c.req.target[0] != '/') {
          fail_connection(c, 400, "malformed request line");
          return true;
        }
        if (version != "HTTP/1.1" && version != "HTTP/1.0") {
          fail_connection(c, 400, "unsupported HTTP version");
          return true;
        }
        c.keep_alive = version == "HTTP/1.1";
        for (std::size_t i = 1; i < lines.size(); ++i) {
          const std::string& line = lines[i];
          const std::size_t colon = line.find(':');
          if (colon == std::string::npos || colon == 0) {
            fail_connection(c, 400, "malformed header line");
            return true;
          }
          c.req.headers.emplace_back(lowercase(trim(line.substr(0, colon))),
                                     trim(line.substr(colon + 1)));
        }
        if (const std::string* conn_hdr = c.req.header("connection")) {
          const std::string v = lowercase(*conn_hdr);
          if (v == "close") c.keep_alive = false;
          if (v == "keep-alive") c.keep_alive = true;
        }
        if (c.req.header("transfer-encoding") != nullptr) {
          fail_connection(c, 501, "transfer-encoding not supported");
          return true;
        }
        c.content_length = 0;
        if (const std::string* cl = c.req.header("content-length")) {
          // strtoull accepts a leading sign (negating through wraparound),
          // so require a digit up front: "-5" must be 400, not a bogus
          // huge length.
          char* parse_end = nullptr;
          const unsigned long long v =
              std::strtoull(cl->c_str(), &parse_end, 10);
          if (cl->empty() ||
              !std::isdigit(static_cast<unsigned char>((*cl)[0])) ||
              parse_end == nullptr || *parse_end != '\0') {
            fail_connection(c, 400, "bad content-length");
            return true;
          }
          c.content_length = static_cast<std::size_t>(v);
        } else if (c.req.method == "POST" || c.req.method == "PUT") {
          fail_connection(c, 411, "content-length required");
          return true;
        }
        if (c.content_length > kMaxBodyBytes) {
          fail_connection(c, 413, "request body exceeds limit");
          return true;
        }
        c.have_headers = true;
      }
      if (c.in.size() < c.content_length) return true;  // need more bytes
      c.req.body = c.in.substr(0, c.content_length);
      c.in.erase(0, c.content_length);
      c.have_headers = false;
      Request complete = std::move(c.req);
      c.req = Request{};
      const bool keep = c.keep_alive;
      dispatch_request(conn_id, c, std::move(complete), keep);
      // loop: pipelined requests may already be buffered
    }
  }

  bool parse_binary(std::uint64_t conn_id, Connection& c) {
    for (;;) {
      if (c.stop_reading) return true;
      if (c.in.size() < kBinaryHeaderBytes) return true;
      const std::uint32_t len = read_u32le(
          reinterpret_cast<const unsigned char*>(c.in.data()));
      if (len > kMaxBodyBytes + 4096) {
        fail_connection(c, 413, "binary frame exceeds limit");
        return true;
      }
      if (c.in.size() < kBinaryHeaderBytes + len) return true;
      const std::string payload = c.in.substr(kBinaryHeaderBytes, len);
      c.in.erase(0, kBinaryHeaderBytes + len);
      Request req;
      try {
        BinaryRequest braw = decode_binary_request(payload);
        req.method = std::move(braw.method);
        req.target = std::move(braw.path);
        req.body = std::move(braw.body);
        req.binary = true;
      } catch (const WireError& e) {
        fail_connection(c, 400, e.what());
        return true;
      }
      dispatch_request(conn_id, c, std::move(req), /*keep_alive=*/true);
    }
  }

  // Returns false if the connection should be closed now.
  bool on_readable(std::uint64_t conn_id, Connection& c) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
        continue;
      }
      if (n == 0) return false;  // peer closed; drop any pending replies
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // hard socket error
    }
    return c.binary ? parse_binary(conn_id, c) : parse_http(conn_id, c);
  }

  bool on_writable(Connection& c) {
    while (!c.out.empty()) {
      const ssize_t n =
          ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // peer gone
    }
    return !(c.want_close && c.out.empty());
  }

  void accept_all(int listen_fd, bool binary) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      if (conns.size() >= kMaxConnections) {
        ::close(fd);
        continue;
      }
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Connection c;
      c.fd = fd;
      c.binary = binary;
      conns.emplace(next_conn_id++, std::move(c));
    }
  }

  void close_connection(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
  }

  void loop_main() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = special)
    for (;;) {
      process_outbox();

      const bool drain_now = draining.load(std::memory_order_acquire);
      if (drain_now) {
        // A connection is finished when every assigned response has
        // been encoded, ordered, and written to the socket.
        std::vector<std::uint64_t> done;
        for (auto& [id, c] : conns) {
          if (c.pending() == 0 && c.ready.empty() && c.out.empty()) {
            done.push_back(id);
          }
        }
        for (const std::uint64_t id : done) close_connection(id);
        if (conns.empty() && workers_idle()) return;
      }

      fds.clear();
      fd_conn.clear();
      fds.push_back({wake_read, POLLIN, 0});
      fd_conn.push_back(0);
      if (!drain_now) {
        if (http_fd >= 0) {
          fds.push_back({http_fd, POLLIN, 0});
          fd_conn.push_back(0);
        }
        if (bin_fd >= 0) {
          fds.push_back({bin_fd, POLLIN, 0});
          fd_conn.push_back(0);
        }
      }
      for (auto& [id, c] : conns) {
        short events = 0;
        if (!c.stop_reading && !drain_now) events |= POLLIN;
        if (!c.out.empty()) events |= POLLOUT;
        fds.push_back({c.fd, events, 0});
        fd_conn.push_back(id);
      }

      // Finite timeout: a lost wake byte must never stall a drain.
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
             drain_now ? 20 : 100);

      for (std::size_t i = 0; i < fds.size(); ++i) {
        const pollfd& p = fds[i];
        if (p.revents == 0) continue;
        if (p.fd == wake_read) {
          char buf[256];
          while (::read(wake_read, buf, sizeof(buf)) > 0) {
          }
          continue;
        }
        if (p.fd == http_fd && fd_conn[i] == 0) {
          accept_all(http_fd, /*binary=*/false);
          continue;
        }
        if (p.fd == bin_fd && fd_conn[i] == 0) {
          accept_all(bin_fd, /*binary=*/true);
          continue;
        }
        const std::uint64_t id = fd_conn[i];
        auto it = conns.find(id);
        if (it == conns.end()) continue;
        Connection& c = it->second;
        bool ok = true;
        if ((p.revents & (POLLERR | POLLNVAL)) != 0) ok = false;
        if (ok && (p.revents & (POLLIN | POLLHUP)) != 0 &&
            !c.stop_reading) {
          ok = on_readable(id, c);
        }
        if (ok && !c.out.empty()) ok = on_writable(c);
        if (ok && c.want_close && c.out.empty()) ok = false;
        if (!ok) close_connection(id);
      }
      // Responses may have been generated inline (parse failures) or
      // delivered while polling; give writable conns a push next tick.
    }
  }
};

// --- public API --------------------------------------------------------------

HttpServer::HttpServer(HttpServerOptions options, Dispatch dispatch)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
  impl_->dispatch = std::move(dispatch);
  impl_->owner = this;
}

HttpServer::~HttpServer() { drain(); }

bool HttpServer::start(std::string* error) {
  Impl& im = *impl_;
  if (im.started) return true;
  im.http_fd = make_listener(im.options.bind_address, im.options.http_port,
                             &http_port_resolved_, error);
  if (im.http_fd < 0) return false;
  if (im.options.binary_port >= 0) {
    im.bin_fd = make_listener(im.options.bind_address,
                              im.options.binary_port,
                              &binary_port_resolved_, error);
    if (im.bin_fd < 0) return false;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "pipe() failed";
    return false;
  }
  im.wake_read = pipe_fds[0];
  im.wake_write = pipe_fds[1];
  for (const int fd : pipe_fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  im.worker_threads.reserve(kWorkerThreads);
  for (int i = 0; i < kWorkerThreads; ++i) {
    im.worker_threads.emplace_back([this] { impl_->worker_main(); });
  }
  im.loop_thread = std::thread([this] { impl_->loop_main(); });
  im.started = true;
  return true;
}

void HttpServer::drain() {
  Impl& im = *impl_;
  if (!im.started || im.drained) return;
  im.drained = true;
  im.draining.store(true, std::memory_order_release);
  im.wake();
  // Join the LOOP first, workers second. The loop may still be mid-
  // iteration on events from a poll round that predates the draining
  // flag, and can parse + enqueue one more request from them; if the
  // workers were stopped first they could observe an empty queue and
  // exit just before that enqueue, leaving a task nobody will run — a
  // connection whose assigned response never flushes, and a drain that
  // never finishes. The loop's exit condition (all connections
  // flushed + worker queue dry + no busy workers) already guarantees
  // that by the time it returns, the still-running workers have
  // answered everything; only then is stopping them race-free.
  im.loop_thread.join();
  {
    MutexLock lock(im.task_mutex);
    im.workers_stop = true;
  }
  im.task_cv.notify_all();
  for (std::thread& t : im.worker_threads) t.join();
}

bool HttpServer::draining() const {
  return impl_->draining.load(std::memory_order_acquire);
}

void HttpServer::deliver(
    std::uint64_t conn_id, std::uint64_t seq, int status, std::string&& body,
    std::vector<std::pair<std::string, std::string>>&& extra_headers,
    bool binary) {
  (void)binary;  // encoding picked by the loop from connection state
  Impl& im = *impl_;
  {
    MutexLock lock(im.outbox_mutex);
    im.outbox.push_back(Impl::OutboxItem{conn_id, seq, status,
                                         std::move(body),
                                         std::move(extra_headers)});
  }
  im.wake();
}

void Responder::send(
    int status, std::string body,
    std::vector<std::pair<std::string, std::string>> extra_headers) const {
  if (server_ == nullptr) return;
  server_->deliver(conn_id_, seq_, status, std::move(body),
                   std::move(extra_headers), binary_);
}

}  // namespace dmf::serve
