#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/scheduler.h"
#include "service/json.h"
#include "util/cancel.h"
#include "util/strings.h"

namespace xqmft {

namespace {

struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string response;
  StatusCode code = StatusCode::kOk;
};

struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string rbuf;         // current partial request line
  bool discarding = false;  // overlong line: bytes dropped until newline
  std::string wbuf;         // pending response bytes
  std::size_t woff = 0;
  std::uint64_t next_seq = 0;      // request sequence numbers, per conn
  std::uint64_t next_to_send = 0;  // responses leave in request order
  std::map<std::uint64_t, std::string> ready;  // finished out of order
  std::map<std::uint64_t, std::shared_ptr<NetJob>> inflight;
  bool read_closed = false;  // client half-closed: deliver, then close
  std::uint32_t responses_sent = 0;
};

void CloseFd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

struct NetServer::Impl {
  explicit Impl(NetServerOptions opts)
      : options(std::move(opts)),
        service(options.cache, options.pipeline),
        handler(&service, MakeWireOptions()),
        retry_hint(options.retry_after_ms) {}

  WireOptions MakeWireOptions() {
    WireOptions wire;
    wire.limits = options.limits;
    wire.default_threads = options.default_threads;
    wire.allow_fault_injection = options.allow_fault_injection;
    wire.cmd_hook = [this](const std::string& cmd, const JsonValue* id,
                           std::string* out) {
      if (cmd != "server_stats") return false;
      AppendServerStats(id, out);
      return true;
    };
    wire.run_observer = [this](const StreamStats& total) {
      if (!total.used_ops_engine) {
        counters.table_runs.fetch_add(1);
      } else {
        counters.ops_runs.fetch_add(1);
      }
    };
    return wire;
  }

  // ---- configuration / execution ----
  NetServerOptions options;
  QueryService service;
  RequestHandler handler;

  // ---- listeners / wakeup ----
  int tcp_fd = -1;
  int unix_fd = -1;
  int bound_port = -1;
  int wake_rd = -1;
  int wake_wr = -1;
  bool started = false;

  // ---- connections (event-loop thread only) ----
  std::unordered_map<int, std::unique_ptr<Conn>> conns;       // by fd
  std::unordered_map<std::uint64_t, Conn*> conns_by_id;
  std::uint64_t next_conn_id = 1;
  // Admitted jobs whose completion has not been processed yet.
  std::uint64_t outstanding = 0;

  // ---- worker pool ----
  std::vector<std::thread> workers;
  Scheduler scheduler;
  RetryHint retry_hint;

  std::mutex comp_mu;
  std::vector<Completion> completions;

  // ---- shutdown ----
  std::atomic<bool> shutdown_requested{false};
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;

  // ---- counters: one atomic per XQMFT_NET_SERVER_COUNTERS entry ----
  struct Counters {
#define XQMFT_ATOMIC_COUNTER(name) std::atomic<std::uint64_t> name{0};
    XQMFT_NET_SERVER_COUNTERS(XQMFT_ATOMIC_COUNTER)
#undef XQMFT_ATOMIC_COUNTER
  } counters;

  // ---------------------------------------------------------------- setup

  Status Start();
  Status Run();
  void RequestShutdown();

  Status OpenTcp();
  Status OpenUnix();
  void WorkerMain();

  // ------------------------------------------------------------ event loop

  void AcceptAll(int listen_fd);
  // Every per-connection step returns false when it closed the connection
  // (the Conn* is then dangling).
  bool OnReadable(Conn* c);
  bool OnData(Conn* c, const char* data, std::size_t n);
  bool ProcessLine(Conn* c, std::string line);
  bool Deliver(Conn* c, std::uint64_t seq, std::string response);
  bool FlushWrites(Conn* c);
  bool MaybeFinish(Conn* c);  // graceful close after half-close drains
  void CloseConn(Conn* c, bool abort);
  void ProcessCompletions();
  NetServerCounters SnapshotCounters() const;
  void AppendServerStats(const JsonValue* id, std::string* out);
  void CountOutcome(StatusCode code);
  void BeginDrain();
  bool DrainComplete() const;
  bool ReadDelivered();
  void StopWorkers();
};

namespace {

// Every counter's JSON name, snapshot field, and live atomic, in list order.
struct CounterField {
  const char* name;
  std::uint64_t NetServerCounters::*value;
  std::atomic<std::uint64_t> NetServer::Impl::Counters::*live;
};

constexpr CounterField kCounterFields[] = {
#define XQMFT_COUNTER_FIELD(name) \
  {#name, &NetServerCounters::name, &NetServer::Impl::Counters::name},
    XQMFT_NET_SERVER_COUNTERS(XQMFT_COUNTER_FIELD)
#undef XQMFT_COUNTER_FIELD
};

}  // namespace

// ------------------------------------------------------------------ setup

Status NetServer::Impl::OpenTcp() {
  tcp_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (tcp_fd < 0) return Status::Internal("socket(AF_INET) failed");
  int one = 1;
  ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
  if (::inet_pton(AF_INET, options.tcp_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp_address: " + options.tcp_address);
  }
  if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal(
        StrFormat("cannot bind %s:%d: %s", options.tcp_address.c_str(),
                  options.tcp_port, std::strerror(errno)));
  }
  if (::listen(tcp_fd, 128) != 0) {
    return Status::Internal("listen failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(tcp_fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    bound_port = ntohs(addr.sin_port);
  }
  return Status::OK();
}

Status NetServer::Impl::OpenUnix() {
  sockaddr_un addr{};
  if (options.unix_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix_path too long");
  }
  unix_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (unix_fd < 0) return Status::Internal("socket(AF_UNIX) failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.unix_path.c_str(),
              options.unix_path.size() + 1);
  ::unlink(options.unix_path.c_str());
  if (::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal(StrFormat("cannot bind %s: %s",
                                      options.unix_path.c_str(),
                                      std::strerror(errno)));
  }
  if (::listen(unix_fd, 128) != 0) {
    return Status::Internal("listen failed");
  }
  return Status::OK();
}

Status NetServer::Impl::Start() {
  if (started) return Status::InvalidArgument("server already started");
  if (options.tcp_port < 0 && options.unix_path.empty()) {
    return Status::InvalidArgument(
        "server needs a TCP port and/or a unix socket path");
  }
  if (options.workers == 0) options.workers = 1;

  int p[2];
  if (::pipe2(p, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::Internal("pipe2 failed");
  }
  wake_rd = p[0];
  wake_wr = p[1];

  if (options.tcp_port >= 0) XQMFT_RETURN_NOT_OK(OpenTcp());
  if (!options.unix_path.empty()) XQMFT_RETURN_NOT_OK(OpenUnix());

  workers.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    workers.emplace_back([this] { WorkerMain(); });
  }
  started = true;
  return Status::OK();
}

void NetServer::Impl::RequestShutdown() {
  // Async-signal-safe: an atomic store and a pipe write, nothing else.
  shutdown_requested.store(true, std::memory_order_release);
  if (wake_wr >= 0) {
    char b = 'q';
    [[maybe_unused]] ssize_t n = ::write(wake_wr, &b, 1);
  }
}

// ---------------------------------------------------------------- workers

void NetServer::Impl::WorkerMain() {
  while (std::shared_ptr<NetJob> job = scheduler.Dequeue()) {
    Completion done;
    done.conn_id = job->conn_id;
    done.seq = job->seq;
    // A token tripped while the job sat queued (deadline counted from
    // admission, disconnect, forced shutdown) skips execution entirely —
    // no compile, no streaming, just the error response.
    Status pre = job->token.Check();
    if (!pre.ok()) {
      AppendErrorResponse(&done.response, job->json.Find("id"),
                          pre.ToString(), pre.code());
      done.code = pre.code();
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      done.code = handler.HandleParsed(job->json, &job->token, &done.response);
      retry_hint.Record(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    {
      std::lock_guard<std::mutex> lock(comp_mu);
      completions.push_back(std::move(done));
    }
    char b = 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_wr, &b, 1);
  }
}

void NetServer::Impl::StopWorkers() {
  scheduler.Stop();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
  workers.clear();
}

// ------------------------------------------------------------- event loop

void NetServer::Impl::AcceptAll(int listen_fd) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept failure: poll retries
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id++;
    conns_by_id[conn->id] = conn.get();
    conns[fd] = std::move(conn);
    counters.connections.fetch_add(1);
  }
}

bool NetServer::Impl::OnReadable(Conn* c) {
  char buf[16384];
  ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
  if (n > 0) return OnData(c, buf, static_cast<std::size_t>(n));
  if (n == 0) {
    // Half-close: the client is done sending; compute and deliver what is
    // pending, then close.
    c->read_closed = true;
    return MaybeFinish(c);
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
  CloseConn(c, /*abort=*/true);
  return false;
}

bool NetServer::Impl::OnData(Conn* c, const char* data, std::size_t n) {
  const std::size_t limit = options.limits.max_line_bytes;
  std::size_t i = 0;
  while (i < n) {
    const void* nl = std::memchr(data + i, '\n', n - i);
    if (nl == nullptr) {
      if (!c->discarding) {
        c->rbuf.append(data + i, n - i);
        if (limit != 0 && c->rbuf.size() > limit) {
          c->rbuf.clear();
          c->discarding = true;
        }
      }
      return true;
    }
    const std::size_t len =
        static_cast<std::size_t>(static_cast<const char*>(nl) - (data + i));
    bool overlong = c->discarding;
    c->discarding = false;
    if (!overlong) {
      c->rbuf.append(data + i, len);
      overlong = limit != 0 && c->rbuf.size() > limit;
    }
    std::string line = std::move(c->rbuf);
    c->rbuf.clear();
    bool alive;
    if (overlong) {
      counters.rejected_line_length.fetch_add(1);
      std::string resp;
      AppendOverlongLineResponse(&resp, limit);
      alive = Deliver(c, c->next_seq++, std::move(resp));
    } else {
      alive = ProcessLine(c, std::move(line));
    }
    if (!alive) return false;
    i += len + 1;
  }
  return true;
}

bool NetServer::Impl::ProcessLine(Conn* c, std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.find_first_not_of(" \t") == std::string::npos) return true;
  const std::uint64_t seq = c->next_seq++;
  auto reply = [&](ResponseWriter w) {
    std::string resp;
    w.FinishLine(&resp);
    return Deliver(c, seq, std::move(resp));
  };

  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return reply(ErrorResponse(nullptr, parsed.status().ToString(),
                               WireStatusString(parsed.status().code())));
  }
  JsonValue& json = parsed.value();
  if (!json.is_object()) {
    return reply(ErrorResponse(nullptr, "request must be a JSON object",
                               "invalid_argument"));
  }
  const JsonValue* id = json.Find("id");

  // cmd requests (stats polls, server_stats) are cheap and bypass
  // admission entirely: observability keeps working while the queue is
  // full — which is exactly when someone is polling it.
  if (json.Find("cmd") != nullptr) {
    counters.inline_cmds.fetch_add(1);
    std::string resp;
    handler.HandleParsed(json, nullptr, &resp);
    return Deliver(c, seq, std::move(resp));
  }

  // A malformed deadline is rejected, not ignored: silently dropping a
  // bad "deadline_ms" ("100" as a string, 0, a negative) would run the
  // request with no budget at all — the opposite of what the client asked
  // for. One above 2^53 cannot be cast to a count.
  const JsonValue* dl = json.Find("deadline_ms");
  if (dl != nullptr && (!dl->is_number() || dl->number <= 0 ||
                        dl->number > JsonValue::kMaxCount)) {
    counters.rejected_bad_request.fetch_add(1);
    return reply(ErrorResponse(
        id, "deadline_ms must be a positive number of at most 2^53",
        "bad_request"));
  }
  const double deadline_ms = dl != nullptr ? dl->number : 0.0;

  if (draining) {
    counters.rejected_shutdown.fetch_add(1);
    return reply(ErrorResponse(id, "server is shutting down", "shutting_down"));
  }

  const std::size_t depth = scheduler.queued();
  if (depth >= options.queue_limit) {
    counters.rejected_overload.fetch_add(1);
    ResponseWriter w = ErrorResponse(
        id, "server overloaded: request queue is full", "overloaded");
    w.Number("retry_after_ms", retry_hint.HintMs(depth));
    return reply(std::move(w));
  }

  auto job = std::make_shared<NetJob>();
  job->conn_id = c->id;
  job->seq = seq;
  job->json = std::move(json);
  // Deadline armed NOW, at admission: a request that waits out its budget
  // in the queue is dead on arrival at the worker, by design.
  if (deadline_ms > 0) {
    job->token.SetDeadlineAfterMs(static_cast<std::uint64_t>(deadline_ms));
  }
  c->inflight[seq] = job;
  ++outstanding;
  counters.admitted.fetch_add(1);
  scheduler.Enqueue(std::move(job));
  return true;
}

bool NetServer::Impl::Deliver(Conn* c, std::uint64_t seq,
                              std::string response) {
  c->ready[seq] = std::move(response);
  for (auto it = c->ready.find(c->next_to_send); it != c->ready.end();
       it = c->ready.find(c->next_to_send)) {
    if (options.fault_abort_conn_after_responses != 0 &&
        c->responses_sent + 1 >= options.fault_abort_conn_after_responses) {
      // The socket fault hook: the responses before this one leave first,
      // then the connection drops in place of this one.
      if (FlushWrites(c)) CloseConn(c, /*abort=*/true);
      return false;
    }
    c->wbuf += it->second;
    c->ready.erase(it);
    ++c->next_to_send;
    ++c->responses_sent;
  }
  if (!FlushWrites(c)) return false;
  if (c->wbuf.size() - c->woff > options.max_write_buffer_bytes) {
    counters.slow_client_closed.fetch_add(1);
    CloseConn(c, /*abort=*/true);
    return false;
  }
  return MaybeFinish(c);
}

bool NetServer::Impl::FlushWrites(Conn* c) {
  while (c->woff < c->wbuf.size()) {
    ssize_t n = ::send(c->fd, c->wbuf.data() + c->woff,
                       c->wbuf.size() - c->woff, MSG_NOSIGNAL);
    if (n > 0) {
      c->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(c, /*abort=*/true);
    return false;
  }
  c->wbuf.clear();
  c->woff = 0;
  return true;
}

bool NetServer::Impl::MaybeFinish(Conn* c) {
  if (c->read_closed && c->inflight.empty() && c->ready.empty() &&
      c->woff >= c->wbuf.size()) {
    CloseConn(c, /*abort=*/false);
    return false;
  }
  return true;
}

void NetServer::Impl::CloseConn(Conn* c, bool abort) {
  if (!c->inflight.empty()) {
    if (abort) {
      counters.disconnects_inflight.fetch_add(1);
    }
    // Nobody will read these responses; stop computing them. The jobs
    // still complete (quickly, via the cooperative checks) and their
    // completions are discarded on arrival.
    for (auto& [seq, job] : c->inflight) job->token.Cancel();
  }
  conns_by_id.erase(c->id);
  int fd = c->fd;
  conns.erase(fd);  // destroys *c
  if (fd >= 0) ::close(fd);
}

void NetServer::Impl::CountOutcome(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      counters.completed_ok.fetch_add(1);
      break;
    case StatusCode::kCancelled:
      counters.cancelled_runs.fetch_add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      counters.deadline_exceeded_runs.fetch_add(1);
      break;
    default:
      counters.failed.fetch_add(1);
      break;
  }
}

void NetServer::Impl::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(comp_mu);
    batch.swap(completions);
  }
  for (Completion& done : batch) {
    if (outstanding > 0) --outstanding;
    CountOutcome(done.code);
    auto it = conns_by_id.find(done.conn_id);
    if (it == conns_by_id.end()) continue;  // client gone: discard
    Conn* c = it->second;
    c->inflight.erase(done.seq);
    Deliver(c, done.seq, std::move(done.response));
  }
}

NetServerCounters NetServer::Impl::SnapshotCounters() const {
  // Load order matters for the snapshot's internal consistency: loading in
  // reverse list order reads every outcome BEFORE admitted, which the list
  // keeps ahead of them. Every outcome increment is preceded (in the
  // seq_cst total order) by its request's admitted increment, so reading
  // outcomes first guarantees
  //   admitted >= completed_ok + failed + cancelled_runs +
  //               deadline_exceeded_runs
  // in any single snapshot — independent relaxed loads could see an
  // outcome whose admission they miss.
  NetServerCounters out;
  for (std::size_t i = std::size(kCounterFields); i-- > 0;) {
    const CounterField& field = kCounterFields[i];
    out.*field.value = (counters.*field.live).load();
  }
  return out;
}

void NetServer::Impl::AppendServerStats(const JsonValue* id,
                                        std::string* out) {
  const NetServerCounters snap = SnapshotCounters();
  ResponseWriter server(nullptr);
  for (const CounterField& field : kCounterFields) {
    server.Number(field.name, snap.*field.value);
  }
  server.Number("queued", scheduler.queued());
  ResponseWriter w(id);
  w.Raw("ok", "true");
  w.Raw("server", server.Finish());
  w.FinishLine(out);
}

void NetServer::Impl::BeginDrain() {
  draining = true;
  drain_deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options.drain_ms);
  CloseFd(tcp_fd);
  CloseFd(unix_fd);
  if (!options.unix_path.empty()) ::unlink(options.unix_path.c_str());
}

bool NetServer::Impl::DrainComplete() const {
  if (outstanding != 0) return false;
  for (const auto& [fd, c] : conns) {
    if (c->woff < c->wbuf.size() || !c->ready.empty()) return false;
  }
  return true;
}

// Reads what every open connection has already delivered, so a request
// line sent before the drain ends gets its shutting_down answer instead of
// the reset a close with unread input sends. True when any connection had
// something to read (the drain then continues until that is answered).
bool NetServer::Impl::ReadDelivered() {
  std::vector<pollfd> pfds;
  for (auto& [fd, c] : conns) {
    if (!c->read_closed) pfds.push_back({fd, POLLIN, 0});
  }
  if (pfds.empty() ||
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 0) <= 0) {
    return false;
  }
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    auto it = conns.find(p.fd);
    if (it != conns.end()) OnReadable(it->second.get());
  }
  return true;
}

Status NetServer::Impl::Run() {
  if (!started) return Status::InvalidArgument("call Start() before Run()");
  std::vector<pollfd> pfds;
  std::vector<Conn*> pfd_conns;
  for (;;) {
    if (shutdown_requested.load(std::memory_order_acquire) && !draining) {
      BeginDrain();
    }
    if (draining) {
      if (DrainComplete() && !ReadDelivered()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        // Drain budget spent: cancel whatever is still running and leave.
        // The workers observe the cancelled tokens at their next check and
        // the remaining completions are discarded with the connections.
        for (auto& [fd, c] : conns) {
          for (auto& [seq, job] : c->inflight) job->token.Cancel();
        }
        break;
      }
    }

    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_rd, POLLIN, 0});
    pfd_conns.push_back(nullptr);
    if (tcp_fd >= 0) {
      pfds.push_back({tcp_fd, POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    if (unix_fd >= 0) {
      pfds.push_back({unix_fd, POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    for (auto& [fd, c] : conns) {
      short events = 0;
      const bool backpressured =
          c->wbuf.size() - c->woff > options.max_write_buffer_bytes / 2 ||
          c->inflight.size() >= options.max_inflight_per_conn;
      if (!c->read_closed && !backpressured) events |= POLLIN;
      if (c->woff < c->wbuf.size()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({fd, events, 0});
      pfd_conns.push_back(c.get());
    }

    const int timeout_ms = draining ? 20 : -1;
    int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                    timeout_ms);
    if (rc < 0 && errno != EINTR) {
      StopWorkers();
      return Status::Internal("poll failed");
    }

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const int fd = pfds[i].fd;
      if (fd == wake_rd) {
        char buf[256];
        while (::read(wake_rd, buf, sizeof(buf)) > 0) {}
        continue;
      }
      if (fd == tcp_fd || fd == unix_fd) {
        AcceptAll(fd);
        continue;
      }
      Conn* c = pfd_conns[i];
      // The connection may have been closed by an earlier event this
      // round; consult the live map, not the stale pointer.
      auto it = conns.find(fd);
      if (it == conns.end() || it->second.get() != c) continue;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still pending is delivered through
        // recv below on the next rounds; a bare HUP/ERR is an abort.
        if ((pfds[i].revents & POLLIN) == 0) {
          CloseConn(c, /*abort=*/true);
          continue;
        }
      }
      if (pfds[i].revents & POLLOUT) {
        if (!FlushWrites(c)) continue;
        if (!MaybeFinish(c)) continue;
      }
      if (pfds[i].revents & POLLIN) {
        if (!OnReadable(c)) continue;
      }
    }

    ProcessCompletions();
  }

  StopWorkers();
  // Late completions from the final jobs: count their outcomes, then drop
  // everything — the connections are going away.
  ProcessCompletions();
  std::vector<int> open_fds;
  open_fds.reserve(conns.size());
  for (auto& [fd, c] : conns) open_fds.push_back(fd);
  for (int fd : open_fds) {
    auto it = conns.find(fd);
    if (it != conns.end()) {
      FlushWrites(it->second.get());  // best effort, nonblocking
    }
    it = conns.find(fd);
    if (it != conns.end()) CloseConn(it->second.get(), /*abort=*/false);
  }
  CloseFd(tcp_fd);
  CloseFd(unix_fd);
  if (!options.unix_path.empty()) ::unlink(options.unix_path.c_str());
  return Status::OK();
}

// ------------------------------------------------------------------ facade

NetServer::NetServer(NetServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

NetServer::~NetServer() {
  if (impl_ == nullptr) return;
  impl_->StopWorkers();
  CloseFd(impl_->tcp_fd);
  CloseFd(impl_->unix_fd);
  CloseFd(impl_->wake_rd);
  CloseFd(impl_->wake_wr);
}

Status NetServer::Start() { return impl_->Start(); }
Status NetServer::Run() { return impl_->Run(); }
void NetServer::RequestShutdown() { impl_->RequestShutdown(); }
int NetServer::port() const { return impl_->bound_port; }
const std::string& NetServer::unix_path() const {
  return impl_->options.unix_path;
}

NetServerCounters NetServer::counters() const {
  return impl_->SnapshotCounters();
}

}  // namespace xqmft
