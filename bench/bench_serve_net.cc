// Latency-under-load for the socket front end (src/net/).
//
// An in-process NetServer on an ephemeral loopback port is driven by an
// OPEN-loop generator: requests are fired on a fixed schedule whatever the
// server's completion rate, and each latency is measured from the request's
// *scheduled* send time — so queueing delay (and coordinated omission) is
// part of the number, which is the whole point of serving benchmarks.
//
//   serve_net/open_loop/<R>rps/<C>conn
//       C persistent connections offering R requests/s in aggregate, each
//       request a cache-warm tiny-document query. Counters: p50_ms / p99_ms
//       (scheduled-send to response), req_per_s (completed ok over the
//       run's wall time), shed (overload rejections observed).
//   serve_net/overload/<R>rps
//       deliberately past capacity (1 worker, queue_limit 4): shows load
//       shedding doing its job — the shed counter is the product here, and
//       p99 stays bounded because rejected requests answer immediately
//       instead of queueing without bound.
//   serve_net/coalesce/<R>rps/window<W>ms
//       same-document load: every request streams one shared ~90 KB inline
//       document, offered past a single worker's independent capacity.
//       window0 is the uncoalesced baseline (every request re-tokenizes
//       the document); with the window on, the worker gathers queued
//       same-document requests into one shared multi-query pass. The
//       product is parses_per_req (document tokenizations per completed
//       request, from the server's parses_saved counter): 1.0 at window 0,
//       well under 1.0 with the window on — with p50/p99 alongside to show
//       the latency side of the trade.
//
// Environment knobs:
//   XQMFT_BENCH_NET_RATES    comma-separated open-loop rungs (default
//                            500,2000,8000)
//   XQMFT_BENCH_NET_CONNS    client connections (default 4)
//   XQMFT_BENCH_NET_WORKERS  server worker threads (default 2)
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/env.h"
#include "net/server.h"
#include "util/strings.h"

namespace xqmft {
namespace {

using Clock = std::chrono::steady_clock;

// One request: tiny inline document, cache-warm query. Small on purpose —
// the series measures the serving layer (admission, queueing, delivery),
// not stream throughput, which bench_service already covers.
std::string RequestLine(std::uint64_t id) {
  return StrFormat(
      "{\"id\":%llu,\"query\":\"<out>{$input//a}</out>\","
      "\"xml\":[\"<doc><a>1</a><b>2</b><a>3</a></doc>\"]}\n",
      static_cast<unsigned long long>(id));
}

// The coalescing rung's request: the SAME parse-heavy inline document on
// every request (that is what makes them coalescible), with a query that
// matches almost nothing so the cost is tokenization, not response bytes.
const std::string& CoalesceDoc() {
  static const std::string* doc = [] {
    auto* d = new std::string("<doc>");
    for (int i = 0; i < 8000; ++i) d->append("<b>filler</b>");
    d->append("<a>hit</a></doc>");
    return d;
  }();
  return *doc;
}

std::string CoalesceRequestLine(std::uint64_t id) {
  return StrFormat("{\"id\":%llu,\"query\":\"<out>{$input//a}</out>\","
                   "\"xml\":[\"%s\"]}\n",
                   static_cast<unsigned long long>(id),
                   CoalesceDoc().c_str());
}

// Minimal framed-protocol client: header line, then a "bytes":N payload
// frame when present (error and shed responses are header-only).
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      buf_ = std::move(other.buf_);
      other.fd_ = -1;
    }
    return *this;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static Client ConnectTcp(int port) {
    Client c;
    c.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd_ < 0) return c;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(c.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      c.Close();
    }
    return c;
  }

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one response (header + payload frame if any) into *header;
  /// payload bytes are consumed and discarded.
  bool ReadResponse(std::string* header) {
    if (!ReadLine(header)) return false;
    std::size_t pos = header->find("\"bytes\":");
    if (pos == std::string::npos) return true;
    std::size_t payload =
        static_cast<std::size_t>(std::atoll(header->c_str() + pos + 8));
    return Skip(payload + 1);  // payload plus its trailing newline
  }

 private:
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Fill() {
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (!Fill()) return false;
    }
  }

  bool Skip(std::size_t n) {
    while (buf_.size() < n) {
      if (!Fill()) return false;
    }
    buf_.erase(0, n);
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

struct LoadResult {
  std::vector<double> lat_ms;  ///< scheduled-send to response, ok only
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0.0;
};

/// Offers `total` requests at `rate`/s spread over `conns` connections.
/// Each connection pairs a pacing sender thread with a reader thread;
/// per-connection responses arrive in request order, so the reader matches
/// them FIFO against the sender's scheduled timestamps.
LoadResult RunLoad(int port, double rate, std::size_t total,
                   std::size_t conns,
                   std::string (*line)(std::uint64_t) = RequestLine) {
  struct ConnState {
    Client client;
    std::mutex mu;
    std::deque<Clock::time_point> scheduled;
    std::vector<double> lat_ms;
    std::uint64_t ok = 0, shed = 0, errors = 0;
    std::size_t count = 0;
  };
  std::vector<ConnState> states(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    states[c].client = Client::ConnectTcp(port);
    states[c].count = total / conns + (c < total % conns ? 1 : 0);
  }
  const std::chrono::duration<double> conn_interval(
      static_cast<double>(conns) / rate);
  const std::chrono::duration<double> stagger(1.0 / rate);
  const Clock::time_point start = Clock::now();

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    ConnState& st = states[c];
    if (!st.client.ok()) {
      st.errors += st.count;
      continue;
    }
    Clock::time_point first =
        start + std::chrono::duration_cast<Clock::duration>(
                    stagger * static_cast<double>(c));
    threads.emplace_back([&st, first, conn_interval, c, line]() {
      for (std::size_t i = 0; i < st.count; ++i) {
        Clock::time_point sched =
            first + std::chrono::duration_cast<Clock::duration>(
                        conn_interval * static_cast<double>(i));
        std::this_thread::sleep_until(sched);
        {
          std::lock_guard<std::mutex> lock(st.mu);
          st.scheduled.push_back(sched);
        }
        if (!st.client.Send(line(c * 1000000 + i))) {
          ++st.errors;
          return;
        }
      }
    });
    threads.emplace_back([&st]() {
      std::string header;
      for (std::size_t i = 0; i < st.count; ++i) {
        if (!st.client.ReadResponse(&header)) {
          st.errors += st.count - i;
          return;
        }
        Clock::time_point sched;
        {
          std::lock_guard<std::mutex> lock(st.mu);
          sched = st.scheduled.front();
          st.scheduled.pop_front();
        }
        double ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              sched)
                        .count();
        if (header.find("\"ok\":true") != std::string::npos) {
          ++st.ok;
          st.lat_ms.push_back(ms);
        } else if (header.find("overloaded") != std::string::npos) {
          ++st.shed;
        } else {
          ++st.errors;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult result;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (ConnState& st : states) {
    result.ok += st.ok;
    result.shed += st.shed;
    result.errors += st.errors;
    result.lat_ms.insert(result.lat_ms.end(), st.lat_ms.begin(),
                         st.lat_ms.end());
  }
  return result;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct NetCfg {
  std::size_t conns;
  std::size_t workers;
  std::size_t queue_limit;
};

void BenchServeNet(benchmark::State& state, double rate, NetCfg cfg) {
  NetServerOptions options;
  options.tcp_port = 0;
  options.workers = cfg.workers;
  options.queue_limit = cfg.queue_limit;
  NetServer server(options);
  Status st = server.Start();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  std::thread serving([&server]() {
    Status run = server.Run();
    (void)run;
  });

  // Warm the plan cache so measured requests are all cache hits; the first
  // request's compile would otherwise dominate the low-rate rungs.
  {
    Client warm = Client::ConnectTcp(server.port());
    std::string header;
    if (!warm.ok() || !warm.Send(RequestLine(0)) ||
        !warm.ReadResponse(&header)) {
      state.SkipWithError("warm-up request failed");
      server.RequestShutdown();
      serving.join();
      return;
    }
  }

  // ~0.5s of offered load per iteration, with a floor so low rungs still
  // collect enough samples for a meaningful p99.
  const std::size_t total =
      std::max<std::size_t>(200, static_cast<std::size_t>(rate / 2));
  LoadResult sum;
  for (auto _ : state) {
    LoadResult one = RunLoad(server.port(), rate, total, cfg.conns);
    sum.ok += one.ok;
    sum.shed += one.shed;
    sum.errors += one.errors;
    sum.elapsed_s += one.elapsed_s;
    sum.lat_ms.insert(sum.lat_ms.end(), one.lat_ms.begin(),
                      one.lat_ms.end());
  }
  server.RequestShutdown();
  serving.join();

  if (sum.errors > 0) {
    state.SkipWithError(
        StrFormat("%llu requests errored",
                  static_cast<unsigned long long>(sum.errors))
            .c_str());
    return;
  }
  std::sort(sum.lat_ms.begin(), sum.lat_ms.end());
  state.counters["p50_ms"] = Percentile(sum.lat_ms, 0.50);
  state.counters["p99_ms"] = Percentile(sum.lat_ms, 0.99);
  state.counters["req_per_s"] =
      sum.elapsed_s > 0.0 ? static_cast<double>(sum.ok) / sum.elapsed_s : 0.0;
  state.counters["shed"] = static_cast<double>(sum.shed);
  state.SetItemsProcessed(static_cast<int64_t>(sum.ok));
}

/// The same-document coalescing rung: one worker, a deep queue (the point
/// is coalescing, not shedding), parse-heavy identical requests offered
/// past the worker's uncoalesced capacity. Runs with the given gather
/// window; parses_per_req comes from the server's own counters (delta over
/// the measured iterations, so the warm-up request is excluded).
void BenchServeNetCoalesce(benchmark::State& state, double rate,
                           std::uint64_t window_ms) {
  NetServerOptions options;
  options.tcp_port = 0;
  options.workers = 1;
  options.queue_limit = 256;
  options.batch_window_ms = window_ms;
  options.batch_max = 16;
  NetServer server(options);
  Status st = server.Start();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  std::thread serving([&server]() {
    Status run = server.Run();
    (void)run;
  });

  {
    Client warm = Client::ConnectTcp(server.port());
    std::string header;
    if (!warm.ok() || !warm.Send(CoalesceRequestLine(0)) ||
        !warm.ReadResponse(&header)) {
      state.SkipWithError("warm-up request failed");
      server.RequestShutdown();
      serving.join();
      return;
    }
  }

  const NetServerCounters before = server.counters();
  const std::size_t total =
      std::max<std::size_t>(400, static_cast<std::size_t>(rate / 2));
  LoadResult sum;
  for (auto _ : state) {
    LoadResult one =
        RunLoad(server.port(), rate, total, /*conns=*/4, CoalesceRequestLine);
    sum.ok += one.ok;
    sum.shed += one.shed;
    sum.errors += one.errors;
    sum.elapsed_s += one.elapsed_s;
    sum.lat_ms.insert(sum.lat_ms.end(), one.lat_ms.begin(),
                      one.lat_ms.end());
  }
  const NetServerCounters after = server.counters();
  server.RequestShutdown();
  serving.join();

  if (sum.errors > 0) {
    state.SkipWithError(
        StrFormat("%llu requests errored",
                  static_cast<unsigned long long>(sum.errors))
            .c_str());
    return;
  }
  std::sort(sum.lat_ms.begin(), sum.lat_ms.end());
  state.counters["p50_ms"] = Percentile(sum.lat_ms, 0.50);
  state.counters["p99_ms"] = Percentile(sum.lat_ms, 0.99);
  state.counters["req_per_s"] =
      sum.elapsed_s > 0.0 ? static_cast<double>(sum.ok) / sum.elapsed_s : 0.0;
  state.counters["shed"] = static_cast<double>(sum.shed);
  const std::uint64_t ok_runs = after.completed_ok - before.completed_ok;
  const std::uint64_t saved = after.parses_saved - before.parses_saved;
  state.counters["parses_saved"] = static_cast<double>(saved);
  // Every request carries exactly one document, so uncoalesced parses per
  // completed request is 1.0 by construction and coalescing subtracts
  // parses_saved from the numerator.
  state.counters["parses_per_req"] =
      ok_runs > 0 ? static_cast<double>(ok_runs - saved) /
                        static_cast<double>(ok_runs)
                  : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(sum.ok));
}

void RegisterAll() {
  std::size_t conns = EnvCount("XQMFT_BENCH_NET_CONNS", 4);
  std::size_t workers = EnvCount("XQMFT_BENCH_NET_WORKERS", 2);
  std::vector<double> rates;
  const char* renv = std::getenv("XQMFT_BENCH_NET_RATES");
  std::string spec = renv != nullptr ? renv : "500,2000,8000";
  for (std::size_t pos = 0; pos < spec.size();) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    double r = std::atof(spec.substr(pos, comma - pos).c_str());
    if (r > 0) rates.push_back(r);
    pos = comma + 1;
  }

  for (double rate : rates) {
    NetCfg cfg{conns, workers, /*queue_limit=*/64};
    benchmark::RegisterBenchmark(
        StrFormat("serve_net/open_loop/%drps/%zuconn",
                  static_cast<int>(rate), conns)
            .c_str(),
        [rate, cfg](benchmark::State& st) { BenchServeNet(st, rate, cfg); })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  // Past-capacity rung: one worker, a 4-deep queue, 20k offered — the
  // point is the shed counter and a p99 that stays flat because rejections
  // answer immediately.
  NetCfg overload{conns, /*workers=*/1, /*queue_limit=*/4};
  benchmark::RegisterBenchmark(
      "serve_net/overload/20000rps",
      [overload](benchmark::State& st) {
        BenchServeNet(st, 20000.0, overload);
      })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  // Same-document coalescing: identical rungs with the gather window off
  // (the uncoalesced baseline) and on, so the BENCH artifact carries the
  // parses_per_req and tail-latency delta side by side.
  for (std::uint64_t window_ms : {std::uint64_t{0}, std::uint64_t{4}}) {
    benchmark::RegisterBenchmark(
        StrFormat("serve_net/coalesce/3000rps/window%llums",
                  static_cast<unsigned long long>(window_ms))
            .c_str(),
        [window_ms](benchmark::State& st) {
          BenchServeNetCoalesce(st, 3000.0, window_ms);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace xqmft

int main(int argc, char** argv) {
  xqmft::RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
