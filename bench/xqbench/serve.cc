// The `serve` workload: an open loop over TCP against an in-process
// NetServer. One generator thread drives every connection from a poll()
// loop on a fixed schedule, and each request is timed from its scheduled
// send time, so queueing delay counts. Threads: the generator, the server's
// event loop and two workers.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <thread>

#include "bench_common/queries.h"
#include "frozen.h"
#include "net/server.h"
#include "service/json.h"
#include "util/rng.h"
#include "util/strings.h"
#include "xqbench.h"

namespace xqbench {
namespace {

using xqmft::Status;
using PlanPtr = std::shared_ptr<const xqmft::CompiledPlan>;

constexpr std::size_t kKiB = 1024;
constexpr double kLatencyLimitMs = 50.0;
constexpr double kLateLimitMs = 1.0;
// The latency sample of a request that failed, was shed or never answered:
// far over the limit, as the latency metrics count it.
constexpr double kFailedLatencyMs = 100 * kLatencyLimitMs;
constexpr double kDrainSeconds = 5.0;
constexpr std::size_t kConnections = 4;

// Sixteen XMark documents, 32 KiB to 1 MiB in equal ratio steps. Zipf(1)
// picks a rank; the rank names a document through this fixed shuffle, so
// the hot documents are neither all small nor all large.
constexpr std::size_t kDocs = 16;
constexpr std::size_t kRankToDoc[kDocs] = {5, 10, 2,  13, 7, 0, 15, 8,
                                           3, 11, 1, 14, 6, 9, 4, 12};
constexpr std::size_t kCopyMaxBytes = 256 * kKiB;

// Query indices: the six selective Figure 3 queries, the three copy
// queries, then the q01 variant whose person literal names nobody.
const char* const kQueryIds[] = {"q01", "q02",    "q04",      "q13",    "q16",
                                 "q17", "double", "fourstar", "deepdup"};
constexpr std::size_t kSelective = 6;
constexpr std::size_t kCopies = 3;
constexpr std::size_t kVariant = kSelective + kCopies;
constexpr std::size_t kQueries = kVariant + 1;

// q01 with its person literal replaced; every literal the mix uses names
// no generated person, so all variants answer like `person`.
std::string Q01Variant(std::uint64_t person) {
  std::string text = xqmft::QueryById("q01").text;
  const std::string from = "\"person0\"";
  text.replace(text.find(from), from.size(),
               "\"person" + std::to_string(person) + "\"");
  return text;
}
constexpr std::uint64_t kSentinelPerson = 999999999;
constexpr std::uint64_t kFirstVariantPerson = 100000000;

std::string QueryText(std::size_t q) {
  return q == kVariant ? Q01Variant(kSentinelPerson)
                       : std::string(xqmft::QueryById(kQueryIds[q]).text);
}

struct Request {
  enum class State { kPending, kOk, kShed, kError, kMismatch };

  std::string line;
  std::string id;
  std::size_t doc = 0;
  std::vector<std::size_t> queries;  // one per answer; three for the batch
  bool batch = false;
  Clock::time_point sched;

  State state = State::kPending;
  std::size_t answers = 0;
  bool answer_failed = false;
  double latency_ms = 0, late_ms = 0;
  double compile_ms = 0, stream_ms = 0;
  double sharers = 1;  // requests that shared the streaming pass
  std::size_t hits = 0, lookups = 0;
  std::string error;  // the server's message, for failed requests
  std::vector<double> miss_compile_ms;
};

struct Serve {
  std::vector<Doc> docs;
  // Expected payload hash per (query, document); 0 where the mix never
  // sends the pair.
  std::vector<std::uint64_t> want;
  std::uint64_t next_variant = kFirstVariantPerson;

  std::uint64_t Want(std::size_t q, std::size_t d) const {
    return want[q * docs.size() + d];
  }
};

std::string RequestLine(const Request& r, const Serve& s,
                        const std::vector<std::string>& texts) {
  std::string line = "{\"id\":";
  xqmft::AppendJsonString(&line, r.id);
  if (r.batch) {
    line += ",\"queries\":[";
    for (std::size_t k = 0; k < r.queries.size(); ++k) {
      line += k == 0 ? "{\"id\":" : ",{\"id\":";
      xqmft::AppendJsonString(&line, r.id + "." + std::to_string(k));
      line += ",\"query\":";
      xqmft::AppendJsonString(&line, texts[k]);
      line += "}";
    }
    line += "]";
  } else {
    line += ",\"query\":";
    xqmft::AppendJsonString(&line, texts.front());
  }
  line += ",\"inputs\":[";
  xqmft::AppendJsonString(&line, s.docs[r.doc].path);
  line += "]}\n";
  return line;
}

// The request mix of one rung, drawn from the run's seed and the rung:
// 70% one selective query, 15% one copy query on a document of at most
// 256 KiB, 10% the "queries" form with three selective queries, 5% a q01
// variant that misses the plan cache. Documents by Zipf(1).
std::vector<Request> MakeRequests(Serve* s, std::uint64_t seed,
                                  std::size_t rung, std::size_t n) {
  xqmft::Rng rng(seed * 1000003 + rung);
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t k = 1; k <= kDocs; ++k) {
    total += 1.0 / static_cast<double>(k);
    cdf.push_back(total);
  }
  auto zipf_doc = [&](bool copy) {
    for (;;) {
      const double u = rng.NextDouble() * total;
      const std::size_t rank =
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      const std::size_t d = kRankToDoc[std::min(rank, kDocs - 1)];
      if (!copy || s->docs[d].bytes <= kCopyMaxBytes) return d;
    }
  };
  std::vector<Request> reqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.id = xqmft::StrFormat("r%zu.%zu", rung, i);
    const std::uint64_t kind = rng.Below(100);
    std::vector<std::string> texts;
    if (kind < 70) {
      r.queries = {static_cast<std::size_t>(rng.Below(kSelective))};
    } else if (kind < 85) {
      r.queries = {kSelective + static_cast<std::size_t>(rng.Below(kCopies))};
    } else if (kind < 95) {
      r.batch = true;
      std::vector<std::size_t> pool = {0, 1, 2, 3, 4, 5};
      for (std::size_t k = 0; k < 3; ++k) {
        std::swap(pool[k], pool[k + rng.Below(kSelective - k)]);
        r.queries.push_back(pool[k]);
      }
    } else {
      r.queries = {kVariant};
      texts.push_back(Q01Variant(s->next_variant++));
    }
    r.doc = zipf_doc(r.queries.front() >= kSelective &&
                     r.queries.front() < kVariant);
    if (texts.empty()) {
      for (std::size_t q : r.queries) texts.push_back(QueryText(q));
    }
    r.line = RequestLine(r, *s, texts);
  }
  return reqs;
}

// One client connection: non-blocking, with an outgoing buffer and an
// incremental response parser. Responses on a connection arrive in request
// order, so the front of `pending` is always the request being answered.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::Internal("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::Internal("connect() to the server failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return Status::OK();
  }

  int fd() const { return fd_; }
  bool wants_write() const { return out_off_ < out_.size(); }
  std::deque<std::size_t>& pending() { return pending_; }

  void Queue(const std::string& line) { out_ += line; }

  Status Flush() {
    while (out_off_ < out_.size()) {
      ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                         MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) return Status::Internal("send() to the server failed");
      out_off_ += static_cast<std::size_t>(n);
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return Status::OK();
  }

  // Reads at most one chunk and feeds it through the parser; `on_line` gets
  // each response header with the FNV-1a hash of its payload (if any).
  // Bounded work per call keeps the generator's sends on schedule.
  template <typename F>
  Status ReadChunk(F on_line) {
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::OK();
    }
    if (n <= 0) return Status::Internal("the server closed a connection");
    std::string_view data(buf, static_cast<std::size_t>(n));
    while (!data.empty()) {
      if (payload_left_ > 0) {
        // The payload, then its trailing newline, which is not hashed.
        std::size_t take = std::min(payload_left_, data.size());
        std::size_t hashed = std::min(take, payload_left_ - 1);
        payload_hash_ = Fnv1a(data.substr(0, hashed), payload_hash_);
        payload_left_ -= take;
        data.remove_prefix(take);
        if (payload_left_ == 0) {
          XQMFT_RETURN_NOT_OK(on_line(header_, payload_hash_));
        }
        continue;
      }
      std::size_t nl = data.find('\n');
      header_buf_.append(data.substr(0, nl));
      if (nl == std::string_view::npos) break;
      data.remove_prefix(nl + 1);
      xqmft::Result<xqmft::JsonValue> header = xqmft::ParseJson(header_buf_);
      header_buf_.clear();
      if (!header.ok()) {
        return Status::Internal("unparseable response header: " +
                                header.status().ToString());
      }
      header_ = std::move(header).value();
      const xqmft::JsonValue* ok = header_.Find("ok");
      const xqmft::JsonValue* bytes = header_.Find("bytes");
      if (ok != nullptr && ok->boolean && bytes != nullptr &&
          header_.Find("batch") == nullptr) {
        payload_left_ = static_cast<std::size_t>(bytes->number) + 1;
        payload_hash_ = kFnvOffset;
      } else {
        XQMFT_RETURN_NOT_OK(on_line(header_, 0));
      }
    }
    return Status::OK();
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::deque<std::size_t> pending_;
  std::string header_buf_;
  xqmft::JsonValue header_;
  std::size_t payload_left_ = 0;
  std::uint64_t payload_hash_ = kFnvOffset;
};

double Number(const xqmft::JsonValue& j, const char* key) {
  const xqmft::JsonValue* v = j.Find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

std::string String(const xqmft::JsonValue& j, const char* key) {
  const xqmft::JsonValue* v = j.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

// Applies one response line to the request it answers; returns true when
// the request is complete.
bool Answer(const Serve& s, Request* r, const xqmft::JsonValue& j,
            std::uint64_t payload_hash) {
  const std::string id = String(j, "id");
  const xqmft::JsonValue* ok_field = j.Find("ok");
  const bool ok = ok_field != nullptr && ok_field->boolean;
  const bool request_level = id == r->id;
  if (!request_level) {
    // One answer of the "queries" form.
    if (!r->batch || r->answers >= r->queries.size() ||
        id != r->id + "." + std::to_string(r->answers)) {
      r->answer_failed = true;
      r->state = Request::State::kError;
      return false;
    }
  }
  if (!ok) {
    r->error = String(j, "error");
    if (!request_level) {
      r->answer_failed = true;
      ++r->answers;
      return false;
    }
    r->state = String(j, "status") == "overloaded" ? Request::State::kShed
                                                    : Request::State::kError;
    return true;
  }
  if (r->batch && request_level) {
    // The batch summary closes the request.
    r->stream_ms = Number(j, "stream_ms");
    if (r->state == Request::State::kPending) {
      r->state = r->answer_failed || r->answers != r->queries.size()
                     ? Request::State::kError
                     : Request::State::kOk;
    }
    return true;
  }
  const std::size_t q = r->queries[r->batch ? r->answers : 0];
  ++r->lookups;
  if (String(j, "cache") == "hit") {
    ++r->hits;
  } else {
    r->miss_compile_ms.push_back(Number(j, "compile_ms"));
  }
  r->compile_ms += Number(j, "compile_ms");
  if (payload_hash != s.Want(q, r->doc)) r->state = Request::State::kMismatch;
  if (r->batch) {
    ++r->answers;
    return false;
  }
  r->stream_ms = Number(j, "stream_ms");
  r->sharers = std::max(1.0, Number(j, "coalesced"));
  if (r->state == Request::State::kPending) r->state = Request::State::kOk;
  return true;
}

// Server counter deltas over the segments of a rung.
struct ServerDelta {
  std::uint64_t completed_ok = 0, coalesced_requests = 0, parses_saved = 0,
                ops_runs = 0, hybrid_runs = 0, table_runs = 0, shed = 0;

  void Add(const xqmft::NetServerCounters& a,
           const xqmft::NetServerCounters& b) {
    completed_ok += b.completed_ok - a.completed_ok;
    coalesced_requests += b.coalesced_requests - a.coalesced_requests;
    parses_saved += b.parses_saved - a.parses_saved;
    ops_runs += b.ops_runs - a.ops_runs;
    hybrid_runs += b.hybrid_runs - a.hybrid_runs;
    table_runs += b.table_runs - a.table_runs;
    shed += b.rejected_overload - a.rejected_overload;
  }
};

// The requests offered at one rate, in one or more segments, and their
// summary (Summarize).
struct Rung {
  double rate = 0, seconds = 0;
  std::vector<Request> reqs;
  std::size_t backlog_end = 0;  // at the last send; the largest segment's
  bool backlog_grew = false;    // in any segment (see OfferLoad)
  ServerDelta server;

  std::size_t ok = 0, shed = 0, errors = 0, mismatches = 0;
  double p50 = 0, p99 = 0, late_p99 = 0;
  double ok_mib = 0;  // document MiB of requests answered correctly
  double ok_busy_ms = 0;  // worker time they took, shared passes split
  bool valid = false, pass = false;

  std::size_t failures() const { return shed + errors + mismatches; }
};

// Offers `reqs` at `rate` per second, round-robin over the connections,
// waits for every answer, and appends the answered requests to `rung`.
Status OfferLoad(const Serve& s, std::vector<std::unique_ptr<Conn>>& conns,
                 std::vector<Request> reqs, double rate, Tracer* tracer,
                 const xqmft::NetServer& server, Rung* rung) {
  const xqmft::NetServerCounters before = server.counters();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].sched = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) / rate));
  }
  // Little's law: within the latency limit, about rate x limit requests are
  // in flight. The backlog grows when, at the last send, it is above that
  // (plus one per connection) and above what it was halfway through.
  const std::size_t backlog_limit =
      static_cast<std::size_t>(std::ceil(rate * kLatencyLimitMs / 1e3)) +
      kConnections;
  std::size_t next = 0, done = 0, backlog_mid = 0;
  Clock::time_point last_send = start;
  std::vector<pollfd> pfds(conns.size());
  while (done < reqs.size()) {
    Clock::time_point now = Clock::now();
    while (next < reqs.size() && reqs[next].sched <= now) {
      Conn& c = *conns[next % conns.size()];
      c.Queue(reqs[next].line);
      c.pending().push_back(next);
      reqs[next].late_ms = MsBetween(reqs[next].sched, now);
      if (++next == reqs.size() / 2) backlog_mid = next - done;
      if (next == reqs.size()) {
        const std::size_t backlog = next - done;
        rung->backlog_end = std::max(rung->backlog_end, backlog);
        rung->backlog_grew |= backlog > backlog_limit && backlog > backlog_mid;
        last_send = now;
      }
    }
    for (auto& c : conns) XQMFT_RETURN_NOT_OK(c->Flush());
    if (next == reqs.size() && Seconds(last_send, now) > kDrainSeconds) {
      return Status::Internal("requests still unanswered after the drain");
    }
    std::chrono::nanoseconds wait = std::chrono::milliseconds(10);
    if (next < reqs.size()) {
      wait = std::max(std::chrono::nanoseconds(0),
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          reqs[next].sched - now));
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = {conns[i]->fd(),
                 static_cast<short>(POLLIN |
                                    (conns[i]->wants_write() ? POLLOUT : 0)),
                 0};
    }
    timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                static_cast<long>(wait.count() % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
        errno != EINTR) {
      return Status::Internal("ppoll() failed");
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = *conns[i];
      XQMFT_RETURN_NOT_OK(c.ReadChunk(
          [&](const xqmft::JsonValue& j, std::uint64_t hash) -> Status {
            if (c.pending().empty()) {
              return Status::Internal("a response nobody asked for");
            }
            Request& r = reqs[c.pending().front()];
            if (!Answer(s, &r, j, hash)) return Status::OK();
            const Clock::time_point end = Clock::now();
            r.latency_ms = MsBetween(r.sched, end);
            tracer->Add(r.batch ? "request/batch" : "request", r.sched, end,
                        0, rung->reqs.size() + c.pending().front() + 1);
            c.pending().pop_front();
            ++done;
            return Status::OK();
          }));
    }
  }
  rung->server.Add(before, server.counters());
  rung->rate = rate;
  rung->seconds += static_cast<double>(reqs.size()) / rate;
  for (Request& r : reqs) rung->reqs.push_back(std::move(r));
  return Status::OK();
}

void Summarize(const Serve& s, Rung* rung) {
  std::vector<double> lat, late;
  for (const Request& r : rung->reqs) {
    late.push_back(r.late_ms);
    switch (r.state) {
      case Request::State::kOk:
        ++rung->ok;
        rung->ok_mib += static_cast<double>(s.docs[r.doc].bytes) / 1048576.0;
        rung->ok_busy_ms += r.compile_ms + r.stream_ms / r.sharers;
        break;
      case Request::State::kShed: ++rung->shed; break;
      case Request::State::kError:
        if (rung->errors++ < 3) {
          std::fprintf(stderr, "xqbench: request %s failed: %s\n",
                       r.id.c_str(), r.error.c_str());
        }
        break;
      case Request::State::kMismatch: ++rung->mismatches; break;
      case Request::State::kPending: break;  // OfferLoad drained them all
    }
    lat.push_back(r.state == Request::State::kOk ? r.latency_ms
                                                 : kFailedLatencyMs);
  }
  rung->p50 = Percentile(lat, 0.50);
  rung->p99 = Percentile(lat, 0.99);
  rung->late_p99 = Percentile(late, 0.99);
  rung->valid = rung->late_p99 <= kLateLimitMs;
  rung->pass = rung->valid && rung->failures() == 0 &&
               rung->p99 <= kLatencyLimitMs && !rung->backlog_grew;
}

// Folds a summarized rung into the run's counts. Sheds count as failures
// only where the load is meant to be served (`count_shed`); above that,
// shedding is how the ladder finds the limit. A wrong payload is an output
// check that failed.
void Account(const Rung& r, bool count_shed, RunResult* out) {
  out->attempted += r.reqs.size();
  out->failed += r.errors + r.mismatches + (count_shed ? r.shed : 0);
  if (r.mismatches > 0) {
    out->Problem(xqmft::StrFormat(
        "wrong payloads at %.0f req/s: %zu differ from the expected output",
        r.rate, r.mismatches));
  }
}

std::string RungJson(const Rung& r) {
  return xqmft::StrFormat(
      "{\"rate_rps\":%.1f,\"seconds\":%.3f,\"sent\":%zu,\"ok\":%zu,"
      "\"shed\":%zu,\"errors\":%zu,\"mismatches\":%zu,\"p50_ms\":%.4f,"
      "\"p99_ms\":%.4f,\"late_p99_ms\":%.4f,\"backlog_end\":%zu,"
      "\"backlog_grew\":%s,\"valid\":%s,\"pass\":%s}",
      r.rate, r.seconds, r.reqs.size(), r.ok, r.shed, r.errors, r.mismatches,
      r.p50, r.p99, r.late_p99, r.backlog_end,
      r.backlog_grew ? "true" : "false", r.valid ? "true" : "false",
      r.pass ? "true" : "false");
}

void PrintRung(const char* label, const Rung& r) {
  std::printf(
      "  rung %-8s %7.1f req/s  sent %5zu  ok %5zu  shed %3zu  failed %3zu  "
      "p50 %8.3f ms  p99 %8.3f ms  late_p99 %6.3f ms  backlog %3zu%s  %s\n",
      label, r.rate, r.reqs.size(), r.ok, r.shed, r.errors + r.mismatches,
      r.p50, r.p99, r.late_p99, r.backlog_end,
      r.backlog_grew ? " growing" : "",
      !r.valid ? "INVALID (generator late)" : r.pass ? "pass" : "fail");
}

// The server-side view of one rung, from response headers and counters.
void ReportServerLayers(const Rung& rung, RunResult* out) {
  std::size_t hits = 0, lookups = 0;
  std::vector<double> miss_compile, stream, wait;
  for (const Request& r : rung.reqs) {
    if (r.state != Request::State::kOk) continue;
    hits += r.hits;
    lookups += r.lookups;
    miss_compile.insert(miss_compile.end(), r.miss_compile_ms.begin(),
                        r.miss_compile_ms.end());
    stream.push_back(r.stream_ms);
    wait.push_back(r.latency_ms - r.compile_ms - r.stream_ms);
  }
  auto share = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  const ServerDelta& d = rung.server;
  const double completed = static_cast<double>(d.completed_ok);
  out->Set("service.cache_hit_ratio",
           share(static_cast<double>(hits), static_cast<double>(lookups)),
           "ratio");
  out->Set("service.compile_ms_p50", Median(miss_compile), "ms");
  out->Set("service.stream_ms_p50", Percentile(stream, 0.50), "ms");
  out->Set("service.stream_ms_p99", Percentile(stream, 0.99), "ms");
  out->Set("net.wait_ms_p50", Percentile(wait, 0.50), "ms");
  out->Set("net.wait_ms_p99", Percentile(wait, 0.99), "ms");
  out->Set("net.coalesced_share",
           share(static_cast<double>(d.coalesced_requests), completed),
           "ratio");
  // Every request names one document, so without coalescing each completed
  // request parses once.
  out->Set("net.parses_per_req",
           share(completed - static_cast<double>(d.parses_saved), completed),
           "ratio");
  out->Set("net.ops_runs", static_cast<double>(d.ops_runs), "count");
  out->Set("net.hybrid_runs", static_cast<double>(d.hybrid_runs), "count");
  out->Set("net.table_runs", static_cast<double>(d.table_runs), "count");
  out->Set("net.shed", static_cast<double>(d.shed), "count");
  out->Set("loadgen.late_ms_p99", rung.late_p99, "ms");
  out->Set("loadgen.backlog_end", static_cast<double>(rung.backlog_end),
           "count");
}

// The rate where the ladder's p99 crosses the limit: linear between the
// last rung that passed and the first that failed, so a host a little
// slower moves it a little, not by a whole rung. Rungs above the first
// failure do not count, and an invalid rung (late generator) gives no
// verdict either way. A ladder that passes throughout reports its top rate;
// one whose lowest valid rung fails reports that rate scaled by
// limit / p99, so the estimate stays positive.
double MaxRate(const std::vector<Rung>& rungs) {
  const Rung* passed = nullptr;
  for (const Rung& r : rungs) {
    if (!r.valid) continue;
    if (r.pass) {
      passed = &r;
      continue;
    }
    if (passed == nullptr) {
      return r.rate * std::min(1.0, kLatencyLimitMs / r.p99);
    }
    if (r.p99 <= kLatencyLimitMs) return passed->rate;  // failed otherwise
    return passed->rate + (r.rate - passed->rate) *
                              (kLatencyLimitMs - passed->p99) /
                              (r.p99 - passed->p99);
  }
  return passed != nullptr ? passed->rate : rungs.front().rate;
}

xqmft::NetServerOptions ServerOptions() {
  xqmft::NetServerOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  options.queue_limit = 64;
  options.batch_window_ms = 2;
  options.batch_max = 8;
  return options;
}

// Runs the server's event loop on its own thread for the object's
// lifetime; shutdown and join happen on every exit path.
class ServerThread {
 public:
  explicit ServerThread(xqmft::NetServer* server)
      : server_(server), thread_([this] { status_ = server_->Run(); }) {}
  ~ServerThread() {
    server_->RequestShutdown();
    thread_.join();
    if (!status_.ok()) {
      std::fprintf(stderr, "xqbench: the server's loop failed: %s\n",
                   status_.ToString().c_str());
    }
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  xqmft::NetServer* server_;
  Status status_;
  std::thread thread_;
};

}  // namespace

Status RunServeWorkload(const RunConfig& cfg, RunResult* out) {
  Serve s;
  for (std::size_t i = 0; i < kDocs; ++i) {
    const double kib = 32.0 * std::pow(32.0, static_cast<double>(i) /
                                                 (kDocs - 1));
    XQMFT_ASSIGN_OR_RETURN(
        Doc doc, MakeDoc(xqmft::DatasetKind::kXmark,
                         static_cast<std::size_t>(kib) * kKiB, cfg.seed,
                         xqmft::StrFormat("serve%02zu", i), out));
    s.docs.push_back(doc);
  }
  XQMFT_ASSIGN_OR_RETURN(Doc oracle_doc,
                         MakeDoc(xqmft::DatasetKind::kXmark, 128 * kKiB,
                                 cfg.seed, "xmark_128KiB", out));

  // Set-up: compile every plan the mix uses, then start the server.
  std::vector<std::string> texts, ids;
  for (std::size_t q = 0; q < kQueries; ++q) {
    texts.push_back(QueryText(q));
    ids.push_back(q == kVariant ? "q01-variant" : kQueryIds[q]);
  }
  std::vector<double> setups;
  auto setup_sample = [&](std::vector<PlanPtr>* plans) -> Status {
    XQMFT_ASSIGN_OR_RETURN(double compile_s, CompilePlans(texts, plans));
    xqmft::NetServer server(ServerOptions());
    const Clock::time_point t0 = Clock::now();
    XQMFT_RETURN_NOT_OK(server.Start());
    setups.push_back(compile_s + Seconds(t0, Clock::now()));
    return Status::OK();
  };
  std::vector<PlanPtr> plans;
  XQMFT_RETURN_NOT_OK(setup_sample(&plans));

  // Expected payloads, from the in-process engine (which the oracle below
  // checks against the reference evaluator).
  s.want.assign(kQueries * kDocs, 0);
  for (std::size_t q = 0; q < kQueries; ++q) {
    for (std::size_t d = 0; d < kDocs; ++d) {
      const bool copy = q >= kSelective && q < kVariant;
      if (copy && s.docs[d].bytes > kCopyMaxBytes) continue;
      HashSink hash;
      XQMFT_RETURN_NOT_OK(plans[q]->StreamFile(s.docs[d].path, &hash));
      s.want[q * kDocs + d] = hash.hash();
    }
  }

  xqmft::NetServer server(ServerOptions());
  XQMFT_RETURN_NOT_OK(server.Start());
  Tracer off(false);
  Tracer tracer(cfg.trace);
  {
    ServerThread serving(&server);
    std::vector<std::unique_ptr<Conn>> conns;
    for (std::size_t i = 0; i < kConnections; ++i) {
      conns.push_back(std::make_unique<Conn>());
      XQMFT_RETURN_NOT_OK(conns.back()->Connect(server.port()));
    }
    // Warm the plan cache: every fixed query once, on the smallest document.
    std::vector<Request> warm(kVariant);
    for (std::size_t q = 0; q < kVariant; ++q) {
      Request& r = warm[q];
      r.id = xqmft::StrFormat("warm%zu", q);
      r.queries = {q};
      r.line = RequestLine(r, s, {texts[q]});
    }
    Rung warm_rung;
    XQMFT_RETURN_NOT_OK(OfferLoad(s, conns, std::move(warm), 200, &off,
                                  server, &warm_rung));
    Summarize(s, &warm_rung);
    Account(warm_rung, true, out);

    // `stream` names the request draw: ladder rung i draws stream i, the
    // segments of the nominal rung 100 + k, the traced run 200 + k.
    auto offer = [&](std::size_t stream, double rate, double seconds,
                     Tracer* t, Rung* rung) -> Status {
      XQMFT_RETURN_NOT_OK(OfferLoad(
          s, conns,
          MakeRequests(&s, cfg.seed, stream,
                       static_cast<std::size_t>(rate * seconds)),
          rate, t, server, rung));
      std::vector<PlanPtr> scratch;
      return setup_sample(&scratch);
    };
    const double nominal_rate =
        cfg.smoke ? 100 : kServeRungsRps[kNominalRung];
    if (cfg.trace) {
      // The nominal rate in alternating segments without and with spans.
      const int pairs = cfg.smoke ? 1 : 4;
      const double seg_s = cfg.smoke ? 1 : cfg.seconds / (2 * pairs);
      Rung plain, traced;
      for (int k = 0; k < pairs; ++k) {
        XQMFT_RETURN_NOT_OK(offer(200 + 2 * k, nominal_rate, seg_s, &off,
                                  &plain));
        XQMFT_RETURN_NOT_OK(offer(201 + 2 * k, nominal_rate, seg_s, &tracer,
                                  &traced));
      }
      for (Rung* r : {&plain, &traced}) {
        Summarize(s, r);
        Account(*r, true, out);
      }
      PrintRung("plain", plain);
      PrintRung("traced", traced);
      ReportServerLayers(traced, out);
      out->Set("trace.overhead_ratio", traced.p50 / plain.p50, "ratio");
    } else {
      // The ladder ascends; the nominal rung runs in one segment before
      // each other rung, so its latency sample spans the whole run instead
      // of one stretch of it (the host's slow periods last seconds).
      std::vector<double> rates(std::begin(kServeRungsRps),
                                std::end(kServeRungsRps));
      std::size_t nominal = kNominalRung;
      if (cfg.smoke) {
        rates = {nominal_rate};
        nominal = 0;
      }
      const std::size_t others = rates.size() - 1;
      const std::size_t segments = std::max<std::size_t>(others, 1);
      const double nominal_s = cfg.smoke ? 1 : cfg.seconds / 3;
      const double rung_s =
          others == 0 ? 0 : (cfg.seconds - nominal_s) / others;
      std::vector<Rung> rungs(rates.size());
      for (std::size_t k = 0; k < segments; ++k) {
        XQMFT_RETURN_NOT_OK(offer(100 + k, nominal_rate, nominal_s / segments,
                                  &off, &rungs[nominal]));
        if (others == 0) continue;
        const std::size_t i = k < nominal ? k : k + 1;  // the k-th other rung
        XQMFT_RETURN_NOT_OK(offer(i, rates[i], rung_s, &off, &rungs[i]));
      }
      out->Set("peak_rss_MB", PeakRssMb(), "MB");
      out->Set("setup_s", Median(setups), "s");
      out->extra_json = "\"rungs\":[";
      for (std::size_t i = 0; i < rates.size(); ++i) {
        Rung& r = rungs[i];
        Summarize(s, &r);
        PrintRung(i == nominal ? "nominal" : "", r);
        out->extra_json += (i == 0 ? "" : ",") + RungJson(r);
        Account(r, i <= nominal, out);
      }
      out->extra_json += "]";
      const Rung& nom = rungs[nominal];
      out->Set("lat_p50_ms", nom.p50, "ms");
      out->Set("lat_p99_ms", nom.p99, "ms");
      out->Set("max_rate_rps", MaxRate(rungs), "req/s");
      // The workers' rate through the mix: document MiB answered per second
      // of worker time (the server's own compile_ms + stream_ms, a shared
      // pass split among its members), times the workers. Continuous, unlike
      // the rung that bounds max_rate_rps.
      double mib = 0, busy_ms = 0;
      for (const Rung& r : rungs) {
        mib += r.ok_mib;
        busy_ms += r.ok_busy_ms;
      }
      out->Set("throughput_MBps",
               busy_ms == 0 ? 0.0
                            : static_cast<double>(ServerOptions().workers) *
                                  mib / (busy_ms / 1e3),
               "MB/s");
    }
  }

  if (cfg.trace) {
    XQMFT_RETURN_NOT_OK(ProbeLayers(texts, plans, s.docs,
                                    cfg.smoke ? 1 : 20, &tracer, out));
  }
  // The oracle: every plan of the mix on a small document, against the
  // reference evaluator.
  std::vector<std::string> streamed;
  for (const PlanPtr& plan : plans) {
    xqmft::StringSink sink;
    XQMFT_RETURN_NOT_OK(plan->StreamFile(oracle_doc.path, &sink));
    streamed.push_back(sink.str());
  }
  CheckAgainstReference(ids, plans, streamed, oracle_doc, out);
  if (tracer.on() && !cfg.trace_out.empty()) {
    XQMFT_RETURN_NOT_OK(tracer.WriteChrome(cfg.trace_out));
  }
  return Status::OK();
}

}  // namespace xqbench
