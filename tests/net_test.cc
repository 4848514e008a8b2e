// Tests for the hardened serving stack (src/net/ + the robustness layers
// under it): the engines' cancelled-run contract (sticky status, populated
// stats, no output past the last committed byte — pinned for both cores),
// deadline trips mid-document within tolerance, the FaultInjectingSource
// matrix, the transport-independent wire layer's limits and deadline
// arming, the stdin ServeLoop's hardening, and the NetServer itself:
// admission control with exact shed counts, disconnect-cancels-run,
// graceful-drain ordering, backpressure limits, per-request fault
// isolation, and pipelined in-order responses. The suite runs under the
// tsan preset, so the timing assertions widen under that sanitizer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "net/scheduler.h"
#include "net/server.h"
#include "plan_util.h"
#include "service/fault.h"
#include "service/json.h"
#include "service/serve.h"
#include "service/wire.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

#if defined(__SANITIZE_THREAD__)
#define XQMFT_NET_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XQMFT_NET_TEST_TSAN 1
#endif
#endif

namespace xqmft {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

// Timing tolerances: the acceptance bound (deadline + 50ms) holds on a
// plain build; sanitizers slow the cooperative checks enough to need slack.
#ifdef XQMFT_NET_TEST_TSAN
constexpr double kDeadlineToleranceMs = 2000.0;
#else
constexpr double kDeadlineToleranceMs = 50.0;
#endif

const char kQuery[] = "<out>{$input//a}</out>";
const char kSmallDoc[] = "<doc><a>1</a><b>2</b><a>3</a></doc>";
const char kSmallOut[] = "<out><a>1</a><a>3</a></out>";

// A document with `n` hits: big enough values keep a run streaming long
// past any deadline or cancel point the tests arm.
std::string BigDoc(int n) {
  std::string doc = "<doc>";
  for (int i = 0; i < n; ++i) doc += "<a>payload-payload</a>";
  doc += "</doc>";
  return doc;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  Clock::time_point start = Clock::now();
  while (!pred()) {
    if (ElapsedMs(start) > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Engine cancelled-run contract (both cores)
// ---------------------------------------------------------------------------

// Mid-stream explicit cancel, driven push-mode so the trip point is exact:
// the status is sticky, Finish still fills stats, and the sink holds
// exactly the bytes committed before the trip — nothing is pumped,
// replayed, or flushed afterwards.
void CheckCancelledRunContract(EngineChoice choice, bool expect_ops) {
  auto plan = CompiledPlan::Compile(kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  StreamOptions options;
  options.engine = choice;
  CancelToken token;
  options.cancel_check_events = 1;  // trip at the very next event

  StringSink sink;
  Engine engine(plan.value()->mft(), &sink, options, &token);
  const std::string doc = BigDoc(500);
  StringSource source(doc);
  SaxParser parser(&source);
  parser.BindSymbols(engine.symbols());

  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent event;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(parser.Next(&event).ok());
    ASSERT_TRUE(engine.Feed(event).ok()) << "event " << i;
  }
  const std::string committed = sink.str();
  EXPECT_FALSE(committed.empty());  // streaming already emitted hits

  token.Cancel();
  ASSERT_TRUE(parser.Next(&event).ok());
  Status tripped = engine.Feed(event);
  EXPECT_EQ(tripped.code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.str(), committed);

  // Sticky: further feeds return the same status and emit nothing.
  ASSERT_TRUE(parser.Next(&event).ok());
  EXPECT_EQ(engine.Feed(event).code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.str(), committed);

  // Finish keeps the status, fills stats, and does not flush past the
  // last committed byte.
  StreamStats stats;
  EXPECT_EQ(engine.Finish(&stats).code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.str(), committed);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_EQ(stats.output_events, engine.output_events());
  EXPECT_EQ(stats.used_ops_engine, expect_ops);
}

TEST(EngineCancelContractTest, TableMachineStopsAtCommittedByte) {
  CheckCancelledRunContract(EngineChoice::kTable, /*expect_ops=*/false);
}

TEST(EngineCancelContractTest, OpsEngineStopsAtCommittedByte) {
  CheckCancelledRunContract(EngineChoice::kOps, /*expect_ops=*/true);
}

TEST(EngineCancelContractTest, ExpiredDeadlineTripsAsDeadlineExceeded) {
  for (EngineChoice choice : {EngineChoice::kTable, EngineChoice::kOps}) {
    auto plan = CompiledPlan::Compile(kQuery);
    ASSERT_TRUE(plan.ok());
    StreamOptions options;
    options.engine = choice;
    CancelToken token;
    token.SetDeadlineAfterMs(0);  // already expired: first check trips
    options.cancel_check_events = 1;
    StringSink sink;
    StreamStats stats;
    Status st = StreamMftString(plan.value()->mft(), BigDoc(300), &sink,
                                options, &stats, &token);
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
    // The run aborted well before consuming the input.
    EXPECT_LT(stats.bytes_in, BigDoc(300).size());
  }
}

TEST(DeadlineTest, TripsMidDocumentWithinTolerance) {
  // A document that streams far longer than the deadline; the run must
  // abort within deadline + tolerance, with the output incomplete.
  auto plan = CompiledPlan::Compile(kQuery);
  ASSERT_TRUE(plan.ok());
  const std::string doc = BigDoc(200000);  // ~3.6 MB

  StringSink full;
  ASSERT_TRUE(StreamMftString(plan.value()->mft(), doc, &full).ok());

  constexpr std::uint64_t kDeadlineMs = 10;
  CancelToken token;
  token.SetDeadlineAfterMs(kDeadlineMs);
  StringSink sink;
  Clock::time_point start = Clock::now();
  Status st =
      StreamMftString(plan.value()->mft(), doc, &sink, {}, nullptr, &token);
  double elapsed = ElapsedMs(start);

  if (st.ok()) {
    // The whole run beat the deadline — a machine that fast cannot
    // demonstrate a trip on this document; nothing to assert.
    GTEST_SKIP() << "document streamed in " << elapsed << "ms";
  }
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, kDeadlineMs + kDeadlineToleranceMs);
  EXPECT_LT(sink.str().size(), full.str().size());
}

// ---------------------------------------------------------------------------
// FaultInjectingSource
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, ParsesKindNames) {
  FaultSpec::Kind kind;
  EXPECT_TRUE(ParseFaultKind("none", &kind));
  EXPECT_EQ(kind, FaultSpec::Kind::kNone);
  EXPECT_TRUE(ParseFaultKind("truncate", &kind));
  EXPECT_EQ(kind, FaultSpec::Kind::kTruncate);
  EXPECT_TRUE(ParseFaultKind("error", &kind));
  EXPECT_EQ(kind, FaultSpec::Kind::kError);
  EXPECT_TRUE(ParseFaultKind("stall", &kind));
  EXPECT_EQ(kind, FaultSpec::Kind::kStall);
  EXPECT_FALSE(ParseFaultKind("explode", &kind));
}

TEST(FaultInjectionTest, TruncateTurnsTheTailIntoEndOfDocument) {
  StringSource source(kSmallDoc);
  SaxParser parser(&source);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kTruncate;
  spec.at_event = 3;
  FaultInjectingSource faulty(&parser, spec);

  XmlEvent event;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(faulty.Next(&event).ok());
    EXPECT_NE(event.type, XmlEventType::kEndOfDocument) << "event " << i;
  }
  ASSERT_TRUE(faulty.Next(&event).ok());
  EXPECT_EQ(event.type, XmlEventType::kEndOfDocument);
  EXPECT_EQ(faulty.events_produced(), 4u);
}

TEST(FaultInjectionTest, ErrorSurfacesAtTheChosenEvent) {
  StringSource source(kSmallDoc);
  SaxParser parser(&source);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kError;
  spec.at_event = 2;
  FaultInjectingSource faulty(&parser, spec);

  XmlEvent event;
  ASSERT_TRUE(faulty.Next(&event).ok());
  ASSERT_TRUE(faulty.Next(&event).ok());
  Status st = faulty.Next(&event);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("injected source fault"), std::string::npos);
}

TEST(FaultInjectionTest, StallDelaysOnceAndPassesThrough) {
  const std::string want = [&] {
    StringSource source(kSmallDoc);
    SaxParser parser(&source);
    std::string events;
    XmlEvent event;
    do {
      EXPECT_TRUE(parser.Next(&event).ok());
      events += static_cast<char>('0' + static_cast<int>(event.type));
    } while (event.type != XmlEventType::kEndOfDocument);
    return events;
  }();

  StringSource source(kSmallDoc);
  SaxParser parser(&source);
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kStall;
  spec.at_event = 1;
  spec.stall_ms = 60;
  FaultInjectingSource faulty(&parser, spec);

  Clock::time_point start = Clock::now();
  std::string events;
  XmlEvent event;
  do {
    ASSERT_TRUE(faulty.Next(&event).ok());
    events += static_cast<char>('0' + static_cast<int>(event.type));
  } while (event.type != XmlEventType::kEndOfDocument);
  EXPECT_GE(ElapsedMs(start), 60.0);
  EXPECT_EQ(events, want);  // a stall reorders nothing
}

// ---------------------------------------------------------------------------
// Wire layer (transport-independent request handling)
// ---------------------------------------------------------------------------

std::string HandleOne(RequestHandler* handler, const std::string& line,
                      StatusCode* code = nullptr) {
  std::string out;
  StatusCode c = handler->HandleLine(line, nullptr, &out);
  if (code != nullptr) *code = c;
  return out;
}

TEST(WireTest, StatusTokensAreStable) {
  EXPECT_STREQ(WireStatusString(StatusCode::kOk), "ok");
  EXPECT_STREQ(WireStatusString(StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(WireStatusString(StatusCode::kCancelled), "cancelled");
  EXPECT_STREQ(WireStatusString(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(WireStatusString(StatusCode::kUnavailable), "unavailable");
}

TEST(WireTest, InlineXmlBytesAreCapped) {
  QueryService service;
  WireOptions options;
  options.limits.max_inline_xml_bytes = 16;
  RequestHandler handler(&service, options);
  StatusCode code;
  std::string out = HandleOne(
      &handler,
      std::string("{\"query\":\"<o>{$input/a}</o>\",\"xml\":[\"") +
          "<doc><a>oversized-document</a></doc>" + "\"]}",
      &code);
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  EXPECT_NE(out.find("inline \\\"xml\\\" documents exceed"),
            std::string::npos);
  EXPECT_NE(out.find("\"status\":\"invalid_argument\""), std::string::npos);
}

TEST(WireTest, FaultFieldRequiresOptIn) {
  QueryService service;
  RequestHandler handler(&service, WireOptions{});
  StatusCode code;
  std::string out = HandleOne(
      &handler,
      "{\"query\":\"<o/>\",\"xml\":[\"<a/>\"],"
      "\"fault\":{\"kind\":\"stall\",\"stall_ms\":10}}",
      &code);
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  EXPECT_NE(out.find("fault injection is disabled"), std::string::npos);
}

TEST(WireTest, DeadlineAbortsAStalledRequest) {
  QueryService service;
  WireOptions options;
  options.allow_fault_injection = true;
  RequestHandler handler(&service, options);
  // The stall holds the stream well past the deadline; the next
  // cooperative check after it trips.
  StatusCode code;
  std::string out = HandleOne(
      &handler,
      "{\"id\":7,\"query\":\"<out>{$input//a}</out>\","
      "\"xml\":[\"" + BigDoc(300) + "\"],"
      "\"deadline_ms\":20,"
      "\"fault\":{\"kind\":\"stall\",\"at_event\":1,\"stall_ms\":120}}",
      &code);
  EXPECT_EQ(code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(out.find("\"id\":7"), std::string::npos);
  EXPECT_NE(out.find("\"status\":\"deadline_exceeded\""), std::string::npos);
}

TEST(WireTest, BatchDeadlineCoversEveryEntry) {
  QueryService service;
  WireOptions options;
  options.limits.max_line_bytes = 0;        // the document IS the line
  options.limits.max_inline_xml_bytes = 0;  // and the payload
  RequestHandler handler(&service, options);
  // A batch over a document big enough that a 1ms budget cannot finish it:
  // the shared pump trips and every live entry reports the deadline.
  std::string line = "{\"queries\":[{\"query\":\"<a>{$input//a}</a>\","
                     "\"id\":1},{\"query\":\"<b>{$input//b}</b>\",\"id\":2}],"
                     "\"xml\":[\"" + BigDoc(200000) + "\"],\"deadline_ms\":1}";
  StatusCode code;
  std::string out = HandleOne(&handler, line, &code);
  if (code == StatusCode::kOk) {
    GTEST_SKIP() << "batch finished inside 1ms";
  }
  EXPECT_EQ(code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(out.find("\"id\":1,\"ok\":false"), std::string::npos);
  EXPECT_NE(out.find("\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(out.find("deadline_exceeded"), std::string::npos);
}

TEST(WireTest, BatchRunsAtTheDefaultThreadCount) {
  // A "queries" batch over several documents runs under the handler's
  // default worker count, and its responses do not depend on it.
  std::string line = "{\"queries\":[{\"query\":\"<a>{$input//a}</a>\","
                     "\"id\":1},{\"query\":\"<b>{$input//b}</b>\",\"id\":2}],"
                     "\"xml\":[";
  for (int d = 0; d < 4; ++d) {
    if (d != 0) line += ",";
    line += "\"<doc><a>" + std::to_string(d) + "</a><b>x</b></doc>\"";
  }
  line += "]}";
  std::string want;
  for (std::size_t threads : {1u, 3u}) {
    QueryService service;
    WireOptions options;
    options.default_threads = threads;
    RequestHandler handler(&service, options);
    StatusCode code;
    std::string out = HandleOne(&handler, line, &code);
    ASSERT_EQ(code, StatusCode::kOk) << out;
    // Payloads only: the headers carry timings.
    std::string payloads;
    for (std::size_t pos = 0; (pos = out.find("\n<", pos)) !=
                              std::string::npos;) {
      const std::size_t end = out.find('\n', pos + 1);
      payloads += out.substr(pos + 1, end - pos);
      pos = end;
    }
    EXPECT_NE(payloads.find("<a><a>0</a></a><a><a>1</a></a><a><a>2</a></a>"
                            "<a><a>3</a></a>"),
              std::string::npos)
        << out;
    if (threads == 1) want = payloads;
    EXPECT_EQ(payloads, want) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Stdin ServeLoop hardening
// ---------------------------------------------------------------------------

std::string ServeOnce(const std::string& input, const ServeOptions& options) {
  std::FILE* in = ::fmemopen(const_cast<char*>(input.data()), input.size(),
                             "r");
  EXPECT_NE(in, nullptr);
  char* out_data = nullptr;
  std::size_t out_size = 0;
  std::FILE* out = ::open_memstream(&out_data, &out_size);
  EXPECT_NE(out, nullptr);
  Status st = ServeLoop(in, out, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::fclose(in);
  std::fclose(out);
  std::string result(out_data, out_size);
  std::free(out_data);
  return result;
}

TEST(ServeLoopTest, OverlongLineIsRejectedWithoutKillingTheSession) {
  ServeOptions options;
  options.limits.max_line_bytes = 256;
  std::string input(500, 'x');  // far past the limit, not even JSON
  input += "\n";
  input += "{\"query\":\"<out>{$input//a}</out>\",\"xml\":[\"" +
           std::string(kSmallDoc) + "\"]}\n";
  std::string out = ServeOnce(input, options);
  // First response rejects the oversized line; the session continues and
  // the second request succeeds.
  EXPECT_NE(out.find("exceeds the 256-byte limit"), std::string::npos);
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out.find(kSmallOut), std::string::npos);
}

TEST(ServeLoopTest, InlineXmlCapAppliesOnStdin) {
  ServeOptions options;
  options.limits.max_inline_xml_bytes = 8;
  std::string out = ServeOnce(
      "{\"query\":\"<o/>\",\"xml\":[\"<doc><a>123</a></doc>\"]}\n", options);
  EXPECT_NE(out.find("\"status\":\"invalid_argument\""), std::string::npos);
}

TEST(ServeLoopTest, DeadlineMsAbortsAStalledRequest) {
  ServeOptions options;
  options.allow_fault_injection = true;
  std::string out = ServeOnce(
      "{\"query\":\"<out>{$input//a}</out>\",\"xml\":[\"" + BigDoc(300) +
          "\"],\"deadline_ms\":15,"
          "\"fault\":{\"kind\":\"stall\",\"at_event\":1,\"stall_ms\":90}}\n",
      options);
  EXPECT_NE(out.find("\"status\":\"deadline_exceeded\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// NetServer
// ---------------------------------------------------------------------------

// Parses the integer value of `key` out of a response header.
std::uint64_t HeaderCount(const std::string& header, const std::string& key) {
  std::size_t pos = header.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  pos += key.size() + 3;
  std::uint64_t n = 0;
  while (pos < header.size() && header[pos] >= '0' && header[pos] <= '9') {
    n = n * 10 + static_cast<std::uint64_t>(header[pos++] - '0');
  }
  return n;
}

// A blocking test client over one socket, with just enough response-frame
// awareness to read interleaved successes (header + payload) and errors.
class TestClient {
 public:
  TestClient() = default;
  explicit TestClient(int fd) : fd_(fd) {}
  TestClient(TestClient&& other) noexcept
      : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  static TestClient ConnectTcp(int port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return TestClient();
    }
    return TestClient(fd);
  }

  static TestClient ConnectUnix(const std::string& path) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return TestClient();
    }
    return TestClient(fd);
  }

  bool ok() const { return fd_ >= 0; }

  void Send(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // server closed on us: the test asserts via reads
      }
      off += static_cast<std::size_t>(n);
    }
  }

  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  // Abort: RST on close, so the server sees a hard disconnect rather than
  // an orderly half-close.
  void AbortClose() {
    struct linger lg {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

  bool ReadLine(std::string* line) {
    line->clear();
    for (;;) {
      std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      if (!Fill()) return false;
    }
  }

  bool ReadBytes(std::size_t n, std::string* out) {
    while (buf_.size() < n) {
      if (!Fill()) return false;
    }
    *out = buf_.substr(0, n);
    buf_.erase(0, n);
    return true;
  }

  struct WireResponse {
    std::string header;
    std::string payload;  // successful query responses only
  };

  // Reads one framed response: the JSON header line, plus `bytes` payload
  // bytes and their trailing newline when the header announces them.
  bool ReadResponse(WireResponse* r) {
    r->payload.clear();
    if (!ReadLine(&r->header)) return false;
    if (r->header.find("\"bytes\":") == std::string::npos) return true;
    const std::size_t n = HeaderCount(r->header, "bytes");
    std::string body;
    if (!ReadBytes(n + 1, &body)) return false;  // payload + newline
    r->payload = body.substr(0, n);
    return true;
  }

  std::string ReadAll() {
    while (Fill()) {}
    std::string all = std::move(buf_);
    buf_.clear();
    return all;
  }

 private:
  bool Fill() {
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or reset
    }
  }

  int fd_ = -1;
  std::string buf_;
};

// Starts the server on an ephemeral loopback port and runs its event loop
// on a background thread; the destructor drains and joins.
class ServerFixture {
 public:
  explicit ServerFixture(NetServerOptions options)
      : server_(PrepareOptions(std::move(options))) {
    Status st = server_.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    thread_ = std::thread([this] { run_status_ = server_.Run(); });
  }

  ~ServerFixture() { Join(); }

  // Requests shutdown (if not already done) and waits for Run to return.
  Status Join() {
    if (thread_.joinable()) {
      server_.RequestShutdown();
      thread_.join();
    }
    return run_status_;
  }

  NetServer& server() { return server_; }
  TestClient Connect() { return TestClient::ConnectTcp(server_.port()); }

 private:
  static NetServerOptions PrepareOptions(NetServerOptions options) {
    if (options.tcp_port < 0 && options.unix_path.empty()) {
      options.tcp_port = 0;  // ephemeral loopback
    }
    return options;
  }

  NetServer server_;
  std::thread thread_;
  Status run_status_;
};

std::string SimpleRequest(int id) {
  return "{\"id\":" + std::to_string(id) + ",\"query\":\"" + kQuery +
         "\",\"xml\":[\"" + kSmallDoc + "\"]}\n";
}

// A request whose run holds a worker busy for `stall_ms` (fault injection
// must be enabled server-side). The document carries enough events after
// the stall that a cancelled token is observed by the cooperative checks.
std::string StallRequest(int id, int stall_ms) {
  return "{\"id\":" + std::to_string(id) + ",\"query\":\"" + kQuery +
         "\",\"xml\":[\"" + BigDoc(200) +
         "\"],\"fault\":{\"kind\":\"stall\",\"at_event\":1,\"stall_ms\":" +
         std::to_string(stall_ms) + "}}\n";
}

TEST(NetServerTest, StartValidatesConfiguration) {
  {
    NetServer none{NetServerOptions{}};
    EXPECT_FALSE(none.Start().ok());  // no listener configured
  }
  {
    NetServerOptions options;
    options.tcp_port = 0;
    options.tcp_address = "not-an-address";
    NetServer bad(std::move(options));
    EXPECT_FALSE(bad.Start().ok());
  }
  {
    NetServerOptions options;
    options.unix_path = std::string(200, 'p');  // past sun_path
    NetServer bad(std::move(options));
    EXPECT_FALSE(bad.Start().ok());
  }
}

TEST(NetServerTest, TcpRoundTripWithStatsCommand) {
  ServerFixture fx{NetServerOptions{}};
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(SimpleRequest(1));
  client.Send("{\"cmd\":\"server_stats\"}\n");
  client.HalfClose();

  TestClient::WireResponse r1, r2;
  ASSERT_TRUE(client.ReadResponse(&r1));
  EXPECT_NE(r1.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r1.payload, kSmallOut);
  ASSERT_TRUE(client.ReadResponse(&r2));
  EXPECT_NE(r2.header.find("\"server\":{"), std::string::npos);
  // The execution-core split is part of the stats payload.
  EXPECT_NE(r2.header.find("\"ops_runs\":"), std::string::npos);
  EXPECT_NE(r2.header.find("\"hybrid_runs\":"), std::string::npos);
  EXPECT_NE(r2.header.find("\"table_runs\":"), std::string::npos);
  // Half-close: the server delivers everything, then closes.
  EXPECT_TRUE(client.ReadAll().empty());

  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.connections, 1u);
  EXPECT_EQ(c.admitted, 1u);
  EXPECT_EQ(c.inline_cmds, 1u);
  EXPECT_TRUE(WaitFor([&] {
    return fx.server().counters().completed_ok == 1;
  }));
  // kQuery lowers fully, so the run counts as an opcode-core run.
  c = fx.server().counters();
  EXPECT_EQ(c.ops_runs, 1u);
  EXPECT_EQ(c.hybrid_runs, 0u);
  EXPECT_EQ(c.table_runs, 0u);
}

TEST(NetServerTest, UnixSocketRoundTrip) {
  NetServerOptions options;
  options.tcp_port = -1;
  options.unix_path = testing::TempDir() + "xqmft_net_test_" +
                      std::to_string(::getpid()) + ".sock";
  ServerFixture fx(std::move(options));
  TestClient client = TestClient::ConnectUnix(fx.server().unix_path());
  ASSERT_TRUE(client.ok());
  client.Send(SimpleRequest(5));
  client.HalfClose();
  TestClient::WireResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":5,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r.payload, kSmallOut);
  // The socket file is removed on shutdown.
  ASSERT_TRUE(fx.Join().ok());
  EXPECT_NE(::access(fx.server().unix_path().c_str(), F_OK), 0);
}

TEST(NetServerTest, QueueWaitCountsAgainstTheDeadline) {
  // One worker, held busy by a stalled run: a request with a deadline
  // shorter than its queue wait is dead on arrival at the worker — the
  // pre-execution check rejects it without compiling or streaming.
  NetServerOptions options;
  options.workers = 1;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(StallRequest(1, 400));
  // Wait until the worker holds request 1, so request 2 queues.
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 1; }));
  std::string second = "{\"id\":2,\"query\":\"" + std::string(kQuery) +
                       "\",\"xml\":[\"" + kSmallDoc +
                       "\"],\"deadline_ms\":30}\n";
  client.Send(second);
  client.HalfClose();

  TestClient::WireResponse r1, r2;
  ASSERT_TRUE(client.ReadResponse(&r1));
  EXPECT_NE(r1.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&r2));
  EXPECT_NE(r2.header.find("\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(r2.header.find("\"status\":\"deadline_exceeded\""),
            std::string::npos);
  EXPECT_EQ(fx.server().counters().deadline_exceeded_runs, 1u);
}

TEST(NetServerTest, QueueFullShedsWithExactCounts) {
  // workers=1 and queue_limit=1: one running, one queued, everything else
  // sheds with "overloaded" — exact counts, not approximations.
  NetServerOptions options;
  options.workers = 1;
  options.queue_limit = 1;
  options.retry_after_ms = 77;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));

  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(StallRequest(1, 700));
  // The stats poll runs on a second connection: the first connection's
  // responses are blocked behind request 1 (in-order delivery).
  TestClient stats = fx.Connect();
  ASSERT_TRUE(stats.ok());
  // Wait until the worker picked up request 1 (queue back to empty).
  ASSERT_TRUE(WaitFor([&] {
    stats.Send("{\"cmd\":\"server_stats\"}\n");
    TestClient::WireResponse r;
    if (!stats.ReadResponse(&r)) return false;
    return r.header.find("\"admitted\":1") != std::string::npos &&
           r.header.find("\"queued\":0") != std::string::npos;
  }));

  client.Send(SimpleRequest(2));  // fills the queue
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 2; }));
  client.Send(SimpleRequest(3));  // shed
  client.Send(SimpleRequest(4));  // shed
  client.HalfClose();

  TestClient::WireResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":2,\"ok\":true"), std::string::npos);
  for (int id : {3, 4}) {
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_NE(r.header.find("\"id\":" + std::to_string(id) + ",\"ok\":false"),
              std::string::npos);
    EXPECT_NE(r.header.find("\"status\":\"overloaded\""), std::string::npos);
    EXPECT_NE(r.header.find("\"retry_after_ms\":77"), std::string::npos);
  }

  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.rejected_overload, 2u);
  EXPECT_EQ(c.completed_ok, 2u);
}

TEST(NetServerTest, DisconnectCancelsQueuedAndInflightRuns) {
  NetServerOptions options;
  options.workers = 1;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));

  // Connection A holds the worker; connection B queues one request and
  // then resets. B's queued run must be cancelled — the worker's
  // pre-execution check observes the tripped token and skips the work.
  TestClient a = fx.Connect();
  ASSERT_TRUE(a.ok());
  a.Send(StallRequest(1, 500));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 1; }));

  TestClient b = fx.Connect();
  ASSERT_TRUE(b.ok());
  b.Send(SimpleRequest(2));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 2; }));
  b.AbortClose();

  EXPECT_TRUE(WaitFor([&] {
    return fx.server().counters().cancelled_runs == 1;
  }));
  EXPECT_EQ(fx.server().counters().disconnects_inflight, 1u);

  // Connection A is unaffected: its response still arrives.
  a.HalfClose();
  TestClient::WireResponse r;
  ASSERT_TRUE(a.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":1,\"ok\":true"), std::string::npos);
}

// Request 1 stalls, the server starts draining, and request 2 arrives on
// the same connection: request 1's response is delivered, request 2 gets
// shutting_down, and Run returns.
void ExpectGracefulDrain(std::size_t max_inflight_per_conn) {
  NetServerOptions options;
  options.workers = 1;
  options.allow_fault_injection = true;
  options.drain_ms = 10000;
  options.max_inflight_per_conn = max_inflight_per_conn;
  ServerFixture fx(std::move(options));

  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  // The stall is far longer than the waits below take, so the drain is
  // still waiting on request 1 when request 2 arrives.
  client.Send(StallRequest(1, 1000));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 1; }));

  fx.server().RequestShutdown();
  // Drain has begun once the listeners are gone (connects start failing);
  // only then is request 2 guaranteed to hit the reject path.
  ASSERT_TRUE(WaitFor(
      [&] { return !TestClient::ConnectTcp(fx.server().port()).ok(); }));
  // New work on the still-open connection is rejected while draining.
  client.Send(SimpleRequest(2));
  ASSERT_TRUE(WaitFor(
      [&] { return fx.server().counters().rejected_shutdown == 1; }));

  TestClient::WireResponse r1, r2;
  ASSERT_TRUE(client.ReadResponse(&r1));
  EXPECT_NE(r1.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r1.payload, "<out>" + [] {
    std::string hits;
    for (int i = 0; i < 200; ++i) hits += "<a>payload-payload</a>";
    return hits;
  }() + "</out>");
  ASSERT_TRUE(client.ReadResponse(&r2));
  EXPECT_NE(r2.header.find("\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(r2.header.find("\"status\":\"shutting_down\""),
            std::string::npos);

  ASSERT_TRUE(fx.Join().ok());
  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.completed_ok, 1u);
  EXPECT_EQ(c.rejected_shutdown, 1u);
  // Drained listeners are gone: a fresh connection is refused.
  EXPECT_FALSE(TestClient::ConnectTcp(fx.server().port()).ok());
}

TEST(NetServerTest, GracefulDrainDeliversInflightBeforeReturning) {
  ExpectGracefulDrain(NetServerOptions().max_inflight_per_conn);
}

TEST(NetServerTest, GracefulDrainAnswersLinesLeftUnread) {
  // Backpressure stops the server reading the connection while request 1
  // runs, so request 2 is still unread in the socket when the drain has
  // nothing else left; it is read and answered, not reset by the close.
  ExpectGracefulDrain(/*max_inflight_per_conn=*/1);
}

TEST(NetServerTest, DrainDeadlineCancelsStragglers) {
  NetServerOptions options;
  options.workers = 1;
  options.allow_fault_injection = true;
  options.drain_ms = 40;  // far shorter than the stalled run
  ServerFixture fx(std::move(options));

  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(StallRequest(1, 600));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 1; }));

  Clock::time_point start = Clock::now();
  ASSERT_TRUE(fx.Join().ok());
  // Run returned once the stalled worker observed its cancelled token —
  // bounded by the stall, nowhere near a full run, and the outcome is
  // counted as a cancellation.
  EXPECT_LT(ElapsedMs(start), 5000.0);
  EXPECT_EQ(fx.server().counters().cancelled_runs, 1u);
  EXPECT_EQ(fx.server().counters().completed_ok, 0u);
}

TEST(NetServerTest, OverlongLineIsRejectedAndTheConnectionContinues) {
  NetServerOptions options;
  options.limits.max_line_bytes = 128;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(std::string(400, 'x') + "\n");
  client.Send(SimpleRequest(1));
  client.HalfClose();

  TestClient::WireResponse r1, r2;
  ASSERT_TRUE(client.ReadResponse(&r1));
  EXPECT_NE(r1.header.find("exceeds the 128-byte limit"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&r2));
  EXPECT_NE(r2.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r2.payload, kSmallOut);
  EXPECT_EQ(fx.server().counters().rejected_line_length, 1u);
}

TEST(NetServerTest, InlineXmlCapAppliesOverTheWire) {
  NetServerOptions options;
  options.limits.max_inline_xml_bytes = 8;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(SimpleRequest(1));  // kSmallDoc is larger than 8 bytes
  client.HalfClose();
  TestClient::WireResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"status\":\"invalid_argument\""),
            std::string::npos);
}

TEST(NetServerTest, FaultMatrixLeavesTheServerServing) {
  // One request per fault kind plus a healthy one, all on one connection:
  // every fault's blast radius is its own request, the healthy request and
  // the connection survive, and a fresh connection still works after.
  NetServerOptions options;
  options.workers = 2;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());

  auto fault_request = [](int id, const char* kind) {
    return "{\"id\":" + std::to_string(id) + ",\"query\":\"" +
           std::string(kQuery) + "\",\"xml\":[\"" + kSmallDoc +
           "\"],\"fault\":{\"kind\":\"" + kind +
           "\",\"at_event\":3,\"stall_ms\":30}}\n";
  };
  client.Send(fault_request(1, "truncate"));
  client.Send(fault_request(2, "error"));
  client.Send(fault_request(3, "stall"));
  client.Send(SimpleRequest(4));
  client.HalfClose();

  // Responses arrive in request order whatever the workers did.
  TestClient::WireResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":1,"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":2,\"ok\":false"), std::string::npos);
  EXPECT_NE(r.header.find("injected source fault"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":3,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r.payload, kSmallOut);  // a stall is only slow, never wrong
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":4,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r.payload, kSmallOut);

  TestClient fresh = fx.Connect();
  ASSERT_TRUE(fresh.ok());
  fresh.Send(SimpleRequest(9));
  fresh.HalfClose();
  ASSERT_TRUE(fresh.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":9,\"ok\":true"), std::string::npos);
}

TEST(NetServerTest, PipelinedResponsesStayInRequestOrder) {
  // Four pipelined requests finishing in reverse order (the first stalls
  // longest) must come back 1, 2, 3, 4.
  NetServerOptions options;
  options.workers = 4;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(StallRequest(1, 300));
  client.Send(StallRequest(2, 150));
  client.Send(StallRequest(3, 40));
  client.Send(SimpleRequest(4));
  client.HalfClose();
  for (int id = 1; id <= 4; ++id) {
    TestClient::WireResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_NE(r.header.find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << "response " << id << " header: " << r.header;
  }
}

// ---------------------------------------------------------------------------
// Batching scheduler (net/scheduler.h) and the admission-path fixes
// ---------------------------------------------------------------------------

TEST(RetryHintTest, FloorBeforeSamplesThenScalesMonotonically) {
  RetryHint hint(50);
  // Before any completion is observed the hint is the configured floor,
  // whatever the depth — cold-start shedding keeps the static contract.
  EXPECT_EQ(hint.HintMs(0), 50u);
  EXPECT_EQ(hint.HintMs(100), 50u);
  EXPECT_DOUBLE_EQ(hint.ewma_ms(), 0.0);

  hint.Record(10.0);  // first sample initializes the EWMA outright
  EXPECT_DOUBLE_EQ(hint.ewma_ms(), 10.0);
  hint.Record(20.0);  // 0.2 * 20 + 0.8 * 10
  EXPECT_DOUBLE_EQ(hint.ewma_ms(), 12.0);

  EXPECT_EQ(hint.HintMs(1), 50u);    // ceil(12) is below the floor
  EXPECT_EQ(hint.HintMs(10), 120u);  // depth × EWMA past the floor
  // A deeper queue never yields a smaller hint.
  std::uint64_t prev = 0;
  for (std::size_t depth = 0; depth <= 64; ++depth) {
    std::uint64_t h = hint.HintMs(depth);
    EXPECT_GE(h, prev) << "depth " << depth;
    EXPECT_GE(h, 50u) << "depth " << depth;
    prev = h;
  }
}

std::shared_ptr<NetJob> MakeJob(std::uint64_t seq) {
  auto job = std::make_shared<NetJob>();
  job->seq = seq;
  return job;
}

TEST(SchedulerTest, DequeuesInFifoOrderAndDrainsAfterStop) {
  Scheduler scheduler;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) scheduler.Enqueue(MakeJob(seq));
  EXPECT_EQ(scheduler.queued(), 3u);
  std::shared_ptr<NetJob> job = scheduler.Dequeue();
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->seq, 1u);
  EXPECT_EQ(scheduler.queued(), 2u);
  // Jobs queued before Stop() are still handed out, in order; then null.
  scheduler.Stop();
  for (std::uint64_t seq = 2; seq <= 3; ++seq) {
    job = scheduler.Dequeue();
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->seq, seq);
  }
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(scheduler.Dequeue(), nullptr);
}

TEST(NetServerTest, MalformedDeadlineIsRejectedAsBadRequest) {
  ServerFixture fx{NetServerOptions{}};
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto with_deadline = [](int id, const char* deadline) {
    return "{\"id\":" + std::to_string(id) + ",\"query\":\"" +
           std::string(kQuery) + "\",\"xml\":[\"" + kSmallDoc +
           "\"],\"deadline_ms\":" + deadline + "}\n";
  };
  client.Send(with_deadline(1, "\"100\""));  // a string, not a number
  client.Send(with_deadline(2, "0"));        // zero = no budget at all
  client.Send(with_deadline(3, "-5"));       // negative
  client.Send(SimpleRequest(4));             // the session continues
  client.HalfClose();

  TestClient::WireResponse r;
  for (int id : {1, 2, 3}) {
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_NE(r.header.find("\"id\":" + std::to_string(id) + ",\"ok\":false"),
              std::string::npos);
    EXPECT_NE(r.header.find("\"status\":\"bad_request\""), std::string::npos)
        << r.header;
  }
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":4,\"ok\":true"), std::string::npos);
  EXPECT_EQ(r.payload, kSmallOut);

  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.rejected_bad_request, 3u);
  EXPECT_EQ(c.admitted, 1u);  // the rejects never reached the queue
}

TEST(NetServerTest, HugeCountsRunAndCountsAbove2To53AreRejected) {
  ServerFixture fx{NetServerOptions{}};
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto with = [](int id, const char* field, const char* value) {
    return "{\"id\":" + std::to_string(id) + ",\"query\":\"" +
           std::string(kQuery) + "\",\"xml\":[\"" + kSmallDoc + "\"],\"" +
           field + "\":" + value + "}\n";
  };
  client.Send(with(1, "deadline_ms", "9e15"));   // saturates, never trips
  client.Send(with(2, "threads", "9e15"));       // clamped to one input
  client.Send(with(3, "deadline_ms", "1e300"));  // rejected at admission
  client.Send(with(4, "threads", "1e300"));      // rejected by the wire layer
  client.HalfClose();

  TestClient::WireResponse r;
  for (int id : {1, 2}) {
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_NE(r.header.find("\"id\":" + std::to_string(id) + ",\"ok\":true"),
              std::string::npos)
        << r.header;
    EXPECT_EQ(r.payload, kSmallOut);
  }
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":3,\"ok\":false"), std::string::npos);
  EXPECT_NE(r.header.find("\"status\":\"bad_request\""), std::string::npos)
      << r.header;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":4,\"ok\":false"), std::string::npos);
  EXPECT_NE(r.header.find("\"status\":\"invalid_argument\""),
            std::string::npos)
      << r.header;

  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.rejected_bad_request, 1u);
  EXPECT_EQ(c.admitted, 3u);
}

TEST(NetServerTest, OverloadHintScalesWithObservedServiceTime) {
  NetServerOptions options;
  options.workers = 1;
  options.queue_limit = 2;
  options.retry_after_ms = 1;  // floor low enough that scaling is visible
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));

  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  // Seed the service-time EWMA with one completed ~80ms request.
  client.Send(StallRequest(1, 80));
  ASSERT_TRUE(WaitFor([&] {
    return fx.server().counters().completed_ok == 1;
  }));

  // Hold the worker, then fill the queue to depth 2.
  client.Send(StallRequest(2, 700));
  TestClient stats = fx.Connect();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(WaitFor([&] {
    stats.Send("{\"cmd\":\"server_stats\"}\n");
    TestClient::WireResponse r;
    if (!stats.ReadResponse(&r)) return false;
    return r.header.find("\"admitted\":2") != std::string::npos &&
           r.header.find("\"queued\":0") != std::string::npos;
  }));
  client.Send(SimpleRequest(3));
  client.Send(SimpleRequest(4));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 4; }));

  client.Send(SimpleRequest(5));  // shed at depth 2
  client.HalfClose();
  TestClient::WireResponse r;
  for (int id = 1; id <= 4; ++id) ASSERT_TRUE(client.ReadResponse(&r));
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":5,\"ok\":false"), std::string::npos);
  EXPECT_NE(r.header.find("\"status\":\"overloaded\""), std::string::npos);
  // The observed service time was >= 80ms (the stall is a lower bound), so
  // at depth 2 the hint is >= 160ms — far from the 1ms static floor.
  EXPECT_GE(HeaderCount(r.header, "retry_after_ms"), 160u) << r.header;
}

TEST(NetServerTest, QueuedSameDocumentRequestsEachRunAlone) {
  // The batching options xqbench sets are ignored: two requests over one
  // document, queued together behind a stalled head, run one at a time.
  NetServerOptions options;
  options.workers = 1;
  options.batch_window_ms = 2;
  options.batch_max = 8;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));

  TestClient head = fx.Connect();
  ASSERT_TRUE(head.ok());
  head.Send(StallRequest(1, 200));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 1; }));

  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send(SimpleRequest(2));
  client.Send(SimpleRequest(3));
  ASSERT_TRUE(WaitFor([&] { return fx.server().counters().admitted == 3; }));
  client.HalfClose();

  TestClient::WireResponse r;
  for (int id : {2, 3}) {
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_NE(r.header.find("\"id\":" + std::to_string(id) + ",\"ok\":true"),
              std::string::npos)
        << r.header;
    EXPECT_EQ(r.header.find("\"coalesced\""), std::string::npos) << r.header;
    EXPECT_EQ(r.payload, kSmallOut);
  }
  ASSERT_TRUE(WaitFor([&] {
    return fx.server().counters().completed_ok == 3;
  }));
  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.coalesced_requests, 0u);
  EXPECT_EQ(c.parses_saved, 0u);
}

// One query per recursive shape, each nested exactly `levels` deep as the
// parsers count it (every expression, path step and predicate is a level):
// element constructors, sequences, predicates, path steps, for clauses.
std::vector<std::string> NestedQueries(std::size_t levels) {
  auto repeat = [](const std::string& s, std::size_t n) {
    std::string out;
    for (std::size_t i = 0; i < n; ++i) out += s;
    return out;
  };
  const std::size_t k = levels - 2;  // around a one-step path, two levels
  std::string fors, var = "input";
  for (std::size_t i = 0; i < k; ++i) {
    fors += "for $v" + std::to_string(i) + " in $" + var + "/x return ";
    var = "v" + std::to_string(i);
  }
  return {repeat("<a>", k) + "{$input/x}" + repeat("</a>", k),
          repeat("(", k) + "$input/x" + repeat(",$input/x)", k),
          "$input/x" + repeat("[./x", k / 2) + (k % 2 != 0 ? "/x" : "") +
              repeat("]", k / 2),
          "$input" + repeat("/x", levels - 1), fors + "$" + var + "/x"};
}

TEST(NetServerTest, DeepQueriesAtTheCapRunAndOverItAreRejected) {
  // At kMaxParseNesting every shape compiles and streams in a worker
  // thread; one level over, it is rejected before any recursion past the
  // cap, and the connection keeps serving.
  ServerFixture fx{NetServerOptions{}};
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> at_cap = NestedQueries(kMaxParseNesting);
  const std::vector<std::string> over = NestedQueries(kMaxParseNesting + 1);
  int id = 0;
  for (const std::vector<std::string>* queries : {&at_cap, &over}) {
    for (const std::string& query : *queries) {
      std::string line = "{\"id\":" + std::to_string(++id) + ",\"query\":";
      AppendJsonString(&line, query);
      line += ",\"xml\":[\"<x><x><x>1</x></x></x>\"]}\n";
      client.Send(line);
    }
  }
  client.Send(SimpleRequest(++id));
  client.HalfClose();

  TestClient::WireResponse r;
  for (int i = 1; i <= id; ++i) {
    ASSERT_TRUE(client.ReadResponse(&r)) << "response " << i;
    const std::string head = "\"id\":" + std::to_string(i) + ",";
    if (i <= static_cast<int>(at_cap.size()) || i == id) {
      EXPECT_NE(r.header.find(head + "\"ok\":true"), std::string::npos)
          << r.header;
    } else {
      EXPECT_NE(r.header.find(head + "\"ok\":false"), std::string::npos)
          << r.header;
      EXPECT_NE(r.header.find("nesting exceeds the limit of " +
                              std::to_string(kMaxParseNesting) + " levels"),
                std::string::npos)
          << r.header;
      EXPECT_NE(r.header.find("\"status\":\"invalid_argument\""),
                std::string::npos);
    }
  }
  EXPECT_EQ(r.payload, kSmallOut);
}

TEST(NetServerTest, CounterSnapshotsKeepTheAdmissionInvariant) {
  // Hammer the snapshot path from a second thread while requests flow: in
  // every observed snapshot, admitted covers all counted outcomes — the
  // ordered-load guarantee (a torn snapshot could show an outcome whose
  // admission it missed).
  NetServerOptions options;
  options.workers = 2;
  options.allow_fault_injection = true;
  ServerFixture fx(std::move(options));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      NetServerCounters c = fx.server().counters();
      if (c.completed_ok + c.failed + c.cancelled_runs +
              c.deadline_exceeded_runs >
          c.admitted) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  constexpr int kRequests = 40;
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  for (int id = 1; id <= kRequests; ++id) {
    client.Send(id % 5 == 0 ? StallRequest(id, 2) : SimpleRequest(id));
  }
  client.HalfClose();
  for (int id = 1; id <= kRequests; ++id) {
    TestClient::WireResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(violations.load(), 0u);
  NetServerCounters c = fx.server().counters();
  EXPECT_EQ(c.admitted, static_cast<std::uint64_t>(kRequests));
}

TEST(NetServerTest, SocketFaultHookDropsTheConnectionAbruptly) {
  NetServerOptions options;
  options.fault_abort_conn_after_responses = 2;
  ServerFixture fx(std::move(options));
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  // The first response is delivered; the second trips the hook, which
  // drops the connection abruptly in its place, so it never arrives, and
  // the read side terminates rather than hanging. Request 2 goes out only
  // after response 1 is read: an abortive close may discard bytes the
  // client has not read yet.
  client.Send(SimpleRequest(1));
  TestClient::WireResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":1,\"ok\":true"), std::string::npos);
  client.Send(SimpleRequest(2));
  EXPECT_EQ(client.ReadAll().find("\"id\":2,"), std::string::npos);

  // The blast radius is that one connection: a fresh one that stays under
  // the response threshold is served normally.
  TestClient fresh = fx.Connect();
  ASSERT_TRUE(fresh.ok());
  fresh.Send(SimpleRequest(3));
  fresh.HalfClose();
  ASSERT_TRUE(fresh.ReadResponse(&r));
  EXPECT_NE(r.header.find("\"id\":3,\"ok\":true"), std::string::npos);
}


// ---------------------------------------------------------------------------
// Golden response shapes
// ---------------------------------------------------------------------------

// The header with every numeric JSON value replaced by N: what is left is
// the key set, the key order, and the string and boolean values.
std::string MaskNumbers(const std::string& header) {
  std::string out;
  for (std::size_t i = 0; i < header.size(); ++i) {
    out += header[i];
    if (header[i] != ':' || i == 0 || header[i - 1] != '"') continue;
    const std::size_t end = header.find_first_not_of("-.0123456789", i + 1);
    if (end == i + 1) continue;  // not a number
    out += 'N';
    i = end - 1;  // npos - 1 when the number ends the header
  }
  return out;
}

// Every header line of a framed response stream, numbers masked; the
// payload after each successful query header is skipped by its "bytes".
std::vector<std::string> MaskedHeaders(const std::string& out) {
  std::vector<std::string> headers;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t nl = out.find('\n', pos);
    if (nl == std::string::npos) nl = out.size();
    std::string header = out.substr(pos, nl - pos);
    pos = nl + 1;
    if (header.find("\"ok\":true,\"bytes\":") != std::string::npos) {
      pos += HeaderCount(header, "bytes") + 1;  // payload + newline
    }
    headers.push_back(MaskNumbers(header));
  }
  return headers;
}

TEST(WireShapeTest, EveryResponseShapeKeepsItsKeysAndOrder) {
  QueryService service;
  RequestHandler handler(&service, WireOptions{});
  const std::string query = std::string("\"query\":\"") + kQuery + "\"";
  const std::string docs = std::string(",\"xml\":[\"") + kSmallDoc + "\"]}";
  using Headers = std::vector<std::string>;

  // Single query.
  EXPECT_EQ(MaskedHeaders(HandleOne(&handler, "{\"id\":1," + query + docs)),
            Headers{"{\"id\":N,\"ok\":true,\"bytes\":N,\"cache\":\"miss\","
                    "\"compile_ms\":N,\"stream_ms\":N,\"bytes_in\":N,"
                    "\"output_events\":N,\"peak_mem_bytes\":N,"
                    "\"engine\":\"ops\",\"lowered\":\"full\",\"cache_hits\":N,"
                    "\"cache_misses\":N,\"cache_entries\":N}"});

  // "queries" batch: a line per member (the second deduped onto the
  // first), then the summary line.
  const std::string member =
      "\"ok\":true,\"bytes\":N,\"cache\":\"hit\",\"compile_ms\":N,"
      "\"stream_ms\":N,\"deduped\":";
  const std::string member_tail =
      ",\"events_fed\":N,\"events_skipped\":N,\"output_events\":N,"
      "\"peak_mem_bytes\":N,\"engine\":\"ops\",\"lowered\":\"full\"}";
  EXPECT_EQ(MaskedHeaders(HandleOne(
                &handler, "{\"id\":\"b\",\"queries\":[{\"id\":4," + query +
                              "},{\"id\":5," + query + "}]" + docs)),
            (Headers{"{\"id\":N," + member + "false" + member_tail,
                     "{\"id\":N," + member + "true" + member_tail,
                     "{\"id\":\"b\",\"ok\":true,\"batch\":true,"
                     "\"requests\":N,\"documents\":N,\"parsed_bytes\":N,"
                     "\"unique_plans\":N,\"deduped_requests\":N,"
                     "\"stream_ms\":N}"}));

  // An error.
  EXPECT_EQ(MaskedHeaders(HandleOne(&handler, "{\"id\":6" + docs)),
            Headers{"{\"id\":N,\"ok\":false,\"error\":\"InvalidArgument: "
                    "request needs a string \\\"query\\\" field\","
                    "\"status\":\"invalid_argument\"}"});

  // The query cache's stats.
  EXPECT_EQ(MaskedHeaders(HandleOne(&handler, "{\"id\":7,\"cmd\":\"stats\"}")),
            Headers{"{\"id\":N,\"ok\":true,\"stats\":{\"hits\":N,"
                    "\"misses\":N,\"compiles\":N,\"failures\":N,"
                    "\"evictions\":N,\"entries\":N,\"bytes\":N,"
                    "\"compile_ms_total\":N}}"});

  // The socket server's counters.
  ServerFixture fx{NetServerOptions{}};
  TestClient client = fx.Connect();
  ASSERT_TRUE(client.ok());
  client.Send("{\"id\":8,\"cmd\":\"server_stats\"}\n");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(MaskNumbers(line),
            "{\"id\":N,\"ok\":true,\"server\":{\"connections\":N,"
            "\"admitted\":N,\"completed_ok\":N,\"failed\":N,"
            "\"cancelled_runs\":N,\"deadline_exceeded_runs\":N,"
            "\"rejected_overload\":N,\"rejected_shutdown\":N,"
            "\"rejected_line_length\":N,\"rejected_bad_request\":N,"
            "\"disconnects_inflight\":N,\"slow_client_closed\":N,"
            "\"inline_cmds\":N,\"coalesced_requests\":N,"
            "\"parses_saved\":N,\"ops_runs\":N,"
            "\"hybrid_runs\":N,\"table_runs\":N,\"queued\":N}}");
}

}  // namespace
}  // namespace xqmft
