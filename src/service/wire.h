// Transport-independent serving wire protocol: one NDJSON request line in,
// framed response text out.
//
// ServeLoop (serve.h, stdin/stdout) and NetServer (net/server.h, sockets)
// speak the same request schema; this layer owns everything between "here
// is one request line" and "here are the response bytes": JSON parsing,
// request validation and limits, cmd dispatch, execution through a
// QueryService, fault injection, and response framing. A transport only
// moves bytes and decides admission.
//
// In wire.cc the single path (HandleParsed) runs QueryService::Execute or
// a fault-injected stream; the "queries" batch (HandleBatch) and the
// coalesced group (HandleCoalesced) share one ExecuteBatch call, RunBatch.
// All three write their responses through AppendRun, whose RunShape names
// the fields that set each shape apart.
//
// Responses are appended to a caller-owned string: a header line of JSON,
// then (for successful query requests) exactly `bytes` bytes of output and
// a newline. Error headers carry a machine-readable "status" field
// (WireStatusString) after the human-readable "error" message:
//
//   {"id":7,"ok":false,"error":"deadline exceeded","status":"deadline_exceeded"}
#ifndef XQMFT_SERVICE_WIRE_H_
#define XQMFT_SERVICE_WIRE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

#include "service/json.h"
#include "service/query_service.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/strings.h"

namespace xqmft {

/// \brief Per-request input limits (applied before any execution).
///
/// Limits are serving-robustness knobs: a request that exceeds one is
/// rejected with an error response and the session continues — the point is
/// that no single request can make the server buffer unbounded input.
struct RequestLimits {
  /// Longest accepted request line, bytes (the JSON, not the documents it
  /// names). Transports enforce this while reading; 0 = unlimited.
  std::size_t max_line_bytes = 1u << 20;
  /// Total inline "xml" document bytes accepted per request; 0 = unlimited.
  /// File inputs are not counted — they stream, inline documents sit in the
  /// request (and its JSON escape expansion) in memory.
  std::size_t max_inline_xml_bytes = 16u << 20;
};

/// \brief Configuration of a RequestHandler.
struct WireOptions {
  RequestLimits limits;
  /// Worker threads when a request does not say (0 = hardware, 1 = serial).
  std::size_t default_threads = 1;
  /// Accept the per-request "fault" field (service/fault.h). Off by
  /// default: fault injection is a test/stress harness, not a production
  /// surface, so transports enable it explicitly.
  bool allow_fault_injection = false;
  /// Extra "cmd" handler tried before the built-ins; return true if the
  /// command was handled (response appended to *out). Lets a transport add
  /// commands (the net server's "server_stats") without the wire layer
  /// knowing about it.
  std::function<bool(const std::string& cmd, const JsonValue* id,
                     std::string* out)>
      cmd_hook;
  /// Called once per successfully executed run (single, batch member, or
  /// coalesced member) with the run's aggregated stream stats. Transports
  /// use it to count which execution core served (the net server's
  /// ops/table/hybrid run counters). May be called from worker threads;
  /// the callback must be thread-safe.
  std::function<void(const StreamStats& total)> run_observer;
};

/// Serializes a JsonValue back out (request ids are echoed verbatim
/// whatever their shape).
void AppendJsonValue(std::string* out, const JsonValue& v);

/// \brief Builds one JSON object field by field: a response header line,
/// or (with a null id) a nested object such as the stats counters.
struct ResponseWriter {
  explicit ResponseWriter(const JsonValue* id) {
    line = "{";
    if (id != nullptr) {
      line += "\"id\":";
      AppendJsonValue(&line, *id);
      line += ",";
    }
  }
  void Field(std::string_view key, std::string_view string_value) {
    AppendJsonString(&line, key);
    line += ":";
    AppendJsonString(&line, string_value);
    line += ",";
  }
  void Raw(std::string_view key, std::string_view raw) {
    AppendJsonString(&line, key);
    line += ":";
    line += raw;
    line += ",";
  }
  /// Integers print in full, doubles (the *_ms timings) with three
  /// decimals.
  template <typename T>
  void Number(std::string_view key, T value) {
    if constexpr (std::is_floating_point_v<T>) {
      Raw(key, StrFormat("%.3f", value));
    } else {
      Raw(key, std::to_string(value));
    }
  }
  // One JSON object, closing brace swapped in for the trailing comma.
  std::string Finish() {
    if (line.back() == ',') line.back() = '}';
    else line += "}";
    return line;
  }
  /// Finish() plus the newline that ends a header line, appended to *out.
  void FinishLine(std::string* out) {
    *out += Finish();
    *out += '\n';
  }
  std::string line;
};

/// The wire-protocol "status" token for a code: "ok", "invalid_argument",
/// "deadline_exceeded", "cancelled", "unavailable", ... (snake_case of the
/// StatusCode name). Stable: clients dispatch on these.
const char* WireStatusString(StatusCode code);

/// Starts an error response header: ok:false, the human-readable message,
/// then the machine-readable status token ("error" before "status" —
/// existing clients key on the ok/error adjacency). Transports pass their
/// own admission tokens ("bad_request", "overloaded", "shutting_down") and
/// may add fields before finishing the line.
ResponseWriter ErrorResponse(const JsonValue* id, std::string_view message,
                             std::string_view status);

/// Appends a complete error response line for a failed request, its status
/// token WireStatusString(code).
void AppendErrorResponse(std::string* out, const JsonValue* id,
                         std::string_view message, StatusCode code);

/// Appends the rejection of a request line longer than `limit` bytes.
void AppendOverlongLineResponse(std::string* out, std::size_t limit);

/// The scheduler's coalescing key for one parsed request: requests with
/// equal non-empty keys name the same document list (the raw "inputs" and
/// "xml" fields, which parse deterministically into the same ParallelInput
/// list ExecuteBatch groups by) and compatible plan-shaping options, so
/// they may legally share one ExecuteBatch pass. Returns "" for requests
/// that must never be coalesced: cmd and batch forms, fault injection,
/// explicit "threads", and shapes the single-request path should reject
/// with its exact error message.
std::string CoalesceKey(const JsonValue& json);

/// One member of a coalesced run (see RequestHandler::HandleCoalesced).
struct CoalescedJob {
  const JsonValue* json = nullptr;  ///< parsed request (single-query form)
  CancelToken* cancel = nullptr;    ///< member token, armed at admission
  std::string* out = nullptr;       ///< receives the member's framed response
  StatusCode code = StatusCode::kOk;  ///< outcome, for transport counters
};

/// \brief Executes request lines against a QueryService.
///
/// Stateless between calls apart from the service's cache; thread-safe as
/// long as concurrent calls use distinct `out` strings (the service and its
/// cache are themselves thread-safe), which is how the net server's worker
/// pool shares one handler.
class RequestHandler {
 public:
  RequestHandler(QueryService* service, WireOptions options)
      : service_(service), options_(std::move(options)) {}

  /// Parses and executes one request line, appending the complete framed
  /// response (or error response) to `*out`. Never fails the session: the
  /// return code is the request's outcome (kOk, kInvalidArgument for
  /// malformed requests, kDeadlineExceeded / kCancelled for tripped runs,
  /// ...) for the transport's counters.
  ///
  /// `cancel`, when given, must outlive the call; the handler arms the
  /// request's deadline_ms on it unless the transport armed one already
  /// (a server arms from admission time so queue wait counts). Null is
  /// fine — a request-local token is used when a deadline needs one.
  StatusCode HandleLine(std::string_view line, CancelToken* cancel,
                        std::string* out);

  /// HandleLine after JSON parsing — for transports that parse on an event
  /// loop thread (to admission-check cheaply) and execute on a worker.
  StatusCode HandleParsed(const JsonValue& json, CancelToken* cancel,
                          std::string* out);

  /// Executes a group of requests sharing one CoalesceKey as a single
  /// ExecuteBatch pass: one tokenization per document, plans deduped
  /// through the cache, each member's output replayed into its own framed
  /// response (the single-request response shape plus a "coalesced":N
  /// field, N = members that actually shared the pass). Members whose
  /// token tripped before the pass, or whose request fails to build, drop
  /// out with their individual error responses; a member tripping
  /// mid-stream detaches without disturbing the rest. Per-member outcomes
  /// land in group[i].code.
  ///
  /// `*shared_members` (optional) receives N; the return value is the
  /// number of document parses the group saved over independent execution
  /// ((N - 1) × documents streamed), both 0 when fewer than two members
  /// reached the shared pass.
  std::uint64_t HandleCoalesced(std::vector<CoalescedJob>* group,
                                std::size_t* shared_members = nullptr);

 private:
  struct RunShape;  // wire.cc
  StatusCode HandleBatch(const JsonValue& json, const JsonValue* id,
                         CancelToken* cancel, std::string* out);
  /// Appends one run's response: the error when `st` failed, else the
  /// success header in `shape` followed by `output`. Returns the outcome.
  StatusCode AppendRun(std::string* out, const JsonValue* id,
                       const Status& st, const ServiceRequestStats& stats,
                       const std::string& output, const RunShape& shape);

  QueryService* service_;
  WireOptions options_;
};

}  // namespace xqmft

#endif  // XQMFT_SERVICE_WIRE_H_
