#include "service/wire.h"

#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "service/fault.h"
#include "stream/engine.h"
#include "util/strings.h"
#include "xml/pretok.h"

namespace xqmft {

void AppendJsonValue(std::string* out, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      // Integers (the common id shape) print without an exponent.
      if (v.number == std::floor(v.number) && std::fabs(v.number) < 1e15) {
        *out += StrFormat("%lld", static_cast<long long>(v.number));
      } else {
        *out += StrFormat("%g", v.number);
      }
      return;
    }
    case JsonValue::Kind::kString:
      AppendJsonString(out, v.string);
      return;
    case JsonValue::Kind::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendJsonValue(out, v.items[i]);
      }
      out->push_back(']');
      return;
    case JsonValue::Kind::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < v.fields.size(); ++i) {
        if (i != 0) out->push_back(',');
        AppendJsonString(out, v.fields[i].first);
        out->push_back(':');
        AppendJsonValue(out, v.fields[i].second);
      }
      out->push_back('}');
      return;
  }
}

const char* WireStatusString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotSupported: return "not_supported";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "internal";
}

ResponseWriter ErrorResponse(const JsonValue* id, std::string_view message,
                             std::string_view status) {
  ResponseWriter w(id);
  w.Raw("ok", "false");
  w.Field("error", message);
  w.Field("status", status);
  return w;
}

void AppendErrorResponse(std::string* out, const JsonValue* id,
                         std::string_view message, StatusCode code) {
  ErrorResponse(id, message, WireStatusString(code)).FinishLine(out);
}

void AppendOverlongLineResponse(std::string* out, std::size_t limit) {
  AppendErrorResponse(
      out, nullptr,
      StrFormat("request line exceeds the %zu-byte limit", limit),
      StatusCode::kInvalidArgument);
}

namespace {

// Appends the error response for `st`; returns its code.
StatusCode AppendError(std::string* out, const JsonValue* id,
                       const Status& st) {
  AppendErrorResponse(out, id, st.ToString(), st.code());
  return st.code();
}

// Reads a non-negative integer field of at most JsonValue::kMaxCount into
// *value; false (with an error appended to *err) on a malformed one, true
// otherwise (absent = untouched).
bool ParseCount(const JsonValue& json, std::string_view key,
                std::uint64_t* value, std::string* err) {
  const JsonValue* v = json.Find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number < 0 ||
      v->number != std::floor(v->number)) {
    *err = StrFormat("\"%.*s\" must be a non-negative integer",
                     static_cast<int>(key.size()), key.data());
    return false;
  }
  if (v->number > JsonValue::kMaxCount) {
    *err = StrFormat("\"%.*s\" must be at most 2^53",
                     static_cast<int>(key.size()), key.data());
    return false;
  }
  *value = static_cast<std::uint64_t>(v->number);
  return true;
}

// Reads a boolean field into *value; false (with an error appended to *err)
// when it is not a boolean, true otherwise (absent = untouched).
bool ParseBool(const JsonValue& json, std::string_view key, bool* value,
               std::string* err) {
  const JsonValue* v = json.Find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) {
    *err = StrFormat("\"%.*s\" must be a boolean",
                     static_cast<int>(key.size()), key.data());
    return false;
  }
  *value = v->boolean;
  return true;
}

// Parses the shared "inputs" (file paths) and "xml" (inline documents)
// fields into ParallelInputs; used by single and batch requests alike.
// `limits` caps the total inline document bytes a request may carry.
Status ParseInputs(const JsonValue& json, const RequestLimits& limits,
                   std::vector<ParallelInput>* out) {
  if (const JsonValue* inputs = json.Find("inputs")) {
    if (!inputs->is_array()) {
      return Status::InvalidArgument("\"inputs\" must be an array of paths");
    }
    for (const JsonValue& item : inputs->items) {
      if (!item.is_string()) {
        return Status::InvalidArgument("\"inputs\" must be an array of paths");
      }
      // Same sniff as the CLI's positional inputs: a pretok cache replays
      // as events, anything else parses as text XML.
      out->push_back(IsPretokFile(item.string)
                         ? ParallelInput::PretokFile(item.string)
                         : ParallelInput::XmlFile(item.string));
    }
  }
  if (const JsonValue* xml = json.Find("xml")) {
    if (!xml->is_array()) {
      return Status::InvalidArgument(
          "\"xml\" must be an array of inline documents");
    }
    std::size_t inline_bytes = 0;
    for (const JsonValue& item : xml->items) {
      if (!item.is_string()) {
        return Status::InvalidArgument(
            "\"xml\" must be an array of inline documents");
      }
      inline_bytes += item.string.size();
      if (limits.max_inline_xml_bytes != 0 &&
          inline_bytes > limits.max_inline_xml_bytes) {
        return Status::InvalidArgument(
            StrFormat("inline \"xml\" documents exceed the %zu-byte limit",
                      limits.max_inline_xml_bytes));
      }
      out->push_back(ParallelInput::XmlText(item.string));
    }
  }
  return Status::OK();
}

// A single request: its query, its documents and worker count, the
// optional fault directive, and the "deadline_ms" budget (0 = none), which
// ArmDeadline turns into the request's cancel token.
struct WireRequest {
  ServiceRequest req;
  std::vector<ParallelInput> inputs;
  std::size_t threads = 1;
  FaultSpec fault;
  std::uint64_t deadline_ms = 0;
};

// The token a request runs under: `caller` when given, else `*local` when
// `deadline_ms` (0 = none) needs carrying, else null. The deadline is armed
// only if none is armed yet — a server arms from admission time, so queue
// wait counts against the budget.
CancelToken* ArmDeadline(CancelToken* caller, std::uint64_t deadline_ms,
                         CancelToken* local) {
  CancelToken* token = caller;
  if (deadline_ms > 0) {
    if (token == nullptr) token = local;
    if (!token->has_deadline()) token->SetDeadlineAfterMs(deadline_ms);
  }
  return token;
}

// Builds the request from its parsed JSON; error strings are user-facing.
Result<WireRequest> BuildRequest(const JsonValue& json,
                                 const WireOptions& options) {
  WireRequest out;
  const JsonValue* query = json.Find("query");
  if (query == nullptr || !query->is_string()) {
    return Status::InvalidArgument("request needs a string \"query\" field");
  }
  out.req.query = query->string;
  XQMFT_RETURN_NOT_OK(ParseInputs(json, options.limits, &out.inputs));
  std::uint64_t threads = options.default_threads;
  std::string err;
  if (!ParseCount(json, "threads", &threads, &err) ||
      !ParseBool(json, "no_opt", &out.req.no_opt, &err) ||
      !ParseCount(json, "deadline_ms", &out.deadline_ms, &err)) {
    return Status::InvalidArgument(err);
  }
  out.threads = static_cast<std::size_t>(threads);
  if (const JsonValue* fault = json.Find("fault")) {
    if (!options.allow_fault_injection) {
      return Status::InvalidArgument(
          "fault injection is disabled on this server");
    }
    if (!fault->is_object()) {
      return Status::InvalidArgument("\"fault\" must be an object");
    }
    const JsonValue* kind = fault->Find("kind");
    if (kind == nullptr || !kind->is_string() ||
        !ParseFaultKind(kind->string, &out.fault.kind)) {
      return Status::InvalidArgument(
          "\"fault.kind\" must be \"none\", \"truncate\", \"error\" or "
          "\"stall\"");
    }
    if (!ParseCount(*fault, "at_event", &out.fault.at_event, &err) ||
        !ParseCount(*fault, "stall_ms", &out.fault.stall_ms, &err)) {
      return Status::InvalidArgument(err);
    }
  }
  if (out.inputs.empty()) {
    return Status::InvalidArgument(
        "request has no documents (give \"inputs\" paths or inline \"xml\")");
  }
  return out;
}

// Streams a fault-injected request: the single input document is wrapped in
// a FaultInjectingSource between the parser and the plan's projection, then
// runs through the same compiled plan (from the service's cache) a normal
// request uses. The fault source skips subtrees by pulling them, so fault
// positions count every event.
Status ExecuteWithFault(QueryService* service, const WireRequest& wire,
                        const CancelToken* cancel, OutputSink* sink,
                        ServiceRequestStats* stats) {
  if (wire.inputs.size() != 1) {
    return Status::InvalidArgument(
        "fault injection supports exactly one input document");
  }
  const ParallelInput& in = wire.inputs[0];
  if (in.kind != ParallelInput::Kind::kXmlText &&
      in.kind != ParallelInput::Kind::kXmlFile) {
    return Status::InvalidArgument(
        "fault injection supports text XML inputs only");
  }
  XQMFT_ASSIGN_OR_RETURN(
      QueryCacheLookup lookup,
      service->LookupPlan(wire.req.query, wire.req.no_opt));
  stats->cache_hit = lookup.hit;
  stats->compile_ms = lookup.compile_ms;

  XQMFT_ASSIGN_OR_RETURN(OpenedInput opened, OpenParallelInput(in));
  FaultInjectingSource events(opened.events.get(), wire.fault);

  StreamStats ss;
  auto t0 = std::chrono::steady_clock::now();
  Status st = lookup.plan->StreamEvents(&events, sink, &ss, cancel);
  stats->stream_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  stats->per_input.push_back(ss);
  stats->total = AggregateStreamStats(stats->per_input);
  return st;
}

// One ExecuteBatch pass into fresh string sinks, one per request.
struct BatchRun {
  Status status;          // ExecuteBatch's result
  bool rejected = false;  // batch-level rejection: nothing ran
  std::vector<StringSink> sinks;
  ServiceBatchStats stats;
};

BatchRun RunBatch(QueryService* service,
                  const std::vector<ParallelInput>& inputs,
                  const std::vector<ServiceRequest>& requests,
                  const RunOptions& options) {
  BatchRun run;
  run.sinks.resize(requests.size());
  std::vector<OutputSink*> sink_ptrs;
  for (StringSink& sink : run.sinks) sink_ptrs.push_back(&sink);
  run.status = service->ExecuteBatch(inputs, requests, sink_ptrs, &run.stats,
                                     options);
  run.rejected = run.stats.per_request.size() != requests.size();
  return run;
}

}  // namespace

StatusCode RequestHandler::AppendRun(std::string* out, const JsonValue* id,
                                     const Status& st,
                                     const ServiceRequestStats& stats,
                                     const std::string& output,
                                     bool batch_member) {
  if (!st.ok()) return AppendError(out, id, st);
  if (options_.run_observer) options_.run_observer(stats.total);
  ResponseWriter w(id);
  w.Raw("ok", "true");
  w.Number("bytes", output.size());
  w.Field("cache", stats.cache_hit ? "hit" : "miss");
  w.Number("compile_ms", stats.compile_ms);
  w.Number("stream_ms", stats.stream_ms);
  if (batch_member) {
    w.Raw("deduped", stats.deduped ? "true" : "false");
    w.Number("events_fed", stats.events_fed);
    w.Number("events_skipped", stats.events_skipped);
  } else {
    w.Number("bytes_in", stats.total.bytes_in);
  }
  w.Number("output_events", stats.total.output_events);
  w.Number("peak_mem_bytes", stats.total.peak_bytes);
  w.Field("engine", stats.total.used_ops_engine ? "ops" : "table");
  // How much of the plan ran on the opcode engine; "no" for a table run.
  w.Field("lowered", stats.total.used_ops_engine ? "full" : "no");
  if (!batch_member) {
    QueryCacheStats cache = service_->cache()->stats();
    w.Number("cache_hits", cache.hits);
    w.Number("cache_misses", cache.misses);
    w.Number("cache_entries", cache.entries);
  }
  w.FinishLine(out);
  *out += output;
  *out += "\n";
  return StatusCode::kOk;
}

StatusCode RequestHandler::HandleLine(std::string_view line,
                                      CancelToken* cancel, std::string* out) {
  if (options_.limits.max_line_bytes != 0 &&
      line.size() > options_.limits.max_line_bytes) {
    AppendOverlongLineResponse(out, options_.limits.max_line_bytes);
    return StatusCode::kInvalidArgument;
  }
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return AppendError(out, nullptr, parsed.status());
  return HandleParsed(parsed.value(), cancel, out);
}

StatusCode RequestHandler::HandleParsed(const JsonValue& json,
                                        CancelToken* cancel,
                                        std::string* out) {
  if (!json.is_object()) {
    return AppendError(out, nullptr, Status::InvalidArgument(
                                         "request must be a JSON object"));
  }
  const JsonValue* id = json.Find("id");

  if (const JsonValue* cmd = json.Find("cmd")) {
    if (cmd->is_string()) {
      if (options_.cmd_hook && options_.cmd_hook(cmd->string, id, out)) {
        return StatusCode::kOk;
      }
      if (cmd->string == "stats") {
        const QueryCacheStats stats = service_->cache()->stats();
        ResponseWriter fields(nullptr);
#define XQMFT_STATS_FIELD(type, name) fields.Number(#name, stats.name);
        XQMFT_QUERY_CACHE_STATS(XQMFT_STATS_FIELD)
#undef XQMFT_STATS_FIELD
        ResponseWriter w(id);
        w.Raw("ok", "true");
        w.Raw("stats", fields.Finish());
        w.FinishLine(out);
        return StatusCode::kOk;
      }
    }
    AppendErrorResponse(out, id, "unknown \"cmd\"",
                        StatusCode::kInvalidArgument);
    return StatusCode::kInvalidArgument;
  }

  if (json.Find("queries") != nullptr) {
    return HandleBatch(json, id, cancel, out);
  }

  Result<WireRequest> request = BuildRequest(json, options_);
  if (!request.ok()) return AppendError(out, id, request.status());
  WireRequest& wire = request.value();
  CancelToken local;
  RunOptions run_options;
  run_options.threads = wire.threads;
  run_options.cancel = ArmDeadline(cancel, wire.deadline_ms, &local);
  if (wire.fault.kind != FaultSpec::Kind::kNone) {
    StringSink sink;
    ServiceRequestStats stats;
    Status st =
        ExecuteWithFault(service_, wire, run_options.cancel, &sink, &stats);
    return AppendRun(out, id, st, stats, sink.str(), /*batch_member=*/false);
  }
  // A single request is a batch of one.
  BatchRun run =
      RunBatch(service_, wire.inputs, {std::move(wire.req)}, run_options);
  if (run.rejected) return AppendError(out, id, run.status);
  const ServiceRequestStats& rs = run.stats.per_request.front();
  return AppendRun(out, id, rs.status, rs, run.sinks.front().str(),
                   /*batch_member=*/false);
}

StatusCode RequestHandler::HandleBatch(const JsonValue& json,
                                       const JsonValue* id,
                                       CancelToken* cancel, std::string* out) {
  auto reject = [&](const Status& st) { return AppendError(out, id, st); };
  const JsonValue* queries = json.Find("queries");
  if (!queries->is_array() || queries->items.empty()) {
    return reject(
        Status::InvalidArgument("\"queries\" must be a non-empty array"));
  }
  std::vector<ParallelInput> inputs;
  Status in_st = ParseInputs(json, options_.limits, &inputs);
  if (!in_st.ok()) return reject(in_st);
  if (inputs.empty()) {
    return reject(Status::InvalidArgument(
        "batch has no documents (give \"inputs\" paths or inline \"xml\")"));
  }
  RunOptions multi;
  multi.threads = options_.default_threads;
  std::uint64_t deadline_ms = 0;
  std::string err;
  if (!ParseBool(json, "union_projection", &multi.union_projection, &err) ||
      !ParseCount(json, "deadline_ms", &deadline_ms, &err)) {
    return reject(Status::InvalidArgument(err));
  }
  // The batch shares one pass per document, so the deadline is batch-wide:
  // a trip aborts every query still streaming.
  CancelToken local;
  multi.cancel = ArmDeadline(cancel, deadline_ms, &local);

  std::vector<ServiceRequest> requests;
  std::vector<const JsonValue*> ids;
  for (const JsonValue& item : queries->items) {
    const JsonValue* query = item.is_object() ? item.Find("query") : nullptr;
    if (query == nullptr || !query->is_string()) {
      return reject(Status::InvalidArgument(
          "every \"queries\" entry needs an object with a string \"query\""));
    }
    ServiceRequest req;
    req.query = query->string;
    if (!ParseBool(item, "no_opt", &req.no_opt, &err)) {
      return reject(Status::InvalidArgument(err));
    }
    ids.push_back(item.Find("id"));
    requests.push_back(std::move(req));
  }

  BatchRun run = RunBatch(service_, inputs, requests, multi);
  if (run.rejected) return reject(run.status);  // nothing ran
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequestStats& rs = run.stats.per_request[i];
    AppendRun(out, ids[i], rs.status, rs, run.sinks[i].str(),
              /*batch_member=*/true);
  }

  const ServiceBatchStats& stats = run.stats;
  ResponseWriter w(id);
  w.Raw("ok", run.status.ok() ? "true" : "false");
  w.Raw("batch", "true");
  w.Number("requests", requests.size());
  w.Number("documents", stats.documents);
  w.Number("parsed_bytes", stats.parsed_bytes);
  w.Number("unique_plans", stats.unique_plans);
  w.Number("deduped_requests", stats.deduped_requests);
  w.Number("stream_ms", stats.stream_ms);
  w.FinishLine(out);
  return run.status.code();
}

}  // namespace xqmft
