#include "service/wire.h"

#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "service/fault.h"
#include "stream/engine.h"
#include "util/strings.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

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

std::string CoalesceKey(const JsonValue& json) {
  if (!json.is_object()) return std::string();
  // Forms with their own execution paths (cmd, batch), per-request source
  // wrapping (fault), or request-level execution knobs the shared pass
  // ignores (threads) stay on the single-request path.
  if (json.Find("cmd") != nullptr || json.Find("queries") != nullptr ||
      json.Find("fault") != nullptr || json.Find("threads") != nullptr) {
    return std::string();
  }
  const JsonValue* query = json.Find("query");
  if (query == nullptr || !query->is_string()) return std::string();
  const JsonValue* inputs = json.Find("inputs");
  const JsonValue* xml = json.Find("xml");
  auto strings_only = [](const JsonValue* v) {
    if (v == nullptr) return true;
    if (!v->is_array()) return false;
    for (const JsonValue& item : v->items) {
      if (!item.is_string()) return false;
    }
    return true;
  };
  if (!strings_only(inputs) || !strings_only(xml)) return std::string();
  if ((inputs == nullptr || inputs->items.empty()) &&
      (xml == nullptr || xml->items.empty())) {
    return std::string();  // no documents: the single path owns the error
  }
  // JSON-serialized field lists: two requests with equal keys parse into
  // identical ParallelInput lists, i.e. the same ExecuteBatch InputsKey.
  std::string key = "i";
  if (inputs != nullptr) AppendJsonValue(&key, *inputs);
  key += "x";
  if (xml != nullptr) AppendJsonValue(&key, *xml);
  return key;
}

namespace {

// Appends the error response for `st`; returns its code.
StatusCode AppendError(std::string* out, const JsonValue* id,
                       const Status& st) {
  AppendErrorResponse(out, id, st.ToString(), st.code());
  return st.code();
}

// Reads a non-negative integer field into *value; false (with an error
// appended to *err) on a malformed one, true otherwise (absent = untouched).
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

// A single request plus its optional fault directive (which is wire-layer
// state, not part of the service request).
struct WireRequest {
  ServiceRequest req;
  FaultSpec fault;
};

// Builds the request from its parsed JSON; error strings are user-facing.
Result<WireRequest> BuildRequest(const JsonValue& json,
                                 const WireOptions& options) {
  WireRequest out;
  ServiceRequest& req = out.req;
  req.threads = options.default_threads;
  const JsonValue* query = json.Find("query");
  if (query == nullptr || !query->is_string()) {
    return Status::InvalidArgument("request needs a string \"query\" field");
  }
  req.query = query->string;
  XQMFT_RETURN_NOT_OK(ParseInputs(json, options.limits, &req.inputs));
  if (const JsonValue* threads = json.Find("threads")) {
    if (!threads->is_number() || threads->number < 0 ||
        threads->number != std::floor(threads->number)) {
      return Status::InvalidArgument("\"threads\" must be a count >= 0");
    }
    req.threads = static_cast<std::size_t>(threads->number);
  }
  std::string err;
  if (!ParseBool(json, "no_opt", &req.no_opt, &err) ||
      !ParseCount(json, "deadline_ms", &req.deadline_ms, &err)) {
    return Status::InvalidArgument(err);
  }
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
  if (req.inputs.empty()) {
    return Status::InvalidArgument(
        "request has no documents (give \"inputs\" paths or inline \"xml\")");
  }
  return out;
}

// Streams a fault-injected request: the single input document is wrapped in
// a FaultInjectingSource between the parser and the engine, then runs
// through the same compiled plan (from the service's cache) a normal
// request would use.
Status ExecuteWithFault(QueryService* service, const ServiceRequest& req,
                        const FaultSpec& fault, CancelToken* cancel,
                        OutputSink* sink, ServiceRequestStats* stats) {
  if (req.inputs.size() != 1) {
    return Status::InvalidArgument(
        "fault injection supports exactly one input document");
  }
  const ParallelInput& in = req.inputs[0];
  if (in.kind != ParallelInput::Kind::kXmlText &&
      in.kind != ParallelInput::Kind::kXmlFile) {
    return Status::InvalidArgument(
        "fault injection supports text XML inputs only");
  }
  XQMFT_ASSIGN_OR_RETURN(QueryCacheLookup lookup,
                         service->LookupPlan(req.query, req.no_opt));
  stats->cache_hit = lookup.hit;
  stats->compile_ms = lookup.compile_ms;

  StreamOptions sopts = lookup.plan->options().stream;
  sopts.cancel = cancel;
  XQMFT_ASSIGN_OR_RETURN(OpenedInput opened, OpenParallelInput(in, sopts.sax));
  SaxParser parser(opened.bytes.get(), sopts.sax);
  FaultInjectingSource events(&parser, fault);

  StreamStats ss;
  auto t0 = std::chrono::steady_clock::now();
  Status st =
      StreamTransformEvents(lookup.plan->mft(), &events, sink, sopts, &ss);
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
                  const std::vector<ServiceRequest>& requests,
                  const MultiQueryOptions& multi) {
  BatchRun run;
  run.sinks.resize(requests.size());
  std::vector<OutputSink*> sink_ptrs;
  for (StringSink& sink : run.sinks) sink_ptrs.push_back(&sink);
  run.status = service->ExecuteBatch(requests, sink_ptrs, &run.stats, multi);
  run.rejected = run.stats.per_request.size() != requests.size();
  return run;
}

}  // namespace

struct RequestHandler::RunShape {
  /// A "queries" batch member: deduped/events_fed/events_skipped in place
  /// of bytes_in, and no cache_* totals.
  bool batch_member = false;
  /// Members of the coalesced pass ("coalesced":N); 0 = not coalesced.
  std::size_t coalesced = 0;
};

StatusCode RequestHandler::AppendRun(std::string* out, const JsonValue* id,
                                     const Status& st,
                                     const ServiceRequestStats& stats,
                                     const std::string& output,
                                     const RunShape& shape) {
  if (!st.ok()) return AppendError(out, id, st);
  if (options_.run_observer) options_.run_observer(stats.total);
  ResponseWriter w(id);
  w.Raw("ok", "true");
  w.Number("bytes", output.size());
  w.Field("cache", stats.cache_hit ? "hit" : "miss");
  w.Number("compile_ms", stats.compile_ms);
  w.Number("stream_ms", stats.stream_ms);
  if (shape.batch_member) {
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
  w.Field("lowered", !stats.total.used_ops_engine ? "no"
                     : stats.total.hybrid_plan    ? "hybrid"
                                                  : "full");
  if (shape.coalesced != 0) w.Number("coalesced", shape.coalesced);
  if (!shape.batch_member) {
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
  wire.req.cancel = cancel;

  StringSink sink;
  ServiceRequestStats stats;
  Status st;
  if (wire.fault.kind != FaultSpec::Kind::kNone) {
    CancelToken local;
    st = ExecuteWithFault(service_, wire.req, wire.fault,
                          ArmDeadline(cancel, wire.req.deadline_ms, &local),
                          &sink, &stats);
  } else {
    st = service_->Execute(wire.req, &sink, &stats);
  }
  return AppendRun(out, id, st, stats, sink.str(), RunShape{});
}

std::uint64_t RequestHandler::HandleCoalesced(std::vector<CoalescedJob>* group,
                                              std::size_t* shared_members) {
  if (shared_members != nullptr) *shared_members = 0;
  std::vector<std::size_t> live;       // group indices that reach the pass
  std::vector<const JsonValue*> ids(group->size(), nullptr);
  std::vector<ServiceRequest> requests;
  // Tokens for members a transport gave none, should a deadline need one.
  std::vector<CancelToken> local_tokens(group->size());
  for (std::size_t m = 0; m < group->size(); ++m) {
    CoalescedJob& job = (*group)[m];
    ids[m] = job.json->Find("id");
    // Expired or disconnected members are excluded before the shared run
    // starts — same contract as the worker's pre-execution check.
    if (job.cancel != nullptr) {
      Status pre = job.cancel->Check();
      if (!pre.ok()) {
        job.code = AppendError(job.out, ids[m], pre);
        continue;
      }
    }
    Result<WireRequest> request = BuildRequest(*job.json, options_);
    if (!request.ok()) {
      job.code = AppendError(job.out, ids[m], request.status());
      continue;
    }
    WireRequest& wire = request.value();
    wire.req.cancel =
        ArmDeadline(job.cancel, wire.req.deadline_ms, &local_tokens[m]);
    live.push_back(m);
    requests.push_back(std::move(wire.req));
  }
  if (live.empty()) return 0;

  BatchRun run = RunBatch(service_, requests, MultiQueryOptions{});
  if (run.rejected) {
    // Nothing ran; every member gets the error.
    for (std::size_t m : live) {
      (*group)[m].code = AppendError((*group)[m].out, ids[m], run.status);
    }
    return 0;
  }

  // The single-request response shape plus "coalesced": clients written
  // against the single path keep parsing, and can see the sharing.
  const RunShape shape{false, live.size()};
  for (std::size_t k = 0; k < live.size(); ++k) {
    CoalescedJob& job = (*group)[live[k]];
    const ServiceRequestStats& rs = run.stats.per_request[k];
    job.code = AppendRun(job.out, ids[live[k]], rs.status, rs,
                         run.sinks[k].str(), shape);
  }

  if (live.size() < 2) return 0;
  if (shared_members != nullptr) *shared_members = live.size();
  // Each document was tokenized once for the whole group instead of once
  // per member.
  return static_cast<std::uint64_t>(run.stats.documents) *
         static_cast<std::uint64_t>(live.size() - 1);
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
  MultiQueryOptions multi;
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
    req.inputs = inputs;
    if (!ParseBool(item, "no_opt", &req.no_opt, &err)) {
      return reject(Status::InvalidArgument(err));
    }
    ids.push_back(item.Find("id"));
    requests.push_back(std::move(req));
  }

  BatchRun run = RunBatch(service_, requests, multi);
  if (run.rejected) return reject(run.status);  // nothing ran
  const RunShape shape{true, 0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceRequestStats& rs = run.stats.per_request[i];
    AppendRun(out, ids[i], rs.status, rs, run.sinks[i].str(), shape);
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
