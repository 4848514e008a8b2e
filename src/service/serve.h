// The multi-query serving loop behind the CLI's `serve` mode.
//
// Protocol: newline-delimited JSON requests on `in`, framed responses on
// `out`. One request per line:
//
//   {"query": "<out>{$input//a}</out>",   // required
//    "inputs": ["doc.xml", "cache.ptk"],  // file paths (format sniffed)
//    "xml": ["<doc><a/></doc>"],          // inline documents (after inputs)
//    "threads": 2,                        // optional, default_threads
//    "no_opt": false,                     // optional
//    "deadline_ms": 250,                  // optional wall-clock budget
//    "id": 7}                             // optional, echoed verbatim
//
//   {"cmd": "stats"}                      // cache statistics snapshot
//
// Multi-query batch: a "queries" array replaces "query" — every listed
// query streams over the shared document list in ONE pass per document
// (one tokenization, duplicate queries deduplicated onto one engine, a
// union projection automaton skipping subtrees no query can match), the
// documents spread over default_threads workers:
//
//   {"queries": [{"query": "...", "id": 1},
//                {"query": "...", "id": 2, "no_opt": true}],
//    "inputs": [...], "xml": [...],       // shared by every query
//    "union_projection": true,            // optional, default true
//    "deadline_ms": 250,                  // optional, batch-wide
//    "id": "batch-7"}                     // optional, echoed on the summary
//
// The response is one framed per-query response per entry — emitted in
// REQUEST ORDER with each entry's "id" echoed, whatever order the engines
// finish in — followed by a single batch summary line:
//
//   {"id":1,"ok":true,"bytes":12,...}     + 12 bytes + newline
//   {"id":2,"ok":false,"error":"..."}     (failures are isolated per query)
//   {"id":"batch-7","ok":true,"batch":true,"requests":2,"documents":1,
//    "parsed_bytes":512,"unique_plans":2,"deduped_requests":0,...}
//
// Each response is one JSON header line; successful query responses are
// followed by exactly `bytes` bytes of serialized output and a trailing
// newline. The header's "engine" field reports which streaming engine
// served the request: "ops" when the lowered opcode engine ran (any input,
// for aggregated stats), "table" otherwise (see lower/lower.h):
//
//   {"id":7,"ok":true,"bytes":27,"cache":"hit","engine":"ops", ...}
//   <out>...</out>
//
// A malformed or failing request produces
// {"ok":false,"error":"...","status":"<token>"} — the "status" field is the
// machine-readable outcome (wire.h: "invalid_argument",
// "deadline_exceeded", ...) — and the loop continues: one bad request never
// kills the session. Hardening (shared with the socket server, see
// ServeOptions::limits): a request line longer than max_line_bytes is
// discarded and rejected without being buffered, inline "xml" documents are
// capped in total bytes, and "deadline_ms" aborts a slow request
// mid-stream via the engines' cooperative cancellation. EOF on `in` ends
// the loop.
#ifndef XQMFT_SERVICE_SERVE_H_
#define XQMFT_SERVICE_SERVE_H_

#include <cstdio>

#include "service/query_service.h"
#include "service/wire.h"
#include "util/status.h"

namespace xqmft {

/// Request-execution knobs, shared with the socket server
/// (NetServerOptions derives from this).
struct ServeOptions {
  QueryCacheOptions cache;
  /// Base compile options for every request (per-request no_opt overrides
  /// optimize).
  PipelineOptions pipeline;
  /// Worker threads of a single request that does not say and of every
  /// "queries" batch (0 = hardware, 1 = serial).
  std::size_t default_threads = 1;
  /// Request line / inline document size caps (wire.h).
  RequestLimits limits;
  /// Accept the per-request "fault" field (service/fault.h) — test/stress
  /// harness, off by default.
  bool allow_fault_injection = false;
};

/// Runs the request/response loop until EOF on `in`. Per-request failures
/// become error responses; the returned Status is non-OK only for loop-level
/// failures (e.g. an unwritable `out`).
Status ServeLoop(std::FILE* in, std::FILE* out, const ServeOptions& options);

}  // namespace xqmft

#endif  // XQMFT_SERVICE_SERVE_H_
