// Multi-query serving: (cached plan × document list) execution.
//
// A QueryService owns the process-wide QueryCache and executes requests of
// the shape "these queries over these documents". It has one execution
// path, ExecuteBatch: the requests' distinct plans stream the documents in
// one Run (core/pipeline.h: one pass per document, documents spread over
// the run's threads, ordered merge) under one RunOptions, so responses are
// byte-identical to streaming the inputs serially whatever the thread
// count. A single request is a batch of one. Compile cost is paid at most
// once per distinct query and reported separately from stream cost in the
// per-request stats (xqbench `serve` reads both from the response headers).
#ifndef XQMFT_SERVICE_QUERY_SERVICE_H_
#define XQMFT_SERVICE_QUERY_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "service/query_cache.h"
#include "util/status.h"

namespace xqmft {

/// \brief One query of a batch; the documents and run options are the
/// batch's.
struct ServiceRequest {
  std::string query;
  /// Skip the Section 4.1 optimizations (measurement requests).
  bool no_opt = false;
};

/// \brief What one request cost, compile and stream separated.
struct ServiceRequestStats {
  bool cache_hit = false;
  double compile_ms = 0.0;  ///< 0 when the plan was cached
  double stream_ms = 0.0;   ///< the wall time of the batch's Run
  std::vector<StreamStats> per_input;
  StreamStats total;  ///< summed; peak_bytes is the max across inputs
  /// Per-request outcome: batch execution isolates failures, so a bad query
  /// or a mid-stream engine error lands here instead of failing the batch.
  Status status = Status::OK();
  /// True when another request in the batch resolved to the same plan: this
  /// request's output is a replay of the sibling's engine run, not a second
  /// streaming pass.
  bool deduped = false;
  std::uint64_t events_fed = 0;  ///< events this request's engine consumed
  /// Events the union projection dropped at the shared source (identical
  /// for every request in the batch).
  std::uint64_t events_skipped = 0;
};

/// \brief Cost of one ExecuteBatch call, with shared work attributed once.
///
/// The headline counter is `parsed_bytes`: bytes tokenized across the batch
/// counted once per distinct document, however many requests read that
/// document — the single-parse property the multi-query engine exists for.
/// `per_request[i].total.bytes_in` still reports the conventional per-request
/// view (every byte its plans observed), so
/// sum(per_request[].total.bytes_in) >= parsed_bytes, with equality only
/// when no two requests share a document.
struct ServiceBatchStats {
  std::size_t documents = 0;         ///< documents streamed (each once)
  std::uint64_t parsed_bytes = 0;    ///< bytes tokenized, once per document
  std::size_t unique_plans = 0;      ///< distinct compiled plans streamed
  std::size_t deduped_requests = 0;  ///< requests replayed from a sibling
  double stream_ms = 0.0;            ///< wall time of the batch's Run
  std::vector<ServiceRequestStats> per_request;
};

/// Sums per-input statistics into one record. Peak memory is the max
/// engine-tracked peak across inputs (per-engine peaks need not coincide in
/// time); output staged in the ordered merge is not tracked and comes on
/// top.
StreamStats AggregateStreamStats(const std::vector<StreamStats>& per_input);

/// \brief Executes requests against a shared compile-once cache.
/// Thread-safe: concurrent ExecuteBatch calls share plans through the cache
/// and run independent engines.
class QueryService {
 public:
  explicit QueryService(QueryCacheOptions cache_options = {},
                        PipelineOptions base_options = {});

  /// Executes a batch of requests over one document list with shared work
  /// done once: the requests' distinct plans (deduplicated through the
  /// cache, so two spellings of one query share an engine) stream every
  /// document in one Run under `options` — a single pass per document under
  /// the union projection automaton, documents spread over
  /// `options.threads`, one cancel token for the whole batch. A plan with
  /// one request streams into its sink; a deduplicated plan replays its
  /// recorded output to each request. Responses are byte-identical to
  /// issuing each request alone.
  ///
  /// `sinks` parallels `requests`. Per-request failures (compile errors,
  /// engine errors) are isolated in `stats->per_request[i].status`; the
  /// returned Status is non-OK for batch-level problems (no documents, no
  /// requests, size mismatch), when `stats` is null (first failing request,
  /// lowest index), or when every request failed.
  Status ExecuteBatch(const std::vector<ParallelInput>& inputs,
                      const std::vector<ServiceRequest>& requests,
                      const std::vector<OutputSink*>& sinks,
                      ServiceBatchStats* stats = nullptr,
                      const RunOptions& options = {});

  /// The plan for `query` from the cache, compiled under the service's
  /// options; `no_opt` turns optimization off (it can only turn it off: a
  /// service configured unoptimized stays so for every request).
  Result<QueryCacheLookup> LookupPlan(const std::string& query, bool no_opt);

  QueryCache* cache() { return &cache_; }
  const QueryCache& cache() const { return cache_; }

 private:
  PipelineOptions base_options_;
  QueryCache cache_;
};

}  // namespace xqmft

#endif  // XQMFT_SERVICE_QUERY_SERVICE_H_
