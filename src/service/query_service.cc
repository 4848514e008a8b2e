#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "parallel/merge_sink.h"

namespace xqmft {

StreamStats AggregateStreamStats(const std::vector<StreamStats>& per_input) {
  StreamStats out;
  for (const StreamStats& s : per_input) {
    if (s.peak_bytes > out.peak_bytes) out.peak_bytes = s.peak_bytes;
    out.final_bytes += s.final_bytes;
    out.rule_applications += s.rule_applications;
    out.cells_created += s.cells_created;
    out.cells_arena += s.cells_arena;
    out.exprs_created += s.exprs_created;
    out.bytes_in += s.bytes_in;
    out.subtrees_skipped += s.subtrees_skipped;
    out.bytes_skipped += s.bytes_skipped;
    out.output_events += s.output_events;
    out.used_ops_engine = out.used_ops_engine || s.used_ops_engine;
  }
  return out;
}

QueryService::QueryService(QueryCacheOptions cache_options,
                           PipelineOptions base_options)
    : base_options_(base_options), cache_(cache_options) {}

Result<QueryCacheLookup> QueryService::LookupPlan(const std::string& query,
                                                  bool no_opt) {
  PipelineOptions options = base_options_;
  if (no_opt) options.optimize = false;
  return cache_.Lookup(query, options);
}

Status QueryService::ExecuteBatch(const std::vector<ParallelInput>& inputs,
                                  const std::vector<ServiceRequest>& requests,
                                  const std::vector<OutputSink*>& sinks,
                                  ServiceBatchStats* stats,
                                  const RunOptions& options) {
  if (inputs.empty()) {
    return Status::InvalidArgument("batch has no documents");
  }
  if (requests.empty()) {
    return Status::InvalidArgument("batch has no requests");
  }
  if (requests.size() != sinks.size()) {
    return Status::InvalidArgument("batch needs one sink per request");
  }
  for (OutputSink* sink : sinks) {
    if (sink == nullptr) return Status::InvalidArgument("null sink in batch");
  }

  const std::size_t n = requests.size();
  std::vector<ServiceRequestStats> per_request(n);

  // Resolve every plan through the cache up front: compile cost (and the
  // hit/miss attribution) is per-request even though streaming is shared,
  // and the cache's singleflight means two requests spelling the same query
  // pay for one compile between them. The cache returns one shared plan per
  // distinct (normalized query, options), so pointer identity is the dedup
  // key: `requests_for_plan[s]` lists every request whose output comes from
  // plan s.
  std::vector<std::shared_ptr<const CompiledPlan>> owned;
  std::vector<const CompiledPlan*> plans;
  std::vector<std::vector<std::size_t>> requests_for_plan;
  std::size_t deduped_requests = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Result<QueryCacheLookup> lookup =
        LookupPlan(requests[i].query, requests[i].no_opt);
    if (!lookup.ok()) {
      per_request[i].status = lookup.status();
      continue;
    }
    per_request[i].cache_hit = lookup.value().hit;
    per_request[i].compile_ms = lookup.value().compile_ms;
    const CompiledPlan* plan = lookup.value().plan.get();
    const std::size_t slot =
        std::find(plans.begin(), plans.end(), plan) - plans.begin();
    if (slot == plans.size()) {
      owned.push_back(std::move(lookup.value().plan));
      plans.push_back(plan);
      requests_for_plan.emplace_back();
    } else {
      per_request[i].deduped = true;
      ++deduped_requests;
    }
    requests_for_plan[slot].push_back(i);
  }

  MultiQueryStats run_stats;
  double stream_ms = 0.0;
  if (!plans.empty()) {
    // A plan serving one request streams straight into its sink; a deduped
    // plan records once and replays to each request below.
    std::vector<EventBuffer> buffers(plans.size());
    std::vector<OutputSink*> plan_sinks(plans.size());
    for (std::size_t s = 0; s < plans.size(); ++s) {
      const std::vector<std::size_t>& members = requests_for_plan[s];
      plan_sinks[s] = members.size() == 1 ? sinks[members.front()]
                                          : &buffers[s];
    }
    std::vector<RunResult> results;
    auto t0 = std::chrono::steady_clock::now();
    Run(plans, inputs, plan_sinks, options, &results, &run_stats);
    stream_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    for (std::size_t s = 0; s < plans.size(); ++s) {
      for (std::size_t i : requests_for_plan[s]) {
        per_request[i].status = results[s].status;
        per_request[i].stream_ms = stream_ms;
        per_request[i].per_input = results[s].per_input;
        per_request[i].total = AggregateStreamStats(results[s].per_input);
        per_request[i].events_fed = results[s].events_fed;
        per_request[i].events_skipped = run_stats.events_skipped;
        if (results[s].status.ok() && plan_sinks[s] == &buffers[s]) {
          buffers[s].Replay(sinks[i]);
        }
      }
    }
  }

  Status first_failure = Status::OK();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (per_request[i].status.ok()) continue;
    ++failed;
    if (first_failure.ok()) first_failure = per_request[i].status;
  }
  if (stats != nullptr) {
    stats->documents = run_stats.documents;
    stats->parsed_bytes = run_stats.bytes_in;
    stats->unique_plans = plans.size();
    stats->deduped_requests = deduped_requests;
    stats->stream_ms = stream_ms;
    stats->per_request = std::move(per_request);
  }
  if (stats == nullptr || failed == n) return first_failure;
  return Status::OK();
}

}  // namespace xqmft
