#include "service/query_service.h"

#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>
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

namespace {

// Groups are keyed by the exact document list (same kinds, same values,
// same order) and the worker count they run under. Length-prefixing keeps
// "ab"+"c" distinct from "a"+"bc".
std::string GroupKey(const ServiceRequest& request) {
  std::string key = std::to_string(request.threads) + ';';
  for (const ParallelInput& in : request.inputs) {
    key.push_back(static_cast<char>(static_cast<int>(in.kind)) + '0');
    key += std::to_string(in.value.size());
    key.push_back(':');
    key += in.value;
  }
  return key;
}

// One Run: requests over the same document list, one slot per distinct
// plan. `requests_for_plan[s]` lists every batch index whose output comes
// from slot s.
struct BatchGroup {
  const ServiceRequest* first = nullptr;  ///< its inputs and threads
  std::vector<const CompiledPlan*> plans;
  std::vector<std::vector<std::size_t>> requests_for_plan;
};

}  // namespace

Status QueryService::ExecuteBatch(const std::vector<ServiceRequest>& requests,
                                  const std::vector<OutputSink*>& sinks,
                                  ServiceBatchStats* stats,
                                  const RunOptions& run_options) {
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
  // pay for one compile between them.
  std::vector<std::shared_ptr<const CompiledPlan>> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A member whose token already tripped (deadline spent in the queue,
    // client disconnected) is excluded before the shared pass starts: no
    // compile, no slot, just its status.
    if (requests[i].cancel != nullptr) {
      Status pre = requests[i].cancel->Check();
      if (!pre.ok()) {
        per_request[i].status = pre;
        continue;
      }
    }
    if (requests[i].inputs.empty()) {
      per_request[i].status = Status::InvalidArgument("request has no inputs");
      continue;
    }
    Result<QueryCacheLookup> lookup =
        LookupPlan(requests[i].query, requests[i].no_opt);
    if (!lookup.ok()) {
      per_request[i].status = lookup.status();
      continue;
    }
    per_request[i].cache_hit = lookup.value().hit;
    per_request[i].compile_ms = lookup.value().compile_ms;
    plans[i] = std::move(lookup.value().plan);
  }

  // Group by document list, deduplicating plans within each group. The
  // cache returns one shared plan per distinct (normalized query, options),
  // so pointer identity is the dedup key.
  std::vector<BatchGroup> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  std::unordered_set<const CompiledPlan*> distinct_plans;
  std::size_t deduped_requests = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (plans[i] == nullptr) continue;
    auto [it, fresh] =
        group_index.emplace(GroupKey(requests[i]), groups.size());
    if (fresh) groups.emplace_back();
    BatchGroup& group = groups[it->second];
    if (group.first == nullptr) group.first = &requests[i];
    std::size_t slot = group.plans.size();
    for (std::size_t s = 0; s < group.plans.size(); ++s) {
      if (group.plans[s] == plans[i].get()) { slot = s; break; }
    }
    if (slot == group.plans.size()) {
      group.plans.push_back(plans[i].get());
      group.requests_for_plan.emplace_back();
    } else {
      per_request[i].deduped = true;
      ++deduped_requests;
    }
    group.requests_for_plan[slot].push_back(i);
    distinct_plans.insert(plans[i].get());
  }

  std::size_t documents = 0;
  std::uint64_t parsed_bytes = 0;
  double total_stream_ms = 0.0;
  for (BatchGroup& group : groups) {
    const std::size_t slots = group.plans.size();
    // A slot serving one member streams straight into its sink; a deduped
    // slot records once and replays to each member below.
    std::vector<EventBuffer> buffers(slots);
    std::vector<OutputSink*> slot_sinks(slots);
    // A slot serving exactly one member (or members sharing one token)
    // streams under that member's cancel token, so a disconnect or deadline
    // detaches it mid-pass through the per-plan isolation path. A deduped
    // slot with several independent members keeps streaming while any of
    // them might still want the output; a tripped member is denied at
    // replay time below instead.
    std::vector<const CancelToken*> slot_cancel(slots, nullptr);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::vector<std::size_t>& members = group.requests_for_plan[s];
      slot_sinks[s] = members.size() == 1 ? sinks[members.front()]
                                          : &buffers[s];
      const CancelToken* shared = requests[members.front()].cancel;
      for (std::size_t i : members) {
        if (requests[i].cancel != shared) { shared = nullptr; break; }
      }
      slot_cancel[s] = shared;
    }
    RunOptions options = run_options;
    options.threads = group.first->threads;
    if (options.cancel == nullptr && slots == 1) {
      // One token for the whole run (a single request): the run's own,
      // polled across projection-skipped stretches too.
      options.cancel = slot_cancel.front();
    } else {
      options.per_plan_cancel = slot_cancel;
    }

    std::vector<RunResult> results;
    MultiQueryStats run_stats;
    auto t0 = std::chrono::steady_clock::now();
    Run(group.plans, group.first->inputs, slot_sinks, options, &results,
        &run_stats);
    double group_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    total_stream_ms += group_ms;
    documents += run_stats.documents;
    parsed_bytes += run_stats.bytes_in;

    for (std::size_t s = 0; s < slots; ++s) {
      for (std::size_t i : group.requests_for_plan[s]) {
        per_request[i].status = results[s].status;
        per_request[i].stream_ms = group_ms;
        per_request[i].per_input = results[s].per_input;
        per_request[i].total = AggregateStreamStats(results[s].per_input);
        per_request[i].events_fed = results[s].events_fed;
        per_request[i].events_skipped = run_stats.events_skipped;
        if (!results[s].status.ok()) continue;
        // A member whose own token tripped while a shared (deduped) slot
        // kept streaming for its siblings gets its token's status, not a
        // replay — nobody is waiting for those bytes.
        if (requests[i].cancel != nullptr) {
          Status member = requests[i].cancel->Check();
          if (!member.ok()) {
            per_request[i].status = member;
            continue;
          }
        }
        if (slot_sinks[s] == &buffers[s]) buffers[s].Replay(sinks[i]);
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
    stats->documents = documents;
    stats->parsed_bytes = parsed_bytes;
    stats->unique_plans = distinct_plans.size();
    stats->deduped_requests = deduped_requests;
    stats->stream_ms = total_stream_ms;
    stats->per_request = std::move(per_request);
  }
  if (stats == nullptr || failed == n) return first_failure;
  return Status::OK();
}

}  // namespace xqmft
