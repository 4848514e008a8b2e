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
    out.output_events += s.output_events;
    out.used_ops_engine = out.used_ops_engine || s.used_ops_engine;
    out.bridge_runs += s.bridge_runs;
    out.hybrid_plan = out.hybrid_plan || s.hybrid_plan;
  }
  return out;
}

CancelToken* ArmDeadline(CancelToken* caller, std::uint64_t deadline_ms,
                         CancelToken* local) {
  CancelToken* token = caller;
  if (deadline_ms > 0) {
    if (token == nullptr) token = local;
    if (!token->has_deadline()) token->SetDeadlineAfterMs(deadline_ms);
  }
  return token;
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

Status QueryService::Execute(const ServiceRequest& request, OutputSink* sink,
                             ServiceRequestStats* stats) {
  if (request.inputs.empty()) {
    return Status::InvalidArgument("request has no inputs");
  }
  XQMFT_ASSIGN_OR_RETURN(QueryCacheLookup lookup,
                         LookupPlan(request.query, request.no_opt));

  ParallelOptions par;
  par.threads = request.threads;
  CancelToken local_token;
  par.cancel = ArmDeadline(request.cancel, request.deadline_ms, &local_token);
  std::vector<StreamStats> per_input;
  auto t0 = std::chrono::steady_clock::now();
  Status st = lookup.plan->StreamMany(request.inputs, sink, par, &per_input);
  double stream_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  if (stats != nullptr) {
    stats->cache_hit = lookup.hit;
    stats->compile_ms = lookup.compile_ms;
    stats->stream_ms = stream_ms;
    stats->total = AggregateStreamStats(per_input);
    stats->per_input = std::move(per_input);
  }
  return st;
}

namespace {

// Groups are keyed by the exact document list: same kinds, same values, same
// order. Length-prefixing keeps "ab"+"c" distinct from "a"+"bc".
std::string InputsKey(const std::vector<ParallelInput>& inputs) {
  std::string key;
  for (const ParallelInput& in : inputs) {
    key.push_back(static_cast<char>(static_cast<int>(in.kind)) + '0');
    key += std::to_string(in.value.size());
    key.push_back(':');
    key += in.value;
  }
  return key;
}

// One shared streaming pass: requests over the same document list, one slot
// per distinct plan. `requests_for_plan[s]` lists every batch index whose
// output replays from slot s.
struct BatchGroup {
  const std::vector<ParallelInput>* inputs = nullptr;
  std::vector<const CompiledPlan*> plans;
  std::vector<std::vector<std::size_t>> requests_for_plan;
};

}  // namespace

Status QueryService::ExecuteBatch(const std::vector<ServiceRequest>& requests,
                                  const std::vector<OutputSink*>& sinks,
                                  ServiceBatchStats* stats,
                                  const MultiQueryOptions& multi_options) {
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
        group_index.emplace(InputsKey(requests[i].inputs), groups.size());
    if (fresh) groups.emplace_back();
    BatchGroup& group = groups[it->second];
    if (group.inputs == nullptr) group.inputs = &requests[i].inputs;
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
    std::vector<EventBuffer> buffers(slots);
    std::vector<Status> slot_status(slots, Status::OK());
    std::vector<std::vector<StreamStats>> slot_inputs(slots);
    std::vector<std::uint64_t> slot_events_fed(slots, 0);
    std::uint64_t group_skipped = 0;

    // A slot serving exactly one member (or members sharing one token)
    // streams under that member's cancel token, so a disconnect or deadline
    // detaches it mid-pass through the per-plan isolation path. A deduped
    // slot with several independent members keeps streaming while any of
    // them might still want the output; a tripped member is denied at
    // replay time below instead.
    std::vector<const CancelToken*> slot_cancel(slots, nullptr);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::vector<std::size_t>& members = group.requests_for_plan[s];
      const CancelToken* shared =
          members.empty() ? nullptr : requests[members.front()].cancel;
      for (std::size_t i : members) {
        if (requests[i].cancel != shared) { shared = nullptr; break; }
      }
      slot_cancel[s] = shared;
    }

    auto t0 = std::chrono::steady_clock::now();
    for (const ParallelInput& doc : *group.inputs) {
      // A slot that failed on an earlier document is done: the serial
      // equivalent (Execute aborting the whole request on first error)
      // never reaches the later documents either.
      std::vector<const CompiledPlan*> live_plans;
      std::vector<OutputSink*> live_sinks;
      std::vector<std::size_t> live_slots;
      for (std::size_t s = 0; s < slots; ++s) {
        if (!slot_status[s].ok()) continue;
        live_plans.push_back(group.plans[s]);
        live_sinks.push_back(&buffers[s]);
        live_slots.push_back(s);
      }
      if (live_plans.empty()) break;

      MultiQueryOptions pass_options = multi_options;
      pass_options.per_plan_cancel.reserve(live_slots.size());
      for (std::size_t s : live_slots) {
        pass_options.per_plan_cancel.push_back(slot_cancel[s]);
      }

      std::vector<MultiPlanResult> results;
      MultiQueryStats run_stats;
      Status st = StreamAllTransformInput(live_plans, doc, live_sinks,
                                          pass_options, &results, &run_stats);
      ++documents;
      parsed_bytes += run_stats.bytes_in;
      group_skipped += run_stats.events_skipped;
      if (results.size() == live_slots.size()) {
        for (std::size_t k = 0; k < live_slots.size(); ++k) {
          std::size_t s = live_slots[k];
          slot_inputs[s].push_back(results[k].stats);
          slot_events_fed[s] += results[k].events_fed;
          if (!results[k].status.ok()) slot_status[s] = results[k].status;
        }
      } else if (!st.ok()) {
        // Setup-level rejection (e.g. mixed tokenization options within the
        // group) never reached the engines; it fails every live slot.
        for (std::size_t s : live_slots) slot_status[s] = st;
      }
    }
    double group_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    total_stream_ms += group_ms;

    for (std::size_t s = 0; s < slots; ++s) {
      for (std::size_t i : group.requests_for_plan[s]) {
        per_request[i].status = slot_status[s];
        per_request[i].stream_ms = group_ms;
        per_request[i].per_input = slot_inputs[s];
        per_request[i].total = AggregateStreamStats(slot_inputs[s]);
        per_request[i].events_fed = slot_events_fed[s];
        per_request[i].events_skipped = group_skipped;
        if (!slot_status[s].ok()) continue;
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
        buffers[s].Replay(sinks[i]);
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
