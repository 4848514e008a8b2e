#include "core/pipeline.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "lower/lower.h"
#include "mft/dispatch.h"
#include "mft/interp.h"
#include "parallel/merge_sink.h"
#include "parallel/pretok_split.h"
#include "translate/translate.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {

namespace {

// A pretok stream tokenized under different SAX options replays different
// events; every pretok input is checked before it reaches an engine.
Status CheckPretokOptions(SaxOptions declared, SaxOptions expected,
                          const std::string& what) {
  if (!SameTokenization(declared, expected)) {
    return Status::InvalidArgument(
        "pretok stream " + what +
        " was tokenized under different SAX options than this pipeline; "
        "delete it to re-tokenize");
  }
  return Status::OK();
}

// Shared tail of both builders: reject per-run state in the immutable
// artifact and force every lazily-compiled piece of the Mft (dispatch
// tables, RHS symbol ids, the base symbol table) before the plan escapes —
// from here on the plan is read-only by construction.
Status FinishPlan(const Mft& mft, const PipelineOptions& options) {
  if (options.stream.validator != nullptr) {
    return Status::InvalidArgument(
        "a schema validator is per-run mutable state and cannot be baked "
        "into an immutable CompiledPlan; stream with per-run options via "
        "StreamTransform instead");
  }
  if (options.stream.cancel != nullptr) {
    return Status::InvalidArgument(
        "a cancel token is per-request state and cannot be baked into an "
        "immutable CompiledPlan; pass it per run via RunOptions or per-run "
        "StreamOptions instead");
  }
  XQMFT_RETURN_NOT_OK(mft.Validate());
  mft.dispatch();  // compile-once: warm before the plan is shareable
  // Warm the execution lowering too (or cache the not-lowerable verdict):
  // engine construction then only ever reads the immutable cached result,
  // keeping concurrent runs of a shared plan race-free.
  lower::GetLoweredPlan(mft);
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const CompiledPlan>> CompiledPlan::Compile(
    const std::string& query_text, PipelineOptions options) {
  std::shared_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->options_ = options;
  XQMFT_ASSIGN_OR_RETURN(plan->query_, ParseQuery(query_text));
  XQMFT_RETURN_NOT_OK(ValidateQuery(*plan->query_));
  XQMFT_ASSIGN_OR_RETURN(plan->raw_mft_, TranslateQuery(*plan->query_));
  if (options.optimize) {
    plan->mft_ = OptimizeMft(plan->raw_mft_, options.optimizer,
                             &plan->report_);
  } else {
    plan->mft_ = plan->raw_mft_;
    plan->report_.before = ComputeStats(plan->raw_mft_);
    plan->report_.after = plan->report_.before;
  }
  plan->projection_ = DeriveProjection(plan->query_.get());
  XQMFT_RETURN_NOT_OK(FinishPlan(plan->mft_, options));
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

Result<std::shared_ptr<const CompiledPlan>> CompiledPlan::FromMft(
    Mft mft, PipelineOptions options) {
  std::shared_ptr<CompiledPlan> plan(new CompiledPlan());
  plan->options_ = options;
  plan->mft_ = std::move(mft);
  plan->projection_ = DeriveProjection(nullptr);
  XQMFT_RETURN_NOT_OK(FinishPlan(plan->mft_, options));
  return std::shared_ptr<const CompiledPlan>(std::move(plan));
}

std::size_t CompiledPlan::ApproxBytes() const {
  // Rule storage dominated by RhsNodes; dispatch rows are width pointers per
  // state; symbols cost their entry plus name bytes. An estimate for cache
  // accounting, not an allocator measurement.
  const RuleDispatch& dispatch = mft_.dispatch();
  const SymbolTable& symbols = mft_.symbols();
  std::size_t bytes = sizeof(CompiledPlan);
  bytes += mft_.Size() * sizeof(RhsNode);
  if (has_query()) bytes += raw_mft_.Size() * sizeof(RhsNode);
  bytes += static_cast<std::size_t>(mft_.num_states()) *
           static_cast<std::size_t>(dispatch.width()) * sizeof(void*);
  for (std::size_t id = 0; id < symbols.size(); ++id) {
    bytes += sizeof(SymbolId) + 2 * sizeof(void*) +
             symbols.name(static_cast<SymbolId>(id)).size();
  }
  return bytes;
}

Status CompiledPlan::StreamFile(const std::string& path, OutputSink* sink,
                                StreamStats* stats) const {
  // mmap when available: the parser scans the mapping in place and file
  // input pays no stdio copy.
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                         MmapSource::Open(path));
  SaxParser parser(src.get(), options_.stream.sax);
  return StreamEvents(&parser, sink, stats);
}

Status CompiledPlan::StreamString(const std::string& xml, OutputSink* sink,
                                  StreamStats* stats) const {
  StringSource src(xml);
  SaxParser parser(&src, options_.stream.sax);
  return StreamEvents(&parser, sink, stats);
}

Status CompiledPlan::StreamEvents(EventSource* events, OutputSink* sink,
                                  StreamStats* stats,
                                  const CancelToken* cancel) const {
  // The one-plan pass of Run and StreamAllTransform*: MultiQueryRun's
  // serial PumpEngine loop behind the plan's source projection.
  RunOptions options;
  options.cancel = cancel;
  std::vector<MultiPlanResult> results;
  Status st =
      StreamAllTransformEvents({this}, events, {sink}, options, &results);
  if (stats != nullptr && !results.empty()) *stats = results.front().stats;
  return st;
}

Result<OpenedInput> OpenParallelInput(const ParallelInput& input,
                                      const SaxOptions& sax) {
  OpenedInput opened;
  switch (input.kind) {
    case ParallelInput::Kind::kXmlFile: {
      // mmap when available: the parser scans the mapping in place.
      XQMFT_ASSIGN_OR_RETURN(opened.bytes, MmapSource::Open(input.value));
      opened.events = std::make_unique<SaxParser>(opened.bytes.get(), sax);
      return opened;
    }
    case ParallelInput::Kind::kPretokFile: {
      XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<PretokSource> src,
                             PretokSource::OpenFile(input.value));
      XQMFT_RETURN_NOT_OK(
          CheckPretokOptions(src->declared_options(), sax, input.value));
      opened.events = std::move(src);
      return opened;
    }
    case ParallelInput::Kind::kXmlText:
      opened.bytes = std::make_unique<StringSource>(input.value);
      opened.events = std::make_unique<SaxParser>(opened.bytes.get(), sax);
      return opened;
    case ParallelInput::Kind::kPretokBytes: {
      auto src = std::make_unique<PretokSource>(input.value);
      // A bad header surfaces as the source's first Next() error instead.
      if (src->header_ok()) {
        XQMFT_RETURN_NOT_OK(
            CheckPretokOptions(src->declared_options(), sax, "(in-memory)"));
      }
      opened.events = std::move(src);
      return opened;
    }
  }
  return Status::Internal("unknown ParallelInput kind");
}

Status CompiledPlan::StreamShardedPretok(std::string_view pretok,
                                         std::size_t shards, OutputSink* sink,
                                         const RunOptions& options,
                                         std::vector<StreamStats>* stats)
    const {
  if (shards == 0) {
    // Default: split at every top-level forest boundary (the splitter
    // clamps to the tree count). Deliberately NOT the worker count — on a
    // multi-tree forest the shard decomposition shapes the output (each
    // shard evaluates as its own document), so deriving it from
    // hardware_concurrency would make identical commands produce different
    // output on different machines. Finest-grain splitting is
    // input-deterministic and gives the scheduler the most parallelism;
    // threads only affect timing, never bytes.
    shards = std::numeric_limits<std::size_t>::max();
  }
  XQMFT_ASSIGN_OR_RETURN(PretokShardPlan shard_plan,
                         PlanPretokShards(pretok, shards));
  XQMFT_RETURN_NOT_OK(CheckPretokOptions(shard_plan.declared,
                                         options_.stream.sax, "(sharded)"));
  if (stats != nullptr) {
    stats->assign(shard_plan.shards.size(), StreamStats{});
  }
  // The request's cancel token (never baked — FinishPlan rejects it) rides
  // in per run and reaches every shard's pass.
  auto item = [&](std::size_t i, OutputSink* item_sink) -> Status {
    PretokShardSource src(&shard_plan, i);
    return StreamEvents(&src, item_sink,
                        stats != nullptr ? &(*stats)[i] : nullptr,
                        options.cancel);
  };
  return ShardedExecutor::Run(shard_plan.shards.size(), item, sink,
                              options.threads);
}

Status CompiledPlan::StreamShardedPretokFile(const std::string& path,
                                             std::size_t shards,
                                             OutputSink* sink,
                                             const RunOptions& options,
                                             std::vector<StreamStats>* stats)
    const {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> backing,
                         MmapSource::Open(path));
  std::string_view contents;
  std::string owned;
  if (!backing->Contents(&contents)) {
    // No stable mapping (exotic platform): read the file whole.
    char buf[1 << 16];
    std::size_t n;
    while ((n = backing->Read(buf, sizeof buf)) > 0) owned.append(buf, n);
    contents = owned;
  }
  return StreamShardedPretok(contents, shards, sink, options, stats);
}

namespace {

// One spec per plan, so a pass may run any subset of the plans.
Status BuildMultiSpecs(const std::vector<const CompiledPlan*>& plans,
                       const std::vector<OutputSink*>& sinks,
                       std::vector<MultiPlanSpec>* specs) {
  if (plans.empty()) {
    return Status::InvalidArgument("multi-query run needs at least one plan");
  }
  if (plans.size() != sinks.size()) {
    return Status::InvalidArgument(
        "multi-query run needs exactly one sink per plan");
  }
  specs->reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i] == nullptr || sinks[i] == nullptr) {
      return Status::InvalidArgument("multi-query plan or sink is null");
    }
    MultiPlanSpec spec;
    spec.mft = &plans[i]->mft();
    spec.projection = &plans[i]->projection();
    spec.options = plans[i]->options().stream;
    spec.sink = sinks[i];
    specs->push_back(spec);
  }
  return Status::OK();
}

// The returned-Status contract of Run and StreamAllTransform*: the
// lowest-index plan failure when per-plan results are not requested or when
// every plan failed, so failures cannot go unobserved.
template <typename PlanResult>
Status FoldPlanFailures(const std::vector<PlanResult>& results,
                        bool results_requested) {
  Status first_failure;
  std::size_t failed = 0;
  for (const PlanResult& r : results) {
    if (r.status.ok()) continue;
    if (first_failure.ok()) first_failure = r.status;
    ++failed;
  }
  if (!first_failure.ok() &&
      (!results_requested || failed == results.size())) {
    return first_failure;
  }
  return Status::OK();
}

}  // namespace

Status StreamAllTransform(const std::vector<const CompiledPlan*>& plans,
                          ByteSource* source,
                          const std::vector<OutputSink*>& sinks,
                          const RunOptions& options,
                          std::vector<MultiPlanResult>* results,
                          MultiQueryStats* run_stats) {
  if (plans.empty() || plans.front() == nullptr) {
    return Status::InvalidArgument("multi-query run needs at least one plan");
  }
  SaxParser parser(source, plans.front()->options().stream.sax);
  return StreamAllTransformEvents(plans, &parser, sinks, options, results,
                                  run_stats);
}

Status StreamAllTransformEvents(const std::vector<const CompiledPlan*>& plans,
                                EventSource* events,
                                const std::vector<OutputSink*>& sinks,
                                const RunOptions& options,
                                std::vector<MultiPlanResult>* results,
                                MultiQueryStats* run_stats) {
  std::vector<MultiPlanSpec> specs;
  XQMFT_RETURN_NOT_OK(BuildMultiSpecs(plans, sinks, &specs));
  MultiQueryRun run(std::move(specs), options);
  Status st = run.Run(events);
  if (run_stats != nullptr) *run_stats = run.stats();
  if (results != nullptr) *results = run.results();
  if (!st.ok()) return st;
  return FoldPlanFailures(run.results(), results != nullptr);
}

Status Run(const std::vector<const CompiledPlan*>& plans,
           const std::vector<ParallelInput>& inputs,
           const std::vector<OutputSink*>& sinks, const RunOptions& options,
           std::vector<RunResult>* results, MultiQueryStats* stats) {
  std::vector<MultiPlanSpec> specs;
  Status setup = BuildMultiSpecs(plans, sinks, &specs);
  if (!setup.ok()) {
    if (results != nullptr) results->assign(plans.size(), {setup, {}, 0});
    return setup;
  }
  const std::size_t k = plans.size();
  const std::size_t n = inputs.size();
  const SaxOptions sax = plans.front()->options().stream.sax;
  // One merge per plan: input i's output reaches the plan's sink after
  // that of inputs 0..i-1, and never once the plan failed before i.
  std::deque<OrderedMerge> merges;
  for (OutputSink* sink : sinks) merges.emplace_back(sink, n);
  std::vector<RunResult> per_plan(k);
  for (RunResult& r : per_plan) r.per_input.resize(n);
  std::vector<std::uint64_t> fed(n * k, 0);  // [i * k + p]
  std::vector<MultiQueryStats> passes(n);

  ShardedExecutor::ForEach(n, options.threads, [&](std::size_t i) {
    std::vector<std::size_t> live;
    std::vector<MultiPlanSpec> live_specs;
    std::vector<EventBuffer> buffers(k);
    for (std::size_t p = 0; p < k; ++p) {
      if (merges[p].first_failed() < i) {
        merges[p].Commit(i, EventBuffer(),
                         Status::Cancelled("plan failed on an earlier input"));
        continue;
      }
      live.push_back(p);
      live_specs.push_back(specs[p]);
      live_specs.back().sink = &buffers[p];
    }
    if (live.empty()) return false;  // every plan failed: nothing left

    // A run-level cancel, an unopenable input or a setup rejection fails
    // every live plan; otherwise each plan gets its own pass result.
    Status st = options.cancel != nullptr ? options.cancel->Check()
                                          : Status::OK();
    std::vector<MultiPlanResult> pass_results;
    if (st.ok()) {
      Result<OpenedInput> in = OpenParallelInput(inputs[i], sax);
      st = in.status();
      if (in.ok()) {
        MultiQueryRun run(std::move(live_specs), options);
        st = run.Run(in.value().events.get());
        if (run.results().size() == live.size()) pass_results = run.results();
        passes[i] = run.stats();
      }
    }
    if (pass_results.empty()) {
      pass_results.assign(live.size(), MultiPlanResult{st, {}, 0});
    }
    passes[i].documents = 1;
    bool any_ok = false;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const MultiPlanResult& r = pass_results[j];
      per_plan[live[j]].per_input[i] = r.stats;
      fed[i * k + live[j]] = r.events_fed;
      any_ok = any_ok || r.status.ok();
      merges[live[j]].Commit(i, std::move(buffers[live[j]]), r.status);
    }
    return any_ok;
  });

  for (std::size_t p = 0; p < k; ++p) {
    per_plan[p].status = merges[p].Finish();
    // A failed plan streamed the inputs through its failing one.
    const std::size_t streamed = std::min(n, merges[p].first_failed() + 1);
    per_plan[p].per_input.resize(streamed);
    for (std::size_t i = 0; i < streamed; ++i) {
      per_plan[p].events_fed += fed[i * k + p];
    }
  }
  if (stats != nullptr) {
    *stats = MultiQueryStats{};
    for (const MultiQueryStats& s : passes) {
      stats->documents += s.documents;
      stats->events_total += s.events_total;
      stats->events_skipped += s.events_skipped;
      stats->bytes_in += s.bytes_in;
      stats->bytes_skipped += s.bytes_skipped;
      stats->projection_enabled =
          stats->projection_enabled || s.projection_enabled;
    }
  }
  Status st = FoldPlanFailures(per_plan, results != nullptr);
  if (results != nullptr) *results = std::move(per_plan);
  return st;
}

Result<Forest> CompiledPlan::Evaluate(const Forest& input) const {
  return RunMft(mft_, input);
}

}  // namespace xqmft
