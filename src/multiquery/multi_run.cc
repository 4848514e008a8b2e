#include "multiquery/multi_run.h"

#include <utility>

namespace xqmft {

MultiQueryRun::MultiQueryRun(std::vector<MultiPlanSpec> plans,
                             MultiQueryOptions options)
    : plans_(std::move(plans)), options_(options) {}

MultiQueryRun::~MultiQueryRun() = default;

SymbolId MultiQueryRun::SymbolRemap::Map(SymbolTable* dst,
                                         const XmlEvent& event) {
  // Events without a master id (hand-built) fall back to the engine's
  // by-name interning in CellBuilder.
  if (event.symbol == kInvalidSymbol) return kInvalidSymbol;
  const std::size_t i = event.symbol;
  if (i >= ids.size()) ids.resize(i + 1, kInvalidSymbol);
  if (ids[i] == kInvalidSymbol) {
    ids[i] = dst->Intern(NodeKind::kElement, event.name);
  }
  return ids[i];
}

Status MultiQueryRun::CheckPlans(const SaxOptions* source_sax) const {
  if (plans_.empty()) {
    return Status::InvalidArgument("multi-query run needs at least one plan");
  }
  for (const MultiPlanSpec& p : plans_) {
    if (p.mft == nullptr || p.sink == nullptr) {
      return Status::InvalidArgument(
          "multi-query plan needs a transducer and a sink");
    }
    if (p.options.validator != nullptr) {
      return Status::InvalidArgument(
          "multi-query streaming does not support schema validators: a "
          "validator must see the full stream, which source projection "
          "drops events from");
    }
    const SaxOptions& base =
        source_sax != nullptr ? *source_sax : plans_.front().options.sax;
    if (!SameTokenization(base, p.options.sax)) {
      return Status::InvalidArgument(
          "multi-query plans disagree on tokenization options; they must "
          "share one event stream");
    }
  }
  return Status::OK();
}

Status MultiQueryRun::Run(EventSource* events) {
  if (ran_) {
    return Status::InvalidArgument("MultiQueryRun may only run once");
  }
  ran_ = true;
  XQMFT_RETURN_NOT_OK(CheckPlans(nullptr));

  results_.resize(plans_.size());
  remaps_.resize(plans_.size());
  first_output_bytes_.assign(plans_.size(), 0);
  std::vector<char> saw_output(plans_.size(), 0);
  engines_.reserve(plans_.size());
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    MultiPlanSpec& p = plans_[i];
    // Token priority per engine: the spec's own token, then the plan's
    // member token (per_plan_cancel), then the run-level token. A member
    // token tripping makes that engine's Feed fail, which the loop below
    // isolates like any per-plan failure; the run-level token is still
    // polled in the shared pump either way.
    if (p.options.cancel == nullptr && i < options_.per_plan_cancel.size()) {
      p.options.cancel = options_.per_plan_cancel[i];
    }
    if (options_.cancel != nullptr && p.options.cancel == nullptr) {
      p.options.cancel = options_.cancel;
    }
    engines_.push_back(std::make_unique<Engine>(*p.mft, p.sink, p.options));
  }
  std::vector<const QueryProjection*> projections;
  projections.reserve(plans_.size());
  for (const MultiPlanSpec& p : plans_) projections.push_back(p.projection);
  std::unique_ptr<ProjectedSource> projected;
  if (options_.union_projection && UnionProjection::Applies(projections)) {
    projected = std::make_unique<ProjectedSource>(
        events, std::move(projections), options_.cancel);
    events = projected.get();
  }
  stats_.projection_enabled = projected != nullptr;

  events->BindSymbols(&master_);
  auto note_output = [&](std::size_t i) {
    if (saw_output[i] == 0 && engines_[i]->output_events() > 0) {
      saw_output[i] = 1;
      first_output_bytes_[i] = events->bytes_consumed();
    }
  };
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    Status st = engines_[i]->Prime();
    if (!st.ok()) {
      results_[i].status = st;
    } else {
      note_output(i);
    }
  }

  std::uint64_t forwarded = 0;
  // Source-side counters, however the run ends.
  auto note_source = [&]() {
    stats_.bytes_in = events->bytes_consumed();
    stats_.events_total =
        projected != nullptr ? projected->events_total() : forwarded;
    if (projected != nullptr) {
      stats_.events_skipped = projected->events_skipped();
      stats_.bytes_skipped = projected->bytes_skipped();
    }
  };
  // A source failure or a run-level cancel aborts every unfinished plan;
  // plans whose output completed before it keep their results, exactly as
  // their serial runs (which stop reading early) would. No Finish for the
  // unfinished ones: a live engine's Finish would synthesize end-of-document
  // and emit output for a run being abandoned.
  auto abort_run = [&](const Status& st) {
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (!results_[i].status.ok()) continue;
      if (engines_[i]->done()) {
        engines_[i]->Finish(&results_[i].stats);
        results_[i].stats.bytes_in = events->bytes_consumed();
        results_[i].stats.bytes_in_at_first_output = first_output_bytes_[i];
      } else {
        results_[i].status = st;
      }
    }
    note_source();
    return st;
  };

  XmlEvent event;
  for (;;) {
    // Like the serial pump, stop reading as soon as no engine's output can
    // still change (all done or failed).
    bool any_live = false;
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (results_[i].status.ok() && !engines_[i]->done()) {
        any_live = true;
        break;
      }
    }
    if (!any_live) break;
    Status st = events->Next(&event);
    if (!st.ok()) return abort_run(st);
    if (event.type == XmlEventType::kEndOfDocument) break;
    ++forwarded;
    // Run-level cancellation, polled here as well as inside the engines
    // (and, under projection, after every skipped subtree).
    if (options_.cancel != nullptr && (forwarded & 255u) == 0) {
      Status cst = options_.cancel->Check();
      if (!cst.ok()) return abort_run(cst);
    }
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      if (!results_[i].status.ok() || engines_[i]->done()) continue;
      XmlEvent copy = event;
      copy.symbol = event.type == XmlEventType::kStartElement
                        ? remaps_[i].Map(engines_[i]->symbols(), event)
                        : kInvalidSymbol;
      Status fst = engines_[i]->Feed(copy);
      if (!fst.ok()) {
        results_[i].status = fst;  // isolated: siblings keep streaming
        continue;
      }
      ++results_[i].events_fed;
      note_output(i);
    }
  }
  Finish(events);
  note_source();
  return Status::OK();
}

void MultiQueryRun::Finish(EventSource* events) {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    // Engine::Finish supplies the synthetic end-of-document to live
    // engines, is a stats-only no-op on failed (sticky) ones, and fills
    // stats either way.
    Status fst = engines_[i]->Finish(&results_[i].stats);
    if (results_[i].status.ok() && !fst.ok()) results_[i].status = fst;
    results_[i].stats.bytes_in = events->bytes_consumed();
    results_[i].stats.bytes_in_at_first_output = first_output_bytes_[i];
  }
}

Status MultiQueryRun::RunSource(ByteSource* source, const SaxOptions& sax) {
  XQMFT_RETURN_NOT_OK(CheckPlans(&sax));
  SaxParser parser(source, sax);
  return Run(&parser);
}

}  // namespace xqmft
