#include "multiquery/multi_run.h"

#include <utility>

namespace xqmft {

MultiQueryRun::MultiQueryRun(std::vector<MultiPlanSpec> plans,
                             RunOptions options)
    : plans_(std::move(plans)), options_(options) {}

MultiQueryRun::~MultiQueryRun() = default;

namespace {

// Master id -> engine id, grown lazily: the per-event per-engine cost of a
// shared pump is an array index, not a hash lookup.
struct SymbolRemap {
  std::vector<SymbolId> ids;

  SymbolId Map(SymbolTable* dst, const XmlEvent& event) {
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
};

// The one-engine pull loop of a one-plan pass: binds `events` to the
// engine's symbol table, primes, and feeds events until the engine's output
// is complete, it fails, or the document ends. It does not Finish: an
// engine failure is sticky, so the caller's Finish returns it and fills
// stats. Returns the event source's failure (malformed input, a schema
// violation), which leaves the engine unfinished: its Finish would
// synthesize an end-of-document for a document that never ended. Counts
// the events fed (end-of-document excluded) and the source bytes consumed
// by the first output event.
Status PumpEngine(Engine* engine, EventSource* events,
                  std::uint64_t* events_fed,
                  std::size_t* bytes_at_first_output) {
  events->BindSymbols(engine->symbols());
  bool saw_output = false;
  // Pumps never consume input, so reading bytes_consumed() after the Feed
  // that triggered the first output attributes it to the right byte.
  auto note_output = [&]() {
    if (!saw_output && engine->output_events() > 0) {
      saw_output = true;
      *bytes_at_first_output = events->bytes_consumed();
    }
  };
  if (!engine->Prime().ok()) return Status::OK();
  note_output();
  XmlEvent event;
  while (!engine->done()) {
    XQMFT_RETURN_NOT_OK(events->Next(&event));
    if (!engine->Feed(event).ok()) break;
    note_output();
    if (event.type == XmlEventType::kEndOfDocument) break;
    ++*events_fed;
  }
  return Status::OK();
}

}  // namespace

Status MultiQueryRun::CheckPlans() const {
  if (plans_.empty()) {
    return Status::InvalidArgument("multi-query run needs at least one plan");
  }
  for (const MultiPlanSpec& p : plans_) {
    if (p.mft == nullptr || p.sink == nullptr) {
      return Status::InvalidArgument(
          "multi-query plan needs a transducer and a sink");
    }
  }
  return Status::OK();
}

Status MultiQueryRun::Run(EventSource* events) {
  if (ran_) {
    return Status::InvalidArgument("MultiQueryRun may only run once");
  }
  ran_ = true;
  XQMFT_RETURN_NOT_OK(CheckPlans());

  results_.resize(plans_.size());
  first_output_bytes_.assign(plans_.size(), 0);
  engines_.reserve(plans_.size());
  for (const MultiPlanSpec& p : plans_) {
    engines_.push_back(
        std::make_unique<Engine>(*p.mft, p.sink, p.options, options_.cancel));
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
  stats_.documents = 1;

  std::uint64_t forwarded = 0;
  Status st;
  if (plans_.size() == 1) {
    // One plan, whose engine polls the run's token itself: the serial pull
    // loop, with no master table, remap or event copy.
    st = PumpEngine(engines_[0].get(), events, &forwarded,
                    &first_output_bytes_[0]);
    results_[0].events_fed = forwarded;
  } else {
    st = PumpShared(events, &forwarded);
  }
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    // After a source failure or a run-level cancel (`st`), a plan still
    // live takes that status and is not finished: its Finish would
    // synthesize end-of-document and emit output for an abandoned run.
    // Every other engine finishes. Done ones keep their results, as their
    // serial runs (which stop reading early) would; Finish supplies the
    // end-of-document to live engines of a completed run, is a stats-only
    // no-op on failed (sticky) ones, and fills stats either way.
    if (!st.ok() && results_[i].status.ok() && !engines_[i]->done()) {
      results_[i].status = st;
      continue;
    }
    Status fst = engines_[i]->Finish(&results_[i].stats);
    if (results_[i].status.ok() && !fst.ok()) results_[i].status = fst;
  }

  // Source-side counters: the run's, and each plan's view of them (the
  // whole shared input, as its serial run would read it).
  stats_.bytes_in = events->bytes_consumed();
  stats_.events_total =
      projected != nullptr ? projected->events_total() : forwarded;
  std::uint64_t subtrees_skipped = 0;
  if (projected != nullptr) {
    stats_.events_skipped = projected->events_skipped();
    stats_.bytes_skipped = projected->bytes_skipped();
    subtrees_skipped = projected->subtrees_skipped();
  }
  for (std::size_t i = 0; i < results_.size(); ++i) {
    StreamStats& s = results_[i].stats;
    s.bytes_in = stats_.bytes_in;
    s.bytes_in_at_first_output = first_output_bytes_[i];
    s.subtrees_skipped = subtrees_skipped;
    s.bytes_skipped = stats_.bytes_skipped;
  }
  return st;
}

Status MultiQueryRun::PumpShared(EventSource* events,
                                 std::uint64_t* forwarded) {
  const std::size_t n = engines_.size();
  std::vector<SymbolRemap> remaps(n);
  events->BindSymbols(&master_);
  std::vector<char> saw_output(n, 0);
  auto note_output = [&](std::size_t i) {
    if (saw_output[i] == 0 && engines_[i]->output_events() > 0) {
      saw_output[i] = 1;
      first_output_bytes_[i] = events->bytes_consumed();
    }
  };
  // live[i]: engine i can still change its output (not done, not failed).
  // Like the serial pump, the run stops reading once no engine is live.
  std::vector<char> live(n, 0);
  std::size_t live_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Status st = engines_[i]->Prime();
    if (!st.ok()) {
      results_[i].status = st;
      continue;
    }
    note_output(i);
    live[i] = !engines_[i]->done();
    live_count += live[i];
  }

  XmlEvent event;
  while (live_count > 0) {
    XQMFT_RETURN_NOT_OK(events->Next(&event));
    if (event.type == XmlEventType::kEndOfDocument) break;
    ++*forwarded;
    // Run-level cancellation, polled here as well as inside the engines
    // (and, under projection, after every skipped subtree).
    if (options_.cancel != nullptr && (*forwarded & 255u) == 0) {
      XQMFT_RETURN_NOT_OK(options_.cancel->Check());
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] == 0) continue;
      XmlEvent copy = event;
      copy.symbol = event.type == XmlEventType::kStartElement
                        ? remaps[i].Map(engines_[i]->symbols(), event)
                        : kInvalidSymbol;
      Status fst = engines_[i]->Feed(copy);
      if (!fst.ok()) {
        results_[i].status = fst;  // isolated: siblings keep streaming
      } else {
        ++results_[i].events_fed;
        note_output(i);
        if (!engines_[i]->done()) continue;
      }
      live[i] = 0;
      --live_count;
    }
  }
  return Status::OK();
}

}  // namespace xqmft
