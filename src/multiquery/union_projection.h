// The union projection automaton: one position-set NFA over the merged
// projection paths of every plan in a run, deciding per input event whether
// *any* plan could observe it — and ProjectedSource, the EventSource
// decorator every projected run (single-query CompiledPlan runs and
// MultiQueryRun alike) streams through. A subtree no plan can match is
// skipped once, at the source, without building its events: the decorator
// hands it to EventSource::SkipSubtree, which SaxParser implements as a
// byte scan and PretokSource as a record walk.
//
// Soundness rule (see projection.h for why this is stricter than GCX's
// in-buffer projection): an element is forwarded iff it advanced some path
// position or some position stays live for its descendants — so every kept
// node keeps its full ancestor spine, and a dropped element drops its whole
// subtree. A completed keep-subtree path switches its subtree into
// forward-everything mode; text is forwarded only where a live position's
// step matches text nodes (or inside a kept subtree).
//
// What is never skipped: anything of a run holding a whole_document plan
// (no decorator is built) — a FromMft plan is one, and over a compiled
// plan's transducer it is the "projection off" reference the differential
// tests compare plan runs against. A schema-validated run still projects:
// its ValidatingSource (schema/schema.h) sits below this decorator and
// keeps the pull-and-drop SkipSubtree, so the validator reads every event
// that the engines never see.
#ifndef XQMFT_MULTIQUERY_UNION_PROJECTION_H_
#define XQMFT_MULTIQUERY_UNION_PROJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "multiquery/projection.h"
#include "util/cancel.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

class UnionProjection {
 public:
  /// Merges `projections`, interning name tests into `symbols` — which must
  /// be the table the event source binds to, so element events carry
  /// directly comparable ids. Any null or whole_document projection
  /// disables the automaton (every event is forwarded; see Applies). A
  /// query set that reads nothing (all-constant queries) yields an *empty*
  /// union, which correctly skips every element.
  UnionProjection(const std::vector<const QueryProjection*>& projections,
                  SymbolTable* symbols);

  /// True when a union over `projections` can reject anything: none is
  /// null or whole_document.
  static bool Applies(const std::vector<const QueryProjection*>& projections);

  /// Decides whether this event must reach the engines. Call once per event
  /// in document order; kEndOfDocument is always forwarded. A rejected
  /// kStartElement opens no frame: the caller must consume its subtree
  /// without feeding it (EventSource::SkipSubtree). When disabled, always
  /// true.
  bool Feed(const XmlEvent& event);

 private:
  struct Step {
    Axis axis = Axis::kChild;
    NodeTestKind kind = NodeTestKind::kName;
    SymbolId id = kInvalidSymbol;  ///< interned name (kName tests)
    bool last = false;
    bool keep_subtree = false;  ///< owning path's kind; meaningful on last
  };
  struct Pos {
    std::uint32_t path;
    std::uint32_t step;
  };
  // Every forwarded open element owns one frame: tracked (a position set on
  // the sets stack) or kept (inside a completed keep-subtree match, where
  // depth alone suffices).
  enum class FrameKind : unsigned char { kTrack, kKeep };

  void PushNext(Pos p);

  bool enabled_ = false;
  std::vector<std::vector<Step>> paths_;
  std::vector<FrameKind> frames_;
  // Stack of position sets for tracked frames; sets_[0] is the document
  // level. Grown but never shrunk so set storage is reused across siblings.
  std::vector<std::vector<Pos>> sets_;
  std::size_t sets_top_ = 0;
  std::vector<Pos> next_;  ///< scratch for the set under construction
};

/// \brief EventSource decorator that forwards only the events a
/// UnionProjection accepts and skips each rejected element's subtree in the
/// wrapped source (EventSource::SkipSubtree), so the engines behind it
/// never see — and the parser never builds — what no plan reads.
///
/// Build one only when UnionProjection::Applies; the automaton itself is
/// built in BindSymbols, against the consumer's table.
class ProjectedSource : public EventSource {
 public:
  /// `inner`, the projections and `cancel` must outlive the source.
  /// `cancel` (may be null) is polled after every skipped subtree: a skip
  /// feeds no engine, so only this poll sees a deadline pass during a long
  /// run of skips.
  ProjectedSource(EventSource* inner,
                  std::vector<const QueryProjection*> projections,
                  const CancelToken* cancel);

  Status Next(XmlEvent* event) override;
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  /// Binds the wrapped source and builds the automaton over `symbols`.
  void BindSymbols(SymbolTable* symbols) override;

  /// Events of the input: forwarded, rejected, and those inside skipped
  /// subtrees (counted by the skipper, never built). The same number a run
  /// without projection pulls.
  std::uint64_t events_total() const { return events_total_; }
  /// Events not forwarded: rejected events plus their skipped subtrees.
  std::uint64_t events_skipped() const { return events_skipped_; }
  std::uint64_t subtrees_skipped() const { return subtrees_skipped_; }
  /// Input bytes consumed inside SkipSubtree calls.
  std::size_t bytes_skipped() const { return bytes_skipped_; }

 private:
  EventSource* inner_;
  std::vector<const QueryProjection*> projections_;
  const CancelToken* cancel_;
  std::unique_ptr<UnionProjection> projection_;
  std::uint64_t events_total_ = 0;
  std::uint64_t events_skipped_ = 0;
  std::uint64_t subtrees_skipped_ = 0;
  std::size_t bytes_skipped_ = 0;
};

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_UNION_PROJECTION_H_
