// Single-pass multi-query execution: one shared event stream fanned into N
// push-mode engines (stream/engine.h). The input is tokenized exactly once
// — the inversion of parallel/'s one-query/many-shards split — and the
// shared source streams through the projection decorator
// (union_projection.h, ProjectedSource), which skips subtrees no plan can
// observe before they are tokenized into events.
//
// Symbol spaces: the shared source binds to the run's master table; each
// engine keeps its own run-local table (its rule ids live there), bridged
// by a lazily grown dense master-id -> engine-id remap, so the per-event
// per-engine cost is an array index, not a hash lookup.
#ifndef XQMFT_MULTIQUERY_MULTI_RUN_H_
#define XQMFT_MULTIQUERY_MULTI_RUN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "multiquery/projection.h"
#include "multiquery/union_projection.h"
#include "stream/engine.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

/// One plan of a multi-query run.
struct MultiPlanSpec {
  const Mft* mft = nullptr;
  /// The plan's source projection (CompiledPlan::projection()); null is
  /// treated as whole_document and disables the union automaton for the
  /// whole run. Must outlive the run.
  const QueryProjection* projection = nullptr;
  /// Per-plan step budget etc.; `validator` must be null (a validator reads
  /// the full stream, incompatible with source projection), and `sax` must
  /// tokenize identically across all plans of a run.
  StreamOptions options;
  OutputSink* sink = nullptr;
};

struct MultiPlanResult {
  /// Per-plan engine failure (rule miss, step budget): sticky, isolated —
  /// sibling plans are unaffected. Source-level failures (XML errors) abort
  /// every plan that had not already completed.
  Status status;
  /// Filled even for failed plans (whatever accumulated). bytes_in counts
  /// the full shared input: it reports what this plan's serial run would
  /// have consumed, not a per-plan share.
  StreamStats stats;
  std::uint64_t events_fed = 0;  ///< events this engine consumed
};

struct MultiQueryOptions {
  /// Merge the per-plan projections and skip unmatchable subtrees at the
  /// source; off means every engine sees every event (the N-pass count).
  bool union_projection = true;
  /// Run-level cooperative cancellation (batch deadline, client
  /// disconnect): injected into every engine's StreamOptions and also
  /// polled in the shared pump and after every skipped subtree, so
  /// projection-skipped stretches — where no engine sees events — cannot
  /// outrun a deadline. A trip aborts
  /// every unfinished plan with the token's status; plans that already
  /// completed keep their results, mirroring source-error handling. Must
  /// outlive the run; null means not cancellable.
  const CancelToken* cancel = nullptr;
  /// Per-plan cooperative cancellation, parallel to the plan vector (empty
  /// or short = no token for the missing plans). Each token is installed as
  /// its engine's StreamOptions cancel (unless the spec carries one
  /// already), so a tripped member detaches through the per-plan
  /// failure-isolation path — status recorded, siblings keep streaming —
  /// which is how the serving scheduler drops one disconnected request out
  /// of a shared coalesced run. Tokens must outlive the run.
  std::vector<const CancelToken*> per_plan_cancel;
};

struct MultiQueryStats {
  /// Events of the shared input, the same count with projection on or off:
  /// those inside skipped subtrees are counted by the skipper, never built.
  std::uint64_t events_total = 0;
  std::uint64_t events_skipped = 0;  ///< not forwarded by the projection
  std::size_t bytes_in = 0;          ///< shared input bytes, counted once
  std::size_t bytes_skipped = 0;     ///< input bytes stepped over unbuilt
  bool projection_enabled = false;
};

/// \brief Drives one shared event source through every plan's engine in a
/// single pass. Use once: construct, Run (or RunSource), read results().
class MultiQueryRun {
 public:
  explicit MultiQueryRun(std::vector<MultiPlanSpec> plans,
                         MultiQueryOptions options = {});
  ~MultiQueryRun();
  MultiQueryRun(const MultiQueryRun&) = delete;
  MultiQueryRun& operator=(const MultiQueryRun&) = delete;

  /// Streams `events` to completion (or until every plan has finished or
  /// failed — like the serial pump, the run stops reading early when no
  /// engine can produce further output). The source is bound to the run's
  /// master symbol table. Returns setup and source-level errors; per-plan
  /// engine failures land in results() only.
  Status Run(EventSource* events);

  /// Convenience: parses `source` with `sax` (which must tokenize
  /// identically to every plan's options.sax — checked).
  Status RunSource(ByteSource* source, const SaxOptions& sax);

  const std::vector<MultiPlanResult>& results() const { return results_; }
  const MultiQueryStats& stats() const { return stats_; }

 private:
  struct SymbolRemap {
    std::vector<SymbolId> ids;  ///< master id -> engine id, grown lazily
    SymbolId Map(SymbolTable* dst, const XmlEvent& event);
  };

  Status CheckPlans(const SaxOptions* source_sax) const;
  void Finish(EventSource* events);

  std::vector<MultiPlanSpec> plans_;
  MultiQueryOptions options_;
  SymbolTable master_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<SymbolRemap> remaps_;
  std::vector<MultiPlanResult> results_;
  std::vector<std::size_t> first_output_bytes_;
  MultiQueryStats stats_;
  bool ran_ = false;
};

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_MULTI_RUN_H_
