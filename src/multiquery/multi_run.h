// The one plan-level pass: one event stream fanned into N push-mode
// engines (stream/engine.h). Every plan-level entry point of
// core/pipeline.h runs it: Run once per document, StreamAllTransform*
// once, and the CompiledPlan::Stream* methods as a one-plan pass (each
// pretok shard too), so a plan's output and StreamStats do not depend on
// the entry point. The input is tokenized exactly once — the inversion of
// parallel/'s one-query/many-shards split — and the shared source streams
// through the projection decorator (union_projection.h, ProjectedSource),
// which skips subtrees no plan can observe before they are tokenized into
// events.
//
// Symbol spaces: with two or more plans the shared source binds to the
// run's master table; each engine keeps its own run-local table (its rule
// ids live there), bridged by a lazily grown dense master-id -> engine-id
// remap, so the per-event per-engine cost is an array index, not a hash
// lookup. A one-plan run is the serial pull loop (PumpEngine): no master
// table, no remap, no event copy.
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
  /// tokenize identically across all plans of a run. `cancel` is replaced
  /// by the run's token (RunOptions::cancel).
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

/// \brief The settable options of a run: of Run (core/pipeline.h), of
/// each MultiQueryRun pass it drives, and of the sharded pretok methods.
struct RunOptions {
  /// Worker threads Run spreads its documents over (0 = one per hardware
  /// thread; clamped to the document count and to the larger of the
  /// hardware thread count and 64). 1 runs the documents in order
  /// on the calling thread. Output never depends on it. A MultiQueryRun is
  /// one document on the calling thread and ignores it.
  std::size_t threads = 0;
  /// Merge the per-plan projections and skip unmatchable subtrees at the
  /// source; off means every engine sees every event (the N-pass count).
  bool union_projection = true;
  /// Run-level cooperative cancellation (batch deadline, client
  /// disconnect): injected into every engine's StreamOptions and also
  /// polled in the shared pump and after every skipped subtree, so
  /// projection-skipped stretches — where no engine sees events — cannot
  /// outrun a deadline. A trip aborts every unfinished plan with the
  /// token's status; plans that already completed keep their results,
  /// mirroring source-error handling. Must outlive the run; null means not
  /// cancellable.
  const CancelToken* cancel = nullptr;
};

/// The name bench/xqbench spells RunOptions by.
using MultiQueryOptions = RunOptions;

/// Counters of the shared input; Run sums them over its documents.
struct MultiQueryStats {
  std::size_t documents = 0;  ///< shared passes run (1 per MultiQueryRun)
  /// Events of the shared input, the same count with projection on or off:
  /// those inside skipped subtrees are counted by the skipper, never built.
  std::uint64_t events_total = 0;
  std::uint64_t events_skipped = 0;  ///< not forwarded by the projection
  std::size_t bytes_in = 0;          ///< shared input bytes, counted once
  std::size_t bytes_skipped = 0;     ///< input bytes stepped over unbuilt
  bool projection_enabled = false;
};

/// \brief Drives one shared event source through every plan's engine in a
/// single pass. Use once: construct, Run, read results().
class MultiQueryRun {
 public:
  explicit MultiQueryRun(std::vector<MultiPlanSpec> plans,
                         RunOptions options = {});
  ~MultiQueryRun();
  MultiQueryRun(const MultiQueryRun&) = delete;
  MultiQueryRun& operator=(const MultiQueryRun&) = delete;

  /// Streams `events` to completion (or until every plan has finished or
  /// failed — like the serial pump, the run stops reading early when no
  /// engine can produce further output). Returns setup and source-level
  /// errors; per-plan engine failures land in results() only.
  Status Run(EventSource* events);

  const std::vector<MultiPlanResult>& results() const { return results_; }
  const MultiQueryStats& stats() const { return stats_; }

 private:
  Status CheckPlans() const;
  /// The pump of a run with several engines: the source binds to the
  /// master table and each live engine gets every event remapped into its
  /// own id space. Returns the source's or the run-level token's failure;
  /// counts events pulled.
  Status PumpShared(EventSource* events, std::uint64_t* forwarded);

  std::vector<MultiPlanSpec> plans_;
  RunOptions options_;
  SymbolTable master_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<MultiPlanResult> results_;
  std::vector<std::size_t> first_output_bytes_;
  MultiQueryStats stats_;
  bool ran_ = false;
};

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_MULTI_RUN_H_
