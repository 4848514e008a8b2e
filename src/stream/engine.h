// Streaming execution engine for MFTs, after Nakano & Mu's pushdown-machine
// approach [30]: the transducer is evaluated lazily (call-by-need) against
// the incrementally revealed input; output is emitted as soon as its head is
// determined. Deterministic total MFTs make call-by-need observationally
// identical to the call-by-value reference semantics (tested against
// RunMft).
//
// Machine model. The output under construction is a graph of thunks:
//
//   expr ::= Nil | Cons(label, child, next) | Cat(left, right)
//          | Call(state, cell, args) | Ind(expr)
//
// Reducing an expression to weak head normal form applies MFT rules on
// demand; a Call blocked on a Pending input cell suspends the pump until
// the parser supplies more events. Reduced thunks are overwritten with
// indirections, so shared parameters are evaluated at most once.
#ifndef XQMFT_STREAM_ENGINE_H_
#define XQMFT_STREAM_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "mft/mft.h"
#include "util/cancel.h"
#include "util/memory_tracker.h"
#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

class SchemaValidator;

/// Which execution core runs the transducer. kOps (the default) runs the
/// lowered opcode engine whenever the plan is lowerable (see lower/lower.h)
/// and falls back to the table machine otherwise — lowering is a fast path,
/// never a capability switch; callers that want to report the fallback (the
/// CLI does) ask lower::GetLoweredPlan for the reason. kTable pins the table
/// machine, the differential oracle.
enum class EngineChoice : unsigned char { kOps, kTable };

struct StreamOptions {
  /// Rule applications before aborting with ResourceExhausted (guards
  /// against non-terminating stay loops in hand-written transducers).
  std::uint64_t max_steps = UINT64_MAX;
  SaxOptions sax;
  /// Optional one-pass schema validation during the transformation (the
  /// Section 1 "validate the input during transformation" feature): every
  /// input event is fed to the validator; a violation aborts the run.
  SchemaValidator* validator = nullptr;
  /// Execution core selection (see EngineChoice).
  EngineChoice engine = EngineChoice::kOps;
  /// Optional cooperative cancellation (explicit cancel or deadline): both
  /// engine cores poll the token every `cancel_check_events` input events
  /// (and the table machine additionally every ~1k reduction steps, so a
  /// buffered no-opt pump cannot overshoot a deadline by the whole output).
  /// A tripped check becomes the run's sticky error — kCancelled or
  /// kDeadlineExceeded — at an event boundary: stats stay populated through
  /// Finish and the sink holds exactly the output committed before the trip
  /// (the cancelled-run contract; see Engine::Finish). Per-run state: must
  /// be null in options baked into a CompiledPlan — serving layers inject a
  /// per-request token via RunOptions instead.
  const CancelToken* cancel = nullptr;
  /// Cancellation poll cadence in input events. Small enough that a
  /// deadline trips within tens of microseconds of stream time, large
  /// enough that the steady-state Feed pays one counter increment.
  std::uint32_t cancel_check_events = 128;
};

/// Statistics of one streaming run (the measurements behind Figure 4).
struct StreamStats {
  std::size_t peak_bytes = 0;      ///< peak tracked engine memory
  std::size_t final_bytes = 0;     ///< tracked memory at completion
  std::uint64_t rule_applications = 0;
  /// Refcounted input cells built by the table machine (0 on the ops
  /// engine, which has no cell graph).
  std::uint64_t cells_created = 0;
  std::uint64_t exprs_created = 0;
  /// Consumer records the ops engine served from its bump arena (0 on the
  /// table machine). The arena/refcounted split of a run's cell traffic is
  /// exactly (cells_arena, cells_created).
  std::uint64_t cells_arena = 0;
  /// True when the run executed on the lowered opcode engine.
  bool used_ops_engine = false;
  /// Always 0; kept for bench/xqbench, which reads it.
  std::uint64_t bridge_runs = 0;
  std::size_t bytes_in = 0;        ///< input bytes consumed
  /// Source projection (CompiledPlan runs only, see
  /// multiquery/union_projection.h): subtrees skipped at the source, and
  /// the input bytes stepped over inside them without building events.
  /// Both 0 when the run streamed unprojected.
  std::uint64_t subtrees_skipped = 0;
  std::size_t bytes_skipped = 0;
  std::size_t output_events = 0;   ///< sink events emitted
  /// Input bytes consumed before the first output event: small values mean
  /// genuinely incremental emission.
  std::size_t bytes_in_at_first_output = 0;
};

/// \brief Reusable mutable run state for streaming one transducer through
/// many documents: the run-local SymbolTable (seeded once from the
/// transducer's immutable base table, snapshot back between documents) and
/// the cell/expr slab arenas, whose free lists and blocks persist across
/// runs — the second document of a serving loop allocates no blocks and
/// copies no table.
///
/// A scratch is bound to one transducer and single-threaded: at most one
/// streaming run may use it at a time, and every run through it must pass
/// the same Mft it was built from. Without a scratch the streaming entry
/// points build this state per run (copying the base table and growing
/// fresh slabs), which is correct but pays the per-run setup a serving loop
/// exists to amortize. At plan level, pass one to the CompiledPlan::Stream*
/// methods (core/pipeline.h), built from the plan's mft().
class StreamScratch {
 public:
  /// Seeds the run table from `mft`'s base table. The dispatch must already
  /// be compiled (structural for CompiledPlan-built transducers; bare-Mft
  /// callers get it compiled here as a side effect of symbols()).
  explicit StreamScratch(const Mft& mft);
  ~StreamScratch();
  StreamScratch(const StreamScratch&) = delete;
  StreamScratch& operator=(const StreamScratch&) = delete;

  struct Impl;  // private to engine.cc
  Impl* impl() const { return impl_.get(); }

 private:
  std::unique_ptr<Impl> impl_;
};

/// \brief Push-mode streaming engine core: a passive consumer of XML events.
///
/// The engine does not own an input loop. A driver constructs it over a
/// transducer and a sink, feeds it one event at a time, and finishes it when
/// the input ends:
///
///   Engine engine(mft, &sink, options);
///   source->BindSymbols(engine.symbols());   // share one id space
///   engine.Prime();                          // constant output prefix
///   while (!engine.done()) { source->Next(&ev); engine.Feed(ev); }
///   engine.Finish(&stats);
///
/// Output is emitted into the sink *during* Feed, as soon as its head is
/// determined — which is why the sink binds at construction rather than at
/// Finish. Feed pumps the thunk graph until it either blocks on pending
/// input (feed more) or completes (done() becomes true; later events are
/// ignored, matching the pull loop's early stop when the output is complete
/// before the input ends). Finish feeds a synthetic end-of-document if the
/// driver has not, pumps the remainder, and fills `stats`; the stats fields
/// derived from the byte source (`bytes_in`, `bytes_in_at_first_output`)
/// are the driver's to set — the engine only sees events.
///
/// Errors are sticky: after a failed Feed (rule miss, step budget, schema
/// violation) every later Feed/Finish returns the same status, and sibling
/// engines of a multi-query run are unaffected. Finish fills `stats` with
/// whatever was accumulated even when it returns an error.
///
/// Drivers: PumpEngine below (the one-engine pull loop under
/// StreamTransform*, the CompiledPlan::Stream* methods and a one-plan run)
/// and MultiQueryRun (multiquery/multi_run.h), which fans one event stream
/// into many engines and is what Run (core/pipeline.h) drives per document.
class Engine {
 public:
  /// `scratch`, when given, must have been built from this same `mft` (see
  /// StreamScratch); null means the engine owns its run state.
  Engine(const Mft& mft, OutputSink* sink, StreamOptions options = {},
         StreamScratch* scratch = nullptr);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The engine's run-local symbol table: bind the event source to it (or
  /// intern remapped event symbols through it) so event ids and rule ids
  /// share one id space. Events whose `symbol` is kInvalidSymbol are
  /// interned lazily by name, so feeding foreign-id-free events also works.
  SymbolTable* symbols();

  /// Pumps the constant output prefix (output derivable before any input
  /// event, e.g. literal markup around the root call). Optional: the first
  /// Feed primes implicitly. Drivers that account bytes-at-first-output call
  /// it explicitly so a constant prefix is attributed to byte offset 0.
  Status Prime();

  /// Feeds one event and emits everything it determines. After done(),
  /// events are ignored (Status::OK). kEndOfDocument may be fed at most
  /// once; Finish supplies it implicitly otherwise.
  Status Feed(const XmlEvent& event);

  /// Declares the input complete: feeds end-of-document if pending, pumps
  /// the rest of the output, verifies the run completed, and fills `stats`
  /// (event-side fields; byte accounting is the driver's). Fills stats even
  /// on error. Idempotent.
  ///
  /// Cancelled-run contract (pinned for both cores by net_test): after a
  /// Feed tripped the run's CancelToken, Finish still fills `stats` with
  /// everything accumulated, returns the sticky kCancelled /
  /// kDeadlineExceeded status, and does NOT pump, replay, or flush anything
  /// further into the sink — the sink ends at the last byte committed
  /// before the trip, so no partial thunk output (table) or buffered
  /// segment (ops) leaks downstream.
  Status Finish(StreamStats* stats = nullptr);

  /// True once the output is fully emitted: no further event can change it,
  /// so drivers may stop feeding (and a shared-source driver may stop
  /// duplicating events to this engine).
  bool done() const;

  /// Output events emitted so far (monotonic; drivers use the first
  /// transition to non-zero for bytes_in_at_first_output accounting).
  std::size_t output_events() const;

  struct Impl;  // private to engine.cc

 private:
  std::unique_ptr<Impl> impl_;
};

/// The one-engine pull loop: binds `events` to the engine's symbol table,
/// primes, and feeds events until the engine's output is complete, it
/// fails, or the document ends. It does not Finish: an engine failure is
/// sticky, so the caller's Finish returns it and fills stats. Returns the
/// event source's failure (malformed input), which leaves the engine
/// unfinished: its Finish would synthesize an end-of-document for a
/// document that never ended. Counts the events fed (end-of-document
/// excluded) and the source bytes consumed by the first output event.
Status PumpEngine(Engine* engine, EventSource* events,
                  std::uint64_t* events_fed,
                  std::size_t* bytes_at_first_output);

/// Streams `source` through `mft` into `sink`. The transducer must
/// Validate() beforehand. `scratch`, when given, supplies the run's symbol
/// table and arenas (see StreamScratch); it must have been built from this
/// same `mft`. A thin pull pump over the push-mode Engine.
Status StreamTransform(const Mft& mft, ByteSource* source, OutputSink* sink,
                       StreamOptions options = {},
                       StreamStats* stats = nullptr,
                       StreamScratch* scratch = nullptr);

/// Streams an already-tokenized event stream (e.g. a PretokSource) through
/// `mft`. The engine binds the source to its run-local symbol table before
/// pulling, so event ids and rule ids share one id space; options.sax is
/// ignored (tokenization happened when the events were produced).
Status StreamTransformEvents(const Mft& mft, EventSource* events,
                             OutputSink* sink, StreamOptions options = {},
                             StreamStats* stats = nullptr,
                             StreamScratch* scratch = nullptr);

/// Convenience wrapper over an in-memory document.
Status StreamTransformString(const Mft& mft, const std::string& xml,
                             OutputSink* sink, StreamOptions options = {},
                             StreamStats* stats = nullptr);

}  // namespace xqmft

#endif  // XQMFT_STREAM_ENGINE_H_
