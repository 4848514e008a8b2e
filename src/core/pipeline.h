// Public facade: the paper's full pipeline in one object.
//
//   MinXQuery text --parse--> AST --T,F (Section 3)--> MFT
//                  --optimize (Section 4.1)--> streaming-friendly MFT
//                  --streaming engine [30]--> XML-to-XML stream processor
//
// The compiled artifact is CompiledPlan, built along the serving boundary
// the paper's pitch implies (translate once, stream arbitrarily many
// documents): the parsed query and the translated, optimized MFT with its
// rule dispatch and base SymbolTable compiled at build time. It is
// immutable and shareable — the single-query handle of the CLI, the
// examples and the benches, and what a query cache hands out. The mutable
// remainder of a run (tracker, run-local symbol table, slab arenas) belongs
// to each engine and lives exactly as long as its run.
//
// Entry points: Run (every plan over every document of a set, one shared
// pass per document, documents spread over worker threads), the five
// CompiledPlan stream methods (StreamFile, StreamString and StreamEvents
// for one document; StreamShardedPretok(File) for one sharded pretok
// stream), and the two StreamAll* functions that feed one source to many
// plans in a single pass. All of them run one plan-level pass, MultiQueryRun
// (multiquery/multi_run.h), whose one-plan branch is the serial PumpEngine
// loop: a plan's output and stats are the same through every entry point.
// The pass streams through the plans' source projection, so subtrees no
// plan reads are skipped in the tokenizer; the free StreamTransform*
// functions (stream/engine.h) stream unprojected and take a validator.
//
// Typical use:
//
//   auto plan = CompiledPlan::Compile("<out>{$input//a}</out>");
//   StringSink sink;
//   plan.value()->StreamFile("input.xml", &sink);
#ifndef XQMFT_CORE_PIPELINE_H_
#define XQMFT_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mft/mft.h"
#include "mft/optimize.h"
#include "multiquery/multi_run.h"
#include "parallel/sharded_executor.h"
#include "stream/engine.h"
#include "util/status.h"
#include "xml/forest.h"
#include "xquery/ast.h"

namespace xqmft {

struct PipelineOptions {
  /// Run the Section 4.1 parameter/stay/reachability optimizations. The
  /// unoptimized transducer buffers the whole input (Figure 4's no-opt
  /// curves); disable only for measurement.
  bool optimize = true;
  OptimizeOptions optimizer;
  /// Streaming defaults baked into the plan. stream.validator must be null:
  /// a schema validator is per-run stateful and would be mutable state
  /// reachable from every concurrent run of a shared plan — validated runs
  /// go through the free StreamTransform with per-run options instead.
  StreamOptions stream;
};

/// \brief One document of a Run.
///
/// The in-memory kinds let tests and embedders shard without touching the
/// filesystem; `value` is a path for the file kinds and the raw bytes
/// otherwise.
struct ParallelInput {
  enum class Kind {
    kXmlFile,      ///< text XML file (memory-mapped when possible)
    kPretokFile,   ///< pretok event cache file
    kXmlText,      ///< in-memory text XML
    kPretokBytes,  ///< in-memory pretok event stream
  };

  Kind kind = Kind::kXmlFile;
  std::string value;

  static ParallelInput XmlFile(std::string path) {
    return {Kind::kXmlFile, std::move(path)};
  }
  static ParallelInput PretokFile(std::string path) {
    return {Kind::kPretokFile, std::move(path)};
  }
  static ParallelInput XmlText(std::string xml) {
    return {Kind::kXmlText, std::move(xml)};
  }
  static ParallelInput PretokBytes(std::string bytes) {
    return {Kind::kPretokBytes, std::move(bytes)};
  }
};

/// \brief A ParallelInput opened for streaming as events: the pretok kinds
/// replay their records, the text kinds parse `bytes`.
struct OpenedInput {
  std::unique_ptr<ByteSource> bytes;    ///< text kinds only
  std::unique_ptr<EventSource> events;  ///< always set
};

/// Opens `input` — the one per-kind dispatch behind Run and the CLI; text
/// parses under `sax`. A pretok input whose header declares
/// a tokenization other than `sax` is rejected with InvalidArgument (it
/// would replay different events). The in-memory kinds are read in place,
/// so `input` must then outlive the result.
Result<OpenedInput> OpenParallelInput(const ParallelInput& input,
                                      const SaxOptions& sax);

/// \brief An immutable, shareable compiled query: parse + translate +
/// optimize happen exactly once, the rule dispatch and base symbol table
/// are compiled eagerly at build time, and nothing is mutated afterwards.
///
/// Immutability is structural, not conventional: every accessor is const,
/// the lazily-cached pieces of the Mft (dispatch tables, interned rule ids)
/// are forced before the constructor returns, and a plan with a schema
/// validator (per-run mutable state) is rejected at build time. A
/// `shared_ptr<const CompiledPlan>` can therefore be handed to any number
/// of concurrent runs, worker threads, or cache entries without
/// synchronization: the dispatch is warm before any fan-out by
/// construction, which is why the parallel entry points take plans rather
/// than bare transducers.
class CompiledPlan {
 public:
  /// Parses, validates, translates, optimizes (by default), and compiles
  /// the rule dispatch.
  static Result<std::shared_ptr<const CompiledPlan>> Compile(
      const std::string& query_text, PipelineOptions options = {});

  /// Wraps a hand-written transducer (e.g. the CLI's `mft` command) in the
  /// same immutable serving artifact: validates, compiles the dispatch,
  /// shares like any other plan. No query or optimize report is attached.
  static Result<std::shared_ptr<const CompiledPlan>> FromMft(
      Mft mft, PipelineOptions options = {});

  /// The executable transducer (optimized if so configured). Its dispatch
  /// and base symbol table are compiled; treat as read-only.
  const Mft& mft() const { return mft_; }
  /// The transducer as produced by the Section 3 translation (empty for
  /// FromMft-built plans).
  const Mft& unoptimized_mft() const { return raw_mft_; }
  /// What the optimizer did.
  const OptimizeReport& optimize_report() const { return report_; }
  /// True when this plan was compiled from query text (Compile, not
  /// FromMft); query() may only be called then.
  bool has_query() const { return query_ != nullptr; }
  /// The parsed query.
  const QueryExpr& query() const { return *query_; }
  const PipelineOptions& options() const { return options_; }

  /// The plan's source projection (multiquery/projection.h), derived once at
  /// compile time: the absolute paths whose matches the query can observe,
  /// or whole_document when nothing can be skipped (FromMft plans, queries
  /// outside the projectable fragment, copies of every element). Every
  /// Stream* method below streams through it (ProjectedSource, in
  /// multiquery/union_projection.h), skipping unobservable subtrees at the
  /// source; so do Run and the StreamAll* functions, with the plans' union.
  /// The automaton is built per run; compiling does no projection work
  /// beyond this derivation.
  const QueryProjection& projection() const { return projection_; }

  /// Approximate resident bytes of the compiled artifact (states, rules,
  /// dispatch tables, interned symbols) — the accounting a query cache
  /// reports; an estimate, not an allocator measurement.
  std::size_t ApproxBytes() const;

  /// Streams one document through the plan: a one-plan MultiQueryRun pass,
  /// the same one Run and StreamAllTransform* make for a single plan, so
  /// output bytes and StreamStats agree across all of them. Thread-safe:
  /// each call builds its own engine and run state. The returned Status is
  /// the source's error (unreadable or malformed input, which leaves the
  /// engine unfinished and sets only the byte counters of `stats`) or the
  /// plan's (rule miss, step budget, cancellation, with `stats` filled as
  /// far as the run got).
  Status StreamFile(const std::string& path, OutputSink* sink,
                    StreamStats* stats = nullptr) const;
  Status StreamString(const std::string& xml, OutputSink* sink,
                      StreamStats* stats = nullptr) const;
  /// StreamFile and StreamString open their source and call this. `events`
  /// is any event stream (a parser, a pretok cache, a decorated source).
  /// `cancel`, when given, is the run's cooperative cancellation token (per
  /// request, so never baked into the plan).
  Status StreamEvents(EventSource* events, OutputSink* sink,
                      StreamStats* stats = nullptr,
                      const CancelToken* cancel = nullptr) const;

  /// Single-document sharding: splits one pretok event stream at top-level
  /// forest boundaries into at most `shards` byte ranges (0 = one shard
  /// per top-level tree, so the decomposition — and therefore the output on
  /// a multi-tree forest — depends only on the input, never on the machine)
  /// and evaluates each range as its own document (a StreamEvents pass),
  /// merging outputs in input order. For a single-rooted document the split yields
  /// one shard and the output is byte-identical to StreamEvents over the
  /// whole stream; for a multi-tree forest each shard's trees evaluate as an
  /// independent forest (see parallel/pretok_split.h for the contract).
  /// `pretok` must outlive the call and match this plan's SAX options.
  /// `options.threads` and `options.cancel` apply; the rest is for Run.
  Status StreamShardedPretok(std::string_view pretok, std::size_t shards,
                             OutputSink* sink, const RunOptions& options = {},
                             std::vector<StreamStats>* stats = nullptr) const;

  /// StreamShardedPretok over a pretok cache file (memory-mapped).
  Status StreamShardedPretokFile(const std::string& path, std::size_t shards,
                                 OutputSink* sink,
                                 const RunOptions& options = {},
                                 std::vector<StreamStats>* stats
                                 = nullptr) const;

  /// Non-streaming reference evaluation (whole document in memory); used
  /// for differential testing and debugging.
  Result<Forest> Evaluate(const Forest& input) const;

 private:
  CompiledPlan() = default;

  std::unique_ptr<QueryExpr> query_;
  Mft raw_mft_;
  Mft mft_;
  OptimizeReport report_;
  PipelineOptions options_;
  QueryProjection projection_;
};

/// Single-pass multi-query streaming: one tokenization of `source` feeds
/// every plan's engine at once (multiquery/multi_run.h), with the union of
/// the plans' projections skipping unmatchable subtrees at the source. One
/// sink per plan, in plan order; each plan streams under its own baked
/// options (step budget etc.), and the plans' SAX options must tokenize
/// identically.
///
/// Per-plan engine failures are isolated: siblings finish normally and the
/// failure lands in `results`. The returned Status covers setup and
/// source-level (XML) errors — plus, so failures cannot go unobserved, the
/// lowest-index plan failure when `results` is not requested or when every
/// plan failed.
Status StreamAllTransform(const std::vector<const CompiledPlan*>& plans,
                          ByteSource* source,
                          const std::vector<OutputSink*>& sinks,
                          const RunOptions& options = {},
                          std::vector<MultiPlanResult>* results = nullptr,
                          MultiQueryStats* run_stats = nullptr);

/// StreamAllTransform over an already-tokenized event stream (e.g. a pretok
/// cache); the caller is responsible for tokenization compatibility, as
/// with StreamTransformEvents.
Status StreamAllTransformEvents(const std::vector<const CompiledPlan*>& plans,
                                EventSource* events,
                                const std::vector<OutputSink*>& sinks,
                                const RunOptions& options = {},
                                std::vector<MultiPlanResult>* results = nullptr,
                                MultiQueryStats* run_stats = nullptr);

/// \brief One plan's outcome of a Run.
struct RunResult {
  /// OK, or the error of the lowest-index input this plan failed on. The
  /// plan's sink then holds exactly the output of the inputs before it.
  Status status;
  /// One entry per input, in input order, through the failing one.
  std::vector<StreamStats> per_input;
  std::uint64_t events_fed = 0;  ///< events the plan's engines consumed
};

/// The one run loop around the engines: streams every input through every
/// plan. Each input is one MultiQueryRun pass (a single tokenization, the
/// plans' union projection) over the plans still live; the inputs spread
/// over `options.threads` workers (ShardedExecutor), and each plan's output
/// reaches its sink in input order, byte-identical to streaming the inputs
/// serially, for any thread count. One sink per plan, in plan order; each
/// plan streams under its own baked options, and the plans' SAX options
/// must tokenize identically.
///
/// Failures are isolated per plan: a plan that fails on input i keeps the
/// output of the inputs before i and drops out, and its siblings keep
/// streaming. A source failure (unreadable or malformed input) or a tripped
/// `options.cancel` fails every plan not yet done with that input. The
/// returned Status covers setup errors, plus, so failures cannot go
/// unobserved, the lowest-index plan failure when `results` is not
/// requested or when every plan failed. `results` gets one entry per plan
/// (a setup error is every plan's); `stats`, when given, is the sum over
/// the shared passes run.
Status Run(const std::vector<const CompiledPlan*>& plans,
           const std::vector<ParallelInput>& inputs,
           const std::vector<OutputSink*>& sinks,
           const RunOptions& options = {},
           std::vector<RunResult>* results = nullptr,
           MultiQueryStats* stats = nullptr);

}  // namespace xqmft

#endif  // XQMFT_CORE_PIPELINE_H_
