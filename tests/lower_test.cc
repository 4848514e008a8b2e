// The execution-lowering stage (lower/): lowerability classification, the
// lowered opcode engine's differential equivalence against the table
// machine, and the ops engine's runtime contract (stats accounting, step
// budget, schema validation, sticky errors, done short-circuit).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "lower/lower.h"
#include "util/cancel.h"
#include "mft/mft.h"
#include "schema/schema.h"
#include "stream/engine.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

Mft MustParseMft(const std::string& text) {
  Result<Mft> r = ParseMft(text);
  if (!r.ok()) {
    ADD_FAILURE() << "ParseMft failed: " << r.status().ToString();
  }
  return std::move(r).ValueOrDie();
}

// Compiles query text through the full pipeline (so the plan is warmed the
// way serving paths see it) and returns the shared plan.
std::shared_ptr<const CompiledPlan> MustCompile(const std::string& text) {
  auto plan = CompiledPlan::Compile(text);
  EXPECT_TRUE(plan.ok()) << text << "\n" << plan.status().ToString();
  return plan.value();
}

std::string XmarkDoc(std::size_t bytes) {
  auto doc = GenerateDatasetString(DatasetKind::kXmark, bytes, /*seed=*/11);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

// Runs `m` forced-ops over `xml`, checks byte equality against the table
// machine, and returns the ops run's stats.
StreamStats DiffOpsVsTable(const Mft& m, const std::string& xml) {
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  EXPECT_TRUE(StreamTransformString(m, xml, &want, table_opts).ok());
  StreamOptions ops_opts;
  ops_opts.engine = EngineChoice::kOps;
  StringSink got;
  StreamStats stats;
  Status st = StreamTransformString(m, xml, &got, ops_opts, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_EQ(got.str(), want.str());
  return stats;
}

// ---------------------------------------------------------------------------
// Lowerability classification

TEST(Lowerability, ParameterFreeCopyLowers) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();  // compile the tables the lowering reads
  std::string why;
  const lower::LoweredPlan* plan = lower::GetLoweredPlan(m, &why);
  ASSERT_NE(plan, nullptr) << why;
  EXPECT_FALSE(plan->code.empty());
  EXPECT_EQ(plan->states.size(), static_cast<std::size_t>(m.num_states()));
  // The verdict is cached on the transducer: same pointer on re-query.
  EXPECT_EQ(lower::GetLoweredPlan(m), plan);
}

TEST(Lowerability, AccumulatingParametersLowerWithRopes) {
  // Append-only accumulating parameters lower to rope-register opcodes; the
  // classic collect-then-emit shape runs fully on the opcode core.
  Mft m = MustParseMft(
      "q(a(x1)x2) -> p(x1, eps) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n"
      "p(b(x1)x2, y1) -> p(x2, y1 b(eps))\n"
      "p(%t(x1)x2, y1) -> p(x2, y1)\n"
      "p(eps, y1) -> y1\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(m, &why);
  ASSERT_NE(lp, nullptr) << why;
  EXPECT_FALSE(lp->hybrid) << why;
  EXPECT_EQ(why, "full");
}

TEST(Lowerability, PredicateQueriesLowerFully) {
  // q01's predicate compiles to a selector cluster; the lowering factors the
  // common suffix and runs the cluster on choice frames, and the literal
  // test ("person0") on content-keyed text programs.
  auto plan = MustCompile(QueryById("q01").text);
  std::string why;
  const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
  ASSERT_NE(lp, nullptr) << why;
  EXPECT_FALSE(lp->hybrid);
  EXPECT_EQ(why, "full");
  EXPECT_GT(lp->choice_params, 0u);
  EXPECT_EQ(lp->text_literals, std::vector<std::string>{"person0"});
}

TEST(Lowerability, NonlinearParameterDoesNotLower) {
  // y1 y1 duplicates an accumulating parameter: rope registers are linear
  // (spliced exactly once), so the plan must stay on the table machine.
  Mft m = MustParseMft(
      "q(a(x1)x2) -> q2(x1, m(eps)) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n"
      "q2(a(x1)x2, y1) -> y1 y1\n"
      "q2(%t(x1)x2, y1) -> y1\n"
      "q2(eps, y1) -> y1\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("parameter-carrying call over children does not lower"),
            std::string::npos)
      << why;
}

TEST(Lowerability, TextContentMatchLowers) {
  // A rule keyed on text content ("hit") compiles to a text case: the ops
  // core picks the state's program by comparing the event's content.
  Mft m = MustParseMft(
      "q(\"hit\"(x1)x2) -> mark(eps) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  ASSERT_NE(lower::GetLoweredPlan(m, &why), nullptr) << why;
  EXPECT_EQ(why, "full");
  StreamStats stats = DiffOpsVsTable(m, "<a>hit</a>hit<b>hi</b>hitt<c/>hit");
  EXPECT_EQ(stats.cells_created, 0u);
}

TEST(Lowerability, X0CallCycleDoesNotLower) {
  // q(eps) -> q(x0) never terminates; x0 inlining must detect the cycle
  // instead of recursing forever.
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> q(x0)\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("x0-call cycle"), std::string::npos) << why;
}

TEST(Lowerability, Fig3CorpusClassification) {
  // The whole Figure 3 corpus lowers fully: parameter-free queries to plain
  // opcode programs, predicate queries (q01, q04, q16, q17) to choice
  // frames for their selector clusters.
  for (const BenchQuery& q : Figure3Queries()) {
    auto plan = MustCompile(q.text);
    std::string why;
    const lower::LoweredPlan* lp = lower::GetLoweredPlan(plan->mft(), &why);
    ASSERT_NE(lp, nullptr) << q.id << ": " << why;
    EXPECT_FALSE(lp->hybrid) << q.id << ": " << why;
    EXPECT_EQ(why, "full") << q.id;
  }
}

// ---------------------------------------------------------------------------
// Differential: ops engine vs table engine over the Figure 3 corpus

TEST(LoweredDifferential, Fig3CorpusChunkedRefill) {
  const std::string xml = XmarkDoc(16 * 1024);
  for (const BenchQuery& q : Figure3Queries()) {
    auto plan = MustCompile(q.text);
    ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr) << q.id;

    StreamOptions table_opts;
    table_opts.engine = EngineChoice::kTable;
    StringSink want;
    ASSERT_TRUE(
        StreamTransformString(plan->mft(), xml, &want, table_opts).ok())
        << q.id;

    // Chunked refill: the lowered engine must be insensitive to how the
    // parser's buffer boundaries slice tags and text runs.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
      StreamOptions ops_opts;
      ops_opts.engine = EngineChoice::kOps;
      ChunkedSource source(xml, chunk);
      StringSink got;
      StreamStats stats;
      Status st = StreamTransform(plan->mft(), &source, &got, ops_opts,
                                  &stats);
      ASSERT_TRUE(st.ok()) << q.id << " chunk=" << chunk << ": "
                           << st.ToString();
      ASSERT_EQ(got.str(), want.str()) << q.id << " chunk=" << chunk;
      // Fully lowered: arena-served consumers, no refcounted cells, no
      // thunks, no table-machine sub-runs.
      EXPECT_TRUE(stats.used_ops_engine) << q.id;
      EXPECT_GT(stats.cells_arena, 0u) << q.id;
      EXPECT_EQ(stats.cells_created, 0u) << q.id;
      EXPECT_EQ(stats.exprs_created, 0u) << q.id;
      EXPECT_EQ(stats.bridge_runs, 0u) << q.id;
      EXPECT_GT(stats.rule_applications, 0u) << q.id;
      EXPECT_GT(stats.peak_bytes, 0u) << q.id;
    }
  }
}

TEST(LoweredDifferential, MultiTreeForestInput) {
  // The document-as-forest contract: multiple top-level trees stream
  // through the ops engine identically to the table machine.
  auto plan = MustCompile("<out>{ for $x in $input/a return <h>{$x}</h> }</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  const std::string xml = "<a><b>1</b></a><c>skip</c><a>2</a>";
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  ASSERT_TRUE(StreamTransformString(plan->mft(), xml, &want, table_opts).ok());
  StreamOptions ops_opts;
  ops_opts.engine = EngineChoice::kOps;
  StringSink got;
  StreamStats stats;
  ASSERT_TRUE(
      StreamTransformString(plan->mft(), xml, &got, ops_opts, &stats).ok());
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_EQ(got.str(), want.str());
}

// ---------------------------------------------------------------------------
// Runtime contract

TEST(OpsEngine, ForcedOpsOnUnlowerablePlanFallsBack) {
  // Every Figure 3 query now lowers, so the fallback path needs a
  // handwritten transducer: a nonlinear parameter (y1 y1) is outside the
  // rope fragment and must silently run on the table machine.
  Mft m = MustParseMft(
      "q(a(x1)x2) -> q2(x1, m(eps)) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> eps\n"
      "q2(a(x1)x2, y1) -> y1 y1\n"
      "q2(%t(x1)x2, y1) -> y1\n"
      "q2(eps, y1) -> y1\n");
  ASSERT_TRUE(m.Validate().ok());
  const std::string xml = "<a><a>inner</a></a>";
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  ASSERT_TRUE(StreamTransformString(m, xml, &want, table_opts).ok());

  StreamOptions ops_opts;
  ops_opts.engine = EngineChoice::kOps;
  StringSink got;
  StreamStats stats;
  ASSERT_TRUE(StreamTransformString(m, xml, &got, ops_opts, &stats).ok());
  EXPECT_FALSE(stats.used_ops_engine);
  EXPECT_EQ(stats.cells_arena, 0u);
  EXPECT_GT(stats.cells_created, 0u);
  EXPECT_EQ(got.str(), want.str());
}

TEST(OpsEngine, StepBudgetTrips) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  StreamOptions options;
  options.engine = EngineChoice::kOps;
  options.max_steps = 2;  // the //a scan charges per consumer per event
  std::string xml = "<doc>";
  for (int i = 0; i < 64; ++i) xml += "<a>x</a>";
  xml += "</doc>";
  // Stats are only populated by a successful Finish, so the status is the
  // whole observable here.
  StringSink sink;
  Status st = StreamTransformString(plan->mft(), xml, &sink, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(OpsEngine, ValidatorRunsUnderOpsEngine) {
  auto plan = MustCompile("<out>{$input//b}</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  auto schema = Schema::Parse("a -> b*\nb -> \n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  StreamOptions ok_opts;
  ok_opts.engine = EngineChoice::kOps;
  SchemaValidator ok_validator(schema.value());
  ok_opts.validator = &ok_validator;
  StringSink ok_sink;
  StreamStats ok_stats;
  Status ok_st = StreamTransformString(plan->mft(), "<a><b/><b/></a>",
                                       &ok_sink, ok_opts, &ok_stats);
  EXPECT_TRUE(ok_st.ok()) << ok_st.ToString();
  EXPECT_TRUE(ok_stats.used_ops_engine);
  EXPECT_EQ(ok_sink.str(), "<out><b></b><b></b></out>");

  StreamOptions bad_opts;
  bad_opts.engine = EngineChoice::kOps;
  SchemaValidator bad_validator(schema.value());
  bad_opts.validator = &bad_validator;
  StringSink bad_sink;
  Status bad_st = StreamTransformString(plan->mft(), "<a><c/></a>",
                                        &bad_sink, bad_opts);
  EXPECT_FALSE(bad_st.ok());
}

TEST(OpsEngine, UnbalancedEndElementIsStickyError) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  StreamOptions options = plan->options().stream;
  options.engine = EngineChoice::kOps;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  XmlEvent ev;
  ev.type = XmlEventType::kEndElement;
  ev.name = "a";
  Status first = engine.Feed(ev);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  // Sticky: the same status again on every later call.
  ev.type = XmlEventType::kStartElement;
  EXPECT_EQ(engine.Feed(ev).ToString(), first.ToString());
  EXPECT_EQ(engine.Finish().ToString(), first.ToString());
}

TEST(OpsEngine, DoneAfterEndOfDocumentIgnoresLaterEvents) {
  auto plan = MustCompile("<out>{$input//a}</out>");
  StreamOptions options = plan->options().stream;
  options.engine = EngineChoice::kOps;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  ASSERT_TRUE(engine.Feed(ev).ok());
  ev.type = XmlEventType::kEndElement;
  ASSERT_TRUE(engine.Feed(ev).ok());
  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(engine.Feed(ev).ok());
  EXPECT_TRUE(engine.done());
  const std::string after_done = sink.str();
  // Feeding past done is a no-op (the same short-circuit the table machine
  // applies, before any validation).
  ev.type = XmlEventType::kStartElement;
  ev.name = "zzz";
  EXPECT_TRUE(engine.Feed(ev).ok());
  EXPECT_EQ(sink.str(), after_done);
  StreamStats stats;
  ASSERT_TRUE(engine.Finish(&stats).ok());
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_EQ(sink.str(), "<out><a></a></out>");
}

TEST(OpsEngine, FinishSuppliesEndOfDocument) {
  // Constant output without a single input event: Prime + Finish.
  auto plan = MustCompile("<out>done</out>");
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  StreamOptions options = plan->options().stream;
  options.engine = EngineChoice::kOps;
  StringSink sink;
  Engine engine(plan->mft(), &sink, options);
  EXPECT_TRUE(engine.Finish().ok());
  EXPECT_EQ(sink.str(), "<out>done</out>");
}

// ---------------------------------------------------------------------------
// Lowering cache invalidation: every Mft mutator must drop the cached
// verdict, not just the rule setters.

TEST(Lowerability, MutatorsDropTheLoweringCache) {
  Mft m = MustParseMft(
      "qa(%t(x1)x2) -> a(eps) qa(x2)\n"
      "qa(eps) -> eps\n"
      "qb(%t(x1)x2) -> b(eps) qb(x2)\n"
      "qb(eps) -> eps\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  ASSERT_NE(m.lowering_cache(), nullptr);

  // Renaming a state bakes into the plan's diagnostics; the cached verdict
  // must go with the dispatch.
  m.set_state_name(0, "qa_renamed");
  EXPECT_EQ(m.lowering_cache(), nullptr);
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  ASSERT_NE(m.lowering_cache(), nullptr);

  // Moving the initial state changes the program semantically: a stale
  // cached plan would keep emitting <a> from the old start state.
  StateId qb = -1;
  for (StateId q = 0; q < m.num_states(); ++q) {
    if (m.state_name(q) == "qb") qb = q;
  }
  ASSERT_GE(qb, 0);
  StreamOptions ops;
  ops.engine = EngineChoice::kOps;
  StringSink before;
  StreamStats sb;
  ASSERT_TRUE(StreamTransformString(m, "<x/>", &before, ops, &sb).ok());
  EXPECT_TRUE(sb.used_ops_engine);
  EXPECT_EQ(before.str(), "<a></a>");

  m.set_initial_state(qb);
  EXPECT_EQ(m.lowering_cache(), nullptr);
  StringSink after;
  StreamStats sa;
  ASSERT_TRUE(StreamTransformString(m, "<x/>", &after, ops, &sa).ok());
  EXPECT_TRUE(sa.used_ops_engine);
  EXPECT_EQ(after.str(), "<b></b>");
}

// ---------------------------------------------------------------------------
// Rope-register edge cases (accumulating parameters on the opcode core)

// Collects the <b> children of each <a> into an accumulating parameter and
// emits the collection when the subtree closes.
const char kRopeCollectMft[] =
    "q(a(x1)x2) -> p(x1, eps) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "p(b(x1)x2, y1) -> p(x2, y1 b(eps))\n"
    "p(%t(x1)x2, y1) -> p(x2, y1)\n"
    "p(eps, y1) -> y1\n";

// Concatenates every text node under <a> into the parameter (kRopeTextCur).
const char kRopeTextAccumMft[] =
    "q(a(x1)x2) -> p(x1, eps) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "p(%ttext(x1)x2, y1) -> p(x2, y1 %t)\n"
    "p(%t(x1)x2, y1) -> p(x2, y1)\n"
    "p(eps, y1) -> y1\n";

TEST(RopeRegisters, EmptyParameterEmitsNothing) {
  Mft m = MustParseMft(kRopeCollectMft);
  ASSERT_TRUE(m.Validate().ok());
  // No <b> children anywhere: the rope register is created, never appended
  // to, and spliced empty at the end of the subtree.
  StreamStats stats = DiffOpsVsTable(m, "<a><c>t</c><c/></a>");
  EXPECT_EQ(stats.cells_created, 0u);
  EXPECT_EQ(stats.exprs_created, 0u);
}

TEST(RopeRegisters, GrowthAcrossArenaChunks) {
  Mft m = MustParseMft(kRopeTextAccumMft);
  ASSERT_TRUE(m.Validate().ok());
  // Enough accumulated text that the rope's chunk chain spans several 64 KiB
  // arena chunks; the <b/> separators force distinct text records instead of
  // one whole-record chunk.
  std::string xml = "<a>";
  for (int i = 0; i < 6000; ++i) {
    xml += "chunk";
    xml += std::to_string(i);
    xml += "<b/>";
  }
  xml += "</a>";
  StreamStats stats = DiffOpsVsTable(m, xml);
  EXPECT_EQ(stats.cells_created, 0u);
  EXPECT_GT(stats.peak_bytes, 64u * 1024u);
}

TEST(RopeRegisters, SeveralDocumentsMatchTableAtSmallChunks) {
  Mft m = MustParseMft(kRopeCollectMft);
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  // Documents of different shapes, one after another on one transducer,
  // at refill chunk sizes that split every token: each run's rope chunks
  // and prealloc blocks are its own.
  const std::string docs[] = {"<a><b>one</b>x<b>two</b></a>",
                              "<a>just text</a>",
                              "<a><b/><c><b/></c><b/></a>"};
  for (const std::string& xml : docs) {
    StreamOptions table_opts;
    table_opts.engine = EngineChoice::kTable;
    StringSink want;
    ASSERT_TRUE(StreamTransformString(m, xml, &want, table_opts).ok());
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
      ChunkedSource source(xml, chunk);
      StringSink got;
      StreamStats stats;
      StreamOptions ops_opts;
      ops_opts.engine = EngineChoice::kOps;
      Status st = StreamTransform(m, &source, &got, ops_opts, &stats);
      ASSERT_TRUE(st.ok()) << xml << ": " << st.ToString();
      EXPECT_TRUE(stats.used_ops_engine);
      EXPECT_EQ(got.str(), want.str()) << xml << " chunk=" << chunk;
    }
  }
}

TEST(RopeRegisters, StepBudgetTripsMidAppend) {
  Mft m = MustParseMft(kRopeCollectMft);
  ASSERT_TRUE(m.Validate().ok());
  StreamOptions options;
  options.engine = EngineChoice::kOps;
  options.max_steps = 2;
  std::string xml = "<a>";
  for (int i = 0; i < 64; ++i) xml += "<b/>";
  xml += "</a>";
  StringSink sink;
  Status st = StreamTransformString(m, xml, &sink, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// The paper's section 2.1 example: y1 is used twice, which neither rope
// registers nor choice frames express, so the plan runs wholly on the table
// machine — and a forced ops run falls back byte-identically.

TEST(LoweredDifferential, Section21TableOnlyChunkedRefill) {
  auto plan = MustCompile(kSection21Query);
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(plan->mft(), &why), nullptr);
  EXPECT_NE(why.find("nonlinear"), std::string::npos) << why;
  const std::string xml =
      "<r><a><b><c>1</c><d>2</d><b><c>3</c></b></b></a>"
      "<a>t<b><d>4</d></b></a></r>";
  StreamOptions table_opts;
  table_opts.engine = EngineChoice::kTable;
  StringSink want;
  ASSERT_TRUE(StreamTransformString(plan->mft(), xml, &want, table_opts).ok());
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{64}, std::size_t{4096}}) {
    ChunkedSource source(xml, chunk);
    StringSink got;
    StreamStats stats;
    StreamOptions ops_opts;
    ops_opts.engine = EngineChoice::kOps;
    Status st =
        StreamTransform(plan->mft(), &source, &got, ops_opts, &stats);
    ASSERT_TRUE(st.ok()) << "chunk=" << chunk << ": " << st.ToString();
    EXPECT_EQ(got.str(), want.str()) << "chunk=" << chunk;
    EXPECT_FALSE(stats.used_ops_engine);
  }
}

// ---------------------------------------------------------------------------
// Choice frames: predicates on the opcode core

// Runs `m` on both cores over `xml` (at the given refill chunk size) and
// requires byte-identical output and the same status. Returns the ops run's
// stats.
StreamStats DiffCores(const Mft& m, const std::string& xml,
                      std::size_t chunk = 4096,
                      StreamOptions base = StreamOptions()) {
  StreamOptions table_opts = base;
  table_opts.engine = EngineChoice::kTable;
  ChunkedSource table_src(xml, chunk);
  StringSink want;
  Status ts = StreamTransform(m, &table_src, &want, table_opts);
  StreamOptions ops_opts = base;
  ops_opts.engine = EngineChoice::kOps;
  ChunkedSource ops_src(xml, chunk);
  StringSink got;
  StreamStats stats;
  Status os = StreamTransform(m, &ops_src, &got, ops_opts, &stats);
  EXPECT_EQ(os.code(), ts.code()) << os.ToString() << " vs " << ts.ToString();
  EXPECT_EQ(got.str(), want.str()) << xml;
  return stats;
}

// One open_auction with `n` bidders; `xx` / `yy` are the positions of the
// bidders naming personXX / personYY (-1: none).
std::string AuctionDoc(int n, int xx, int yy) {
  std::string xml = "<site><open_auctions><open_auction><reserve>r1</reserve>";
  for (int i = 0; i < n; ++i) {
    const char* who = i == xx ? "personXX" : i == yy ? "personYY" : "other";
    xml += "<bidder><date>d</date><personref><personref_person>";
    xml += who;
    xml += "</personref_person></personref><increase>1</increase></bidder>";
  }
  xml += "</open_auction><open_auction><bidder><personref><personref_person>"
         "personXX</personref_person></personref></bidder></open_auction>"
         "</open_auctions></site>";
  return xml;
}

TEST(ChoiceFrames, NestedChoiceMatchesTableAndStaysLinear) {
  // q04: each bidder opens one more following-sibling continuation inside
  // the predicate. Frames no longer reachable from the site are pruned, so
  // the work stays linear in the number of siblings.
  auto plan = MustCompile(QueryById("q04").text);
  std::string why;
  ASSERT_NE(lower::GetLoweredPlan(plan->mft(), &why), nullptr) << why;
  struct Shape {
    const char* name;
    int xx, yy;  // -2 = last bidder
  };
  const Shape kShapes[] = {{"winner first", 0, -2},
                           {"winner last", -2, 0},
                           {"winner absent", -1, -2},
                           {"winner late", -3, -2}};
  for (const Shape& shape : kShapes) {
    std::uint64_t steps_128 = 0;
    for (int n : {1, 2, 3, 16, 128, 256}) {
      auto pos = [n](int p) { return p == -2 ? n - 1 : p == -3 ? n - 2 : p; };
      const std::string xml = AuctionDoc(n, pos(shape.xx), pos(shape.yy));
      // Held segments must not care how parser refills slice the input.
      if (n <= 16) DiffCores(plan->mft(), xml, /*chunk=*/7);
      StreamStats stats = DiffCores(plan->mft(), xml);
      EXPECT_TRUE(stats.used_ops_engine);
      EXPECT_EQ(stats.cells_created, 0u);
      if (n == 128) steps_128 = stats.rule_applications;
      if (n == 256) {
        EXPECT_LE(stats.rule_applications * 10, steps_128 * 22)
            << shape.name << ": 128 -> " << steps_128 << ", 256 -> "
            << stats.rule_applications;
      }
    }
  }
}

// A cluster whose unselected branch cannot fire: r over <c> defers to s,
// whose default rule is removed below (the parser only builds total
// transducers). The table machine never evaluates s when a later <b>
// selects y1; eager evaluation would fail there.
const char kNonTotalMft[] =
    "q(a(x1)x2) -> p(x0, hit(eps), miss(eps)) q(x2)\n"
    "q(%t(x1)x2) -> q(x2)\n"
    "q(eps) -> eps\n"
    "p(%t(x1)x2, y1, y2) -> r(x1, y1, y2)\n"
    "p(eps, y1, y2) -> y2\n"
    "r(b(x1)x2, y1, y2) -> y1\n"
    "r(c(x1)x2, y1, y2) -> r(x2, y1, s(x1, y1, y2))\n"
    "r(%t(x1)x2, y1, y2) -> r(x2, y1, y2)\n"
    "r(eps, y1, y2) -> y2\n"
    "s(%t(x1)x2, y1, y2) -> y2\n"
    "s(eps, y1, y2) -> y1\n";

TEST(ChoiceFrames, NonTotalClusterStaysOnTable) {
  Mft m = MustParseMft(kNonTotalMft);
  for (StateId q = 0; q < m.num_states(); ++q) {
    if (m.state_name(q) == "s") m.mutable_rules(q).default_rule.reset();
  }
  m.dispatch();
  std::string why;
  EXPECT_EQ(lower::GetLoweredPlan(m, &why), nullptr);
  EXPECT_NE(why.find("not total"), std::string::npos) << why;
  EXPECT_NE(why.find("'s'"), std::string::npos) << why;
  // s is never evaluated here ...
  StreamStats ok = DiffCores(m, "<a><c><z/></c><b/></a><a/>");
  EXPECT_FALSE(ok.used_ops_engine);
  // ... but is here, and both cores report the same failure.
  DiffCores(m, "<a><c><z/></c></a>");
}

TEST(ChoiceFrames, LiteralEncodingsMatchTable) {
  // The literal test compares decoded content: a character reference, a
  // CDATA section, and a literal a comment splits all behave as on the
  // table machine, at every refill boundary.
  auto plan = MustCompile(QueryById("q01").text);
  ASSERT_NE(lower::GetLoweredPlan(plan->mft()), nullptr);
  const std::string kIds[] = {"person&#48;", "<![CDATA[person0]]>",
                              "person<!--c-->0", "person0", "person00",
                              "", "person"};
  for (const std::string& id : kIds) {
    const std::string xml = "<site><people><person><name>A</name><person_id>" +
                            id + "</person_id><name>B</name></person>" +
                            "</people></site>";
    for (std::size_t chunk : {std::size_t{1}, std::size_t{5}, std::size_t{4096}}) {
      StreamStats stats = DiffCores(plan->mft(), xml, chunk);
      EXPECT_TRUE(stats.used_ops_engine);
    }
  }
}

TEST(ChoiceFrames, StepBudgetTripsInsideChoice) {
  auto plan = MustCompile(QueryById("q04").text);
  StreamOptions budget;
  budget.max_steps = 40;  // trips while the first auction's choice pends
  const std::string xml = AuctionDoc(32, 0, 31);
  for (EngineChoice engine : {EngineChoice::kTable, EngineChoice::kOps}) {
    StreamOptions o = budget;
    o.engine = engine;
    StringSink sink;
    Status st = StreamTransformString(plan->mft(), xml, &sink, o);
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  }
}

// Feeds `xml` event by event on the ops core, cancelling before event
// `cut`: the tripped Feed and Finish must add nothing, and the sink must
// hold a prefix of the uncancelled output that contains `held` only once
// the event `decided` (an index) has run.
void CheckCancelAt(const Mft& m, const std::vector<TracedEvent>& events,
                   std::size_t cut, const std::string& full,
                   const std::string& held, std::size_t decided) {
  CancelToken token;
  StreamOptions o;
  o.engine = EngineChoice::kOps;
  o.cancel = &token;
  o.cancel_check_events = 1;
  StringSink sink;
  Engine engine(m, &sink, o);
  ASSERT_TRUE(engine.Prime().ok());
  for (std::size_t i = 0; i < events.size(); ++i) {
    XmlEvent ev;
    ev.type = events[i].type;
    ev.name = events[i].name;
    ev.text = events[i].text;
    if (i == cut) {
      const std::string before = sink.str();
      token.Cancel();
      EXPECT_EQ(engine.Feed(ev).code(), StatusCode::kCancelled);
      EXPECT_EQ(engine.Finish().code(), StatusCode::kCancelled);
      EXPECT_EQ(sink.str(), before) << "cut=" << cut;
      EXPECT_EQ(full.compare(0, before.size(), before), 0)
          << "cut=" << cut << ": " << before;
      if (!held.empty() && cut <= decided) {
        EXPECT_EQ(before.find(held), std::string::npos) << "cut=" << cut;
      }
      return;
    }
    ASSERT_TRUE(engine.Feed(ev).ok());
  }
}

// Cuts at every event. `held` is output that waits on a choice which the
// first text event equal to `decider` settles.
void CheckCancelEverywhere(const Mft& m, const std::string& xml,
                           const std::string& held = "",
                           const std::string& decider = "") {
  ASSERT_NE(lower::GetLoweredPlan(m), nullptr);
  StreamOptions o;
  o.engine = EngineChoice::kTable;
  StringSink full;
  ASSERT_TRUE(StreamTransformString(m, xml, &full, o).ok());
  StringSource src(xml);
  Result<std::vector<TracedEvent>> trace = Trace(&src);
  ASSERT_TRUE(trace.ok());
  const std::vector<TracedEvent>& events = trace.value();
  std::size_t decided = 0;
  while (decided < events.size() && events[decided].text != decider) {
    ++decided;
  }
  for (std::size_t cut = 0; cut < events.size(); ++cut) {
    CheckCancelAt(m, events, cut, full.str(), held, decided);
  }
}

TEST(ChoiceFrames, CancelWhileChoicePendsAtElementAnchor) {
  // NAME is written into the winner's held segment before "person0"
  // decides the choice: no cut before that may leak it.
  auto plan = MustCompile(QueryById("q01").text);
  CheckCancelEverywhere(
      plan->mft(),
      "<site><people><person><name>NAME</name><person_id>person0"
      "</person_id></person><person><name>LOST</name></person></people>"
      "</site>",
      "NAME", "person0");
}

TEST(ChoiceFrames, CancelAroundTextAnchor) {
  // node() iterates text nodes too: the predicate's site anchors at each
  // text node and resolves within its event.
  auto plan = MustCompile(
      "<out>{ for $n in $input/r/node()[empty(./b)] return <n>{$n}</n> }"
      "</out>");
  CheckCancelEverywhere(plan->mft(), "<r>t1<a><b/></a>t2<c>x</c></r>");
}

TEST(ChoiceFrames, CancelAroundEpsilonAnchor) {
  // The site sits in an epsilon rule: it anchors at the end of each forest.
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> %t(q(x1)) q(x2)\n"
      "q(eps) -> p(x0, yes(eps), no(eps))\n"
      "p(%t(x1)x2, y1, y2) -> y1\n"
      "p(eps, y1, y2) -> y2\n");
  ASSERT_TRUE(m.Validate().ok());
  m.dispatch();
  CheckCancelEverywhere(m, "<a><b>t</b><c/></a>");
  DiffCores(m, "<a><b>t</b><c/></a>");
}

}  // namespace
}  // namespace xqmft
