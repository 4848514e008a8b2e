// Tests for single-pass multi-query streaming (src/multiquery/ and the
// core/service wiring above it): the push-mode Engine contract, the
// differential property that one shared pass is byte-identical to per-query
// serial runs (Figure 3 corpus, text and pretok sources, every refill chunk
// size 1..64), the single-parse property (the shared source is scanned
// exactly once regardless of query-set size), union projection soundness
// (kept ancestor spines — the reparenting counterexample), and per-plan
// failure isolation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "multiquery/multi_run.h"
#include "multiquery/projection.h"
#include "multiquery/union_projection.h"
#include "stream/engine.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

using Plans = std::vector<std::shared_ptr<const CompiledPlan>>;

Plans CompileSet(const std::vector<std::string>& texts) {
  Plans plans;
  for (const std::string& t : texts) {
    auto plan = CompiledPlan::Compile(t);
    EXPECT_TRUE(plan.ok()) << t << ": " << plan.status().ToString();
    plans.push_back(plan.value());
  }
  return plans;
}

std::vector<const CompiledPlan*> Raw(const Plans& plans) {
  std::vector<const CompiledPlan*> raw;
  for (const auto& p : plans) raw.push_back(p.get());
  return raw;
}

std::vector<std::string> SerialOutputs(const Plans& plans,
                                       const std::string& xml) {
  std::vector<std::string> out;
  for (const auto& p : plans) {
    StringSink sink;
    Status st = p->StreamString(xml, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    out.push_back(sink.str());
  }
  return out;
}

// The first `n` Figure 3 queries: n=1,2 are fully projectable; n>=3 include
// q04 (following-sibling), which disables the union automaton — both sides
// of the projection switch are exercised by the {1,2,4,8} ladder.
std::vector<std::string> Fig3Set(std::size_t n) {
  const auto& corpus = Figure3Queries();
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < n; ++i) {
    texts.push_back(corpus[i % corpus.size()].text);
  }
  return texts;
}

std::string XmarkDoc(std::size_t bytes, std::uint64_t seed = 7) {
  auto doc = GenerateDatasetString(DatasetKind::kXmark, bytes, seed);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.value();
}

// Counts bytes handed out via Read and never exposes Contents, so every
// byte the run consumes is observable — the single-parse property check.
class CountingSource : public ByteSource {
 public:
  explicit CountingSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min(n, s_.size() - pos_);
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    bytes_read_ += take;
    return take;
  }
  std::size_t bytes_read() const { return bytes_read_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t bytes_read_ = 0;
};

// ---------------------------------------------------------------------------
// Push-mode Engine contract

TEST(PushEngine, ManualFeedMatchesPullPump) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $x in $input/doc/a return <hit>{$x/text()}</hit> }</out>");
  ASSERT_TRUE(plan.ok());
  const std::string xml = "<doc><a>1</a><b>skip</b><a>2</a></doc>";

  StringSink serial;
  ASSERT_TRUE(plan.value()->StreamString(xml, &serial).ok());

  StringSink pushed;
  Engine engine(plan.value()->mft(), &pushed,
                plan.value()->options().stream);
  StringSource src(xml);
  SaxParser parser(&src);
  parser.BindSymbols(engine.symbols());
  ASSERT_TRUE(engine.Prime().ok());
  XmlEvent ev;
  while (!engine.done()) {
    ASSERT_TRUE(parser.Next(&ev).ok());
    ASSERT_TRUE(engine.Feed(ev).ok());
    if (ev.type == XmlEventType::kEndOfDocument) break;
  }
  StreamStats stats;
  ASSERT_TRUE(engine.Finish(&stats).ok());
  EXPECT_EQ(pushed.str(), serial.str());
  EXPECT_GT(stats.output_events, 0u);
  // Finish is idempotent.
  EXPECT_TRUE(engine.Finish().ok());
}

TEST(PushEngine, FinishSuppliesEndOfDocument) {
  // A constant query needs no input at all: Prime + Finish must produce the
  // full output without the driver ever feeding an event.
  auto plan = CompiledPlan::Compile("<out>done</out>");
  ASSERT_TRUE(plan.ok());
  StringSink sink;
  Engine engine(plan.value()->mft(), &sink,
                plan.value()->options().stream);
  EXPECT_TRUE(engine.Finish().ok());
  EXPECT_EQ(sink.str(), "<out>done</out>");
}

TEST(PushEngine, ErrorsAreSticky) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $x in $input//a return <h>{$x}</h> }</out>");
  ASSERT_TRUE(plan.ok());
  StreamOptions options = plan.value()->options().stream;
  options.max_steps = 1;  // the step budget trips immediately
  // Pin the table machine: the ops engine charges one step per consumer
  // per event, so this budget would only trip at the end element there.
  options.engine = EngineChoice::kTable;
  StringSink sink;
  Engine engine(plan.value()->mft(), &sink, options);
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  Status first = engine.Feed(ev);
  ASSERT_FALSE(first.ok());
  ev.type = XmlEventType::kEndElement;
  Status second = engine.Feed(ev);
  EXPECT_EQ(second.ToString(), first.ToString());
  EXPECT_EQ(engine.Finish().ToString(), first.ToString());
}

// ---------------------------------------------------------------------------
// Differential: single pass vs per-query serial runs

TEST(MultiQuery, Fig3DifferentialTextAllChunkSizes) {
  const std::string xml = XmarkDoc(4 * 1024);
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    std::vector<std::string> want = SerialOutputs(plans, xml);
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      std::vector<StringSink> sinks(n);
      std::vector<OutputSink*> sink_ptrs;
      for (auto& s : sinks) sink_ptrs.push_back(&s);
      ChunkedSource source(xml, chunk);
      std::vector<MultiPlanResult> results;
      MultiQueryStats run_stats;
      Status st = StreamAllTransform(Raw(plans), &source, sink_ptrs, {},
                                     &results, &run_stats);
      ASSERT_TRUE(st.ok()) << "n=" << n << " chunk=" << chunk << ": "
                           << st.ToString();
      ASSERT_EQ(results.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
        EXPECT_EQ(sinks[i].str(), want[i])
            << "n=" << n << " chunk=" << chunk << " plan=" << i;
      }
    }
  }
}

TEST(MultiQuery, Fig3DifferentialPretok) {
  const std::string xml = XmarkDoc(16 * 1024);
  StringSource src(xml);
  std::string pretok;
  ASSERT_TRUE(PretokenizeXml(&src, &pretok).ok());
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    std::vector<std::string> want = SerialOutputs(plans, xml);
    std::vector<StringSink> sinks(n);
    std::vector<OutputSink*> sink_ptrs;
    for (auto& s : sinks) sink_ptrs.push_back(&s);
    std::vector<RunResult> results;
    Status st = xqmft::Run(Raw(plans), {ParallelInput::PretokBytes(pretok)},
                           sink_ptrs, {}, &results);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
      EXPECT_EQ(sinks[i].str(), want[i]) << "n=" << n << " plan=" << i;
    }
  }
}

TEST(MultiQuery, DifferentialHoldsWithProjectionOff) {
  const std::string xml = XmarkDoc(16 * 1024);
  Plans plans = CompileSet(Fig3Set(4));
  std::vector<std::string> want = SerialOutputs(plans, xml);
  std::vector<StringSink> sinks(plans.size());
  std::vector<OutputSink*> sink_ptrs;
  for (auto& s : sinks) sink_ptrs.push_back(&s);
  StringSource source(xml);
  RunOptions options;
  options.union_projection = false;
  MultiQueryStats run_stats;
  ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, options,
                                 nullptr, &run_stats)
                  .ok());
  EXPECT_FALSE(run_stats.projection_enabled);
  EXPECT_EQ(run_stats.events_skipped, 0u);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(sinks[i].str(), want[i]);
  }
}

// ---------------------------------------------------------------------------
// Single-parse property: the shared source is scanned exactly once,
// regardless of how many plans ride the pass.

TEST(MultiQuery, SharedSourceScannedExactlyOnce) {
  const std::string xml = XmarkDoc(16 * 1024);
  std::size_t one_pass = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    Plans plans = CompileSet(Fig3Set(n));
    std::vector<StringSink> sinks(n);
    std::vector<OutputSink*> sink_ptrs;
    for (auto& s : sinks) sink_ptrs.push_back(&s);
    CountingSource source(xml);
    MultiQueryStats run_stats;
    ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, {},
                                   nullptr, &run_stats)
                    .ok());
    // Bytes leaving the source equal one full scan — not n scans. (All
    // Figure 3 streams read to the end of the document, so the count is the
    // same across n; the first iteration pins it.)
    if (one_pass == 0) one_pass = source.bytes_read();
    EXPECT_EQ(source.bytes_read(), one_pass) << "n=" << n;
    EXPECT_EQ(source.bytes_read(), xml.size()) << "n=" << n;
    EXPECT_EQ(run_stats.bytes_in, xml.size()) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Union projection

TEST(MultiQuery, ProjectionSkipsEventsWithoutChangingOutput) {
  const std::string xml = XmarkDoc(32 * 1024);
  // Two projectable queries (Q1, Q2): people and open-auction subtrees are
  // kept, everything else (regions, catgraph, closed auctions) is skipped.
  Plans plans = CompileSet(Fig3Set(2));
  std::vector<std::string> want = SerialOutputs(plans, xml);
  std::vector<StringSink> sinks(plans.size());
  std::vector<OutputSink*> sink_ptrs;
  for (auto& s : sinks) sink_ptrs.push_back(&s);
  StringSource source(xml);
  std::vector<MultiPlanResult> results;
  MultiQueryStats run_stats;
  ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, {}, &results,
                                 &run_stats)
                  .ok());
  EXPECT_TRUE(run_stats.projection_enabled);
  EXPECT_GT(run_stats.events_skipped, 0u);
  EXPECT_GT(run_stats.events_total, run_stats.events_skipped);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(sinks[i].str(), want[i]);
    // Engines see only the surviving events.
    EXPECT_EQ(results[i].events_fed,
              run_stats.events_total - run_stats.events_skipped);
  }
}

TEST(MultiQuery, SkippedEventsAreCountedNotBuilt) {
  // Skipped subtrees are stepped over in the tokenizer, yet events_total
  // counts every event of the input: the same total as a run with the
  // projection off, over text and pretok input alike.
  const std::string xml = XmarkDoc(32 * 1024);
  Plans plans = CompileSet(Fig3Set(2));
  std::string pretok;
  {
    StringSource src(xml);
    ASSERT_TRUE(PretokenizeXml(&src, &pretok).ok());
  }
  for (bool use_pretok : {false, true}) {
    MultiQueryStats on, off;
    for (bool project : {true, false}) {
      std::vector<StringSink> sinks(plans.size());
      std::vector<OutputSink*> sink_ptrs;
      for (auto& s : sinks) sink_ptrs.push_back(&s);
      RunOptions options;
      options.union_projection = project;
      MultiQueryStats* stats = project ? &on : &off;
      if (use_pretok) {
        PretokSource source(pretok);
        ASSERT_TRUE(StreamAllTransformEvents(Raw(plans), &source, sink_ptrs,
                                             options, nullptr, stats)
                        .ok());
      } else {
        StringSource source(xml);
        ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs,
                                       options, nullptr, stats)
                        .ok());
      }
    }
    EXPECT_EQ(on.events_total, off.events_total) << use_pretok;
    EXPECT_GT(on.events_skipped, 0u);
    EXPECT_GT(on.bytes_skipped, 0u);
    EXPECT_LT(on.bytes_skipped, on.bytes_in);
    EXPECT_EQ(off.bytes_skipped, 0u);
  }
}

TEST(MultiQuery, ProjectionKeepsAncestorSpines) {
  // The reparenting counterexample: //c/d and //d/e over a document where
  // the real //d/e match sits under a c, separated by an x. A projection
  // that flattened kept nodes under their nearest kept ancestor would
  // reparent d directly under c, manufacturing a //c/d match that does not
  // exist in the document. The automaton must keep the x spine (or skip
  // nothing) so both queries see the truth.
  const std::vector<std::string> texts = {
      "<out>{ for $v in $input//c/d return <cd></cd> }</out>",
      "<out>{ for $v in $input//d/e return <de></de> }</out>"};
  const std::string xml = "<r><c><x><d><e/></d></x></c></r>";
  Plans plans = CompileSet(texts);
  std::vector<std::string> want = SerialOutputs(plans, xml);
  EXPECT_EQ(want[0], "<out></out>");    // no //c/d in the document
  EXPECT_EQ(want[1], "<out><de></de></out>");
  std::vector<StringSink> sinks(2);
  std::vector<OutputSink*> sink_ptrs{&sinks[0], &sinks[1]};
  StringSource source(xml);
  MultiQueryStats run_stats;
  ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, {}, nullptr,
                                 &run_stats)
                  .ok());
  EXPECT_TRUE(run_stats.projection_enabled);
  EXPECT_EQ(sinks[0].str(), want[0]);
  EXPECT_EQ(sinks[1].str(), want[1]);
}

TEST(MultiQuery, ConstantQueriesSkipTheWholeDocument) {
  const std::vector<std::string> texts = {"<a>x</a>", "<b>y</b>"};
  Plans plans = CompileSet(texts);
  std::vector<StringSink> sinks(2);
  std::vector<OutputSink*> sink_ptrs{&sinks[0], &sinks[1]};
  const std::string xml = "<doc><p>1</p><q><r>2</r></q></doc>";
  StringSource source(xml);
  MultiQueryStats run_stats;
  ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, {}, nullptr,
                                 &run_stats)
                  .ok());
  EXPECT_EQ(sinks[0].str(), "<a>x</a>");
  EXPECT_EQ(sinks[1].str(), "<b>y</b>");
  EXPECT_TRUE(run_stats.projection_enabled);
  // A query set that reads nothing skips every element of the document.
  EXPECT_EQ(run_stats.events_skipped, run_stats.events_total);
}

TEST(MultiQuery, UnprojectablePlanDisablesProjection) {
  // q04 uses following-sibling: its projection is whole_document, which
  // must switch skipping off for the entire run.
  Plans plans = CompileSet({Fig3Set(3)[2], Fig3Set(1)[0]});
  EXPECT_TRUE(plans[0]->projection().whole_document);
  EXPECT_FALSE(plans[1]->projection().whole_document);
  const std::string xml = XmarkDoc(8 * 1024);
  std::vector<StringSink> sinks(2);
  std::vector<OutputSink*> sink_ptrs{&sinks[0], &sinks[1]};
  StringSource source(xml);
  MultiQueryStats run_stats;
  ASSERT_TRUE(StreamAllTransform(Raw(plans), &source, sink_ptrs, {}, nullptr,
                                 &run_stats)
                  .ok());
  EXPECT_FALSE(run_stats.projection_enabled);
  EXPECT_EQ(run_stats.events_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Failure isolation

TEST(MultiQuery, PlanFailureLeavesSiblingsIntact) {
  const std::string xml = XmarkDoc(8 * 1024);
  Plans plans = CompileSet(Fig3Set(3));
  std::vector<std::string> want = SerialOutputs(plans, xml);
  // Recompile the middle plan with a step budget it must blow mid-stream.
  PipelineOptions tiny;
  tiny.stream.max_steps = 50;
  auto failing = CompiledPlan::Compile(Fig3Set(3)[1], tiny);
  ASSERT_TRUE(failing.ok());
  plans[1] = failing.value();

  std::vector<StringSink> sinks(3);
  std::vector<OutputSink*> sink_ptrs{&sinks[0], &sinks[1], &sinks[2]};
  StringSource source(xml);
  std::vector<MultiPlanResult> results;
  Status st =
      StreamAllTransform(Raw(plans), &source, sink_ptrs, {}, &results, nullptr);
  // With results requested and surviving siblings, the run itself is OK.
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_EQ(sinks[0].str(), want[0]);
  EXPECT_EQ(sinks[2].str(), want[2]);
}

TEST(MultiQuery, AllPlansFailingFailsTheRun) {
  PipelineOptions tiny;
  tiny.stream.max_steps = 1;
  auto plan = CompiledPlan::Compile(Fig3Set(1)[0], tiny);
  ASSERT_TRUE(plan.ok());
  std::vector<StringSink> sinks(1);
  std::vector<OutputSink*> sink_ptrs{&sinks[0]};
  const std::string xml = XmarkDoc(4 * 1024);
  StringSource source(xml);
  std::vector<MultiPlanResult> results;
  Status st = StreamAllTransform({plan.value().get()}, &source, sink_ptrs,
                                 {}, &results, nullptr);
  EXPECT_FALSE(st.ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
}

// ---------------------------------------------------------------------------
// Projection derivation

// ---------------------------------------------------------------------------
// The one-plan pass: every plan-level entry point runs the same
// MultiQueryRun pass, so a plan's output bytes and StreamStats do not depend
// on the entry point. Byte counters count the source's own bytes (XML text
// or pretok records), so text runs agree with text runs and pretok runs
// with pretok runs; the event-side counters agree across both.
// ---------------------------------------------------------------------------

struct PassOutcome {
  std::string entry;
  Status status;
  std::string out;
  StreamStats stats;
};

void ExpectSamePass(const PassOutcome& want, const PassOutcome& got,
                    bool same_source, const std::string& what) {
  const std::string where = what + ": " + want.entry + " vs " + got.entry;
  EXPECT_EQ(want.status.ToString(), got.status.ToString()) << where;
  EXPECT_EQ(want.out, got.out) << where;
  const StreamStats& a = want.stats;
  const StreamStats& b = got.stats;
  if (same_source) {
    EXPECT_EQ(a.bytes_in, b.bytes_in) << where;
    EXPECT_EQ(a.bytes_in_at_first_output, b.bytes_in_at_first_output)
        << where;
    EXPECT_EQ(a.bytes_skipped, b.bytes_skipped) << where;
  }
  EXPECT_EQ(a.subtrees_skipped, b.subtrees_skipped) << where;
  EXPECT_EQ(a.output_events, b.output_events) << where;
  EXPECT_EQ(a.rule_applications, b.rule_applications) << where;
  EXPECT_EQ(a.peak_bytes, b.peak_bytes) << where;
  EXPECT_EQ(a.used_ops_engine, b.used_ops_engine) << where;
}

PassOutcome ViaStreamString(const CompiledPlan& plan, const std::string& xml) {
  PassOutcome o{"StreamString", {}, {}, {}};
  StringSink sink;
  o.status = plan.StreamString(xml, &sink, &o.stats);
  o.out = sink.str();
  return o;
}

PassOutcome ViaStreamEvents(const CompiledPlan& plan,
                            const std::string& pretok) {
  PassOutcome o{"StreamEvents(pretok)", {}, {}, {}};
  PretokSource src(pretok);
  StringSink sink;
  o.status = plan.StreamEvents(&src, &sink, &o.stats);
  o.out = sink.str();
  return o;
}

PassOutcome ViaRun(const CompiledPlan& plan, ParallelInput input) {
  PassOutcome o{input.kind == ParallelInput::Kind::kXmlText
                    ? "Run(text)"
                    : "Run(pretok)",
                {}, {}, {}};
  RunOptions serial;
  serial.threads = 1;
  StringSink sink;
  std::vector<RunResult> results;
  Status st = xqmft::Run({&plan}, {std::move(input)}, {&sink}, serial,
                         &results);
  EXPECT_EQ(results.size(), 1u);
  o.status = results.empty() ? st : results[0].status;
  if (!results.empty() && !results[0].per_input.empty()) {
    o.stats = results[0].per_input[0];
  }
  o.out = sink.str();
  return o;
}

PassOutcome ViaStreamAll(const CompiledPlan& plan, const std::string& xml) {
  PassOutcome o{"StreamAllTransform", {}, {}, {}};
  StringSource src(xml);
  StringSink sink;
  std::vector<MultiPlanResult> results;
  Status st = StreamAllTransform({&plan}, &src, {&sink}, {}, &results);
  EXPECT_EQ(results.size(), 1u);
  o.status = results.empty() ? st : results[0].status;
  if (!results.empty()) o.stats = results[0].stats;
  o.out = sink.str();
  return o;
}

void ExpectOnePlanPass(const CompiledPlan& plan, const std::string& xml,
                       const std::string& pretok, const std::string& what) {
  const PassOutcome text = ViaStreamString(plan, xml);
  ASSERT_TRUE(text.status.ok()) << what << ": " << text.status.ToString();
  EXPECT_GT(text.stats.rule_applications, 0u) << what;
  ExpectSamePass(text, ViaRun(plan, ParallelInput::XmlText(xml)), true, what);
  ExpectSamePass(text, ViaStreamAll(plan, xml), true, what);
  const PassOutcome replay = ViaStreamEvents(plan, pretok);
  ExpectSamePass(text, replay, false, what);
  ExpectSamePass(replay, ViaRun(plan, ParallelInput::PretokBytes(pretok)),
                 true, what);
}

TEST(OnePlanPass, EveryEntryPointGivesTheSameOutputAndStats) {
  const std::string xml = XmarkDoc(24 * 1024, 3);
  StringSource src(xml);
  std::string pretok;
  ASSERT_TRUE(PretokenizeXml(&src, &pretok).ok());
  bool saw_whole_document = false;
  bool saw_projected = false;
  for (const BenchQuery& q : Figure3Queries()) {
    for (EngineChoice engine : {EngineChoice::kOps, EngineChoice::kTable}) {
      PipelineOptions options;
      options.stream.engine = engine;
      auto plan = CompiledPlan::Compile(q.text, options);
      ASSERT_TRUE(plan.ok()) << q.id << ": " << plan.status().ToString();
      const bool whole = plan.value()->projection().whole_document;
      saw_whole_document = saw_whole_document || whole;
      saw_projected = saw_projected || !whole;
      ExpectOnePlanPass(
          *plan.value(), xml, pretok,
          std::string(q.id) +
              (engine == EngineChoice::kOps ? " ops" : " table"));
    }
  }
  // q04 (following-sibling) is the corpus's whole_document plan.
  EXPECT_TRUE(saw_whole_document);
  EXPECT_TRUE(saw_projected);

  // A hand-written transducer: no query, so no projection.
  auto mft = ParseMft("q(%t(x1)x2) -> %t(q(x1)) q(x2)\nq(eps) -> eps\n");
  ASSERT_TRUE(mft.ok()) << mft.status().ToString();
  auto copy = CompiledPlan::FromMft(std::move(mft).value());
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  EXPECT_TRUE(copy.value()->projection().whole_document);
  ExpectOnePlanPass(*copy.value(), xml, pretok, "FromMft copy");
}

TEST(OnePlanPass, MalformedDocumentFailsAlikeAndKeepsTheSameBytes) {
  // Cut the document mid-way: every query has streamed some output when
  // the parser reports the truncation, and both entry points stop at the
  // same byte with the same error.
  const std::string full = XmarkDoc(24 * 1024, 3);
  const std::string xml = full.substr(0, full.size() * 2 / 3);
  for (const BenchQuery& q : Figure3Queries()) {
    auto plan = CompiledPlan::Compile(q.text);
    ASSERT_TRUE(plan.ok()) << q.id << ": " << plan.status().ToString();
    const PassOutcome one = ViaStreamString(*plan.value(), xml);
    const PassOutcome all = ViaStreamAll(*plan.value(), xml);
    EXPECT_FALSE(one.status.ok()) << q.id;
    EXPECT_FALSE(one.out.empty()) << q.id;
    EXPECT_EQ(one.status.ToString(), all.status.ToString()) << q.id;
    EXPECT_EQ(one.out, all.out) << q.id;
  }
}

TEST(Projection, DerivesKeepNodeAndKeepSubtreePaths) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $p in $input/site/people/person return "
      "<n>{$p/name/text()}</n> }</out>");
  ASSERT_TRUE(plan.ok());
  const QueryProjection& proj = plan.value()->projection();
  EXPECT_FALSE(proj.whole_document);
  bool saw_binding = false, saw_copy = false;
  for (const ProjectionPath& p : proj.paths) {
    if (!p.keep_subtree && p.steps.size() == 3) saw_binding = true;
    if (p.keep_subtree && p.steps.size() == 5) saw_copy = true;
  }
  EXPECT_TRUE(saw_binding);  // site/people/person
  EXPECT_TRUE(saw_copy);     // site/people/person/name/text()
}

TEST(Projection, BareInputIsUnprojectable) {
  auto plan = CompiledPlan::Compile("<out>{$input}</out>");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value()->projection().whole_document);
}

TEST(Projection, WholeDocumentExactlyWhereNothingCanBeSkipped) {
  // q04's following-sibling step is outside the projectable fragment; the
  // copy queries hold an all-wildcard keep-subtree path, which could
  // reject no element, so their runs must not pay for an automaton.
  for (const char* id : {"q04", "double", "fourstar", "deepdup"}) {
    auto plan = CompiledPlan::Compile(QueryById(id).text);
    ASSERT_TRUE(plan.ok()) << id;
    EXPECT_TRUE(plan.value()->projection().whole_document) << id;
    EXPECT_FALSE(plan.value()->projection().why.empty()) << id;
  }
  for (const char* id : {"q01", "q02", "q13", "q16", "q17"}) {
    auto plan = CompiledPlan::Compile(QueryById(id).text);
    ASSERT_TRUE(plan.ok()) << id;
    EXPECT_FALSE(plan.value()->projection().whole_document) << id;
  }
}

TEST(Projection, PredicatePathsBecomeKeepSubtree) {
  auto plan = CompiledPlan::Compile(
      "<out>{ for $p in $input//person[./id/text()=\"p0\"] return <h></h> "
      "}</out>");
  ASSERT_TRUE(plan.ok());
  const QueryProjection& proj = plan.value()->projection();
  EXPECT_FALSE(proj.whole_document);
  bool saw_pred = false;
  for (const ProjectionPath& p : proj.paths) {
    if (p.keep_subtree && p.steps.size() >= 2) saw_pred = true;
  }
  EXPECT_TRUE(saw_pred);  // //person/id/text() keeps the compared text
}

}  // namespace
}  // namespace xqmft
