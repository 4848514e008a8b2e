// End-to-end tests of the public pipeline facade.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "mft/interp.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "xml/char_class.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

TEST(PipelineTest, CompileStreamsAndEvaluatesConsistently) {
  auto cq = CompiledPlan::Compile("<out>{$input//a}</out>").ValueOrDie();
  const char* xml = "<r><a>1</a><b><a>2</a></b></r>";

  StringSink sink;
  ASSERT_TRUE(cq->StreamString(xml, &sink).ok());

  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  Forest expected = std::move(RunMft(cq->mft(), doc)).ValueOrDie();
  StringSink expected_sink;
  EmitForest(expected, &expected_sink);
  EXPECT_EQ(sink.str(), expected_sink.str());
}

TEST(PipelineTest, CompileErrorsSurface) {
  EXPECT_FALSE(CompiledPlan::Compile("<out>").ok());
  EXPECT_FALSE(CompiledPlan::Compile("<out>{$nope}</out>").ok());
  // Join-like query violates the variable restriction.
  EXPECT_FALSE(CompiledPlan::Compile(
                   "for $x in $input/a return for $y in $x/b "
                   "return <r>{$x/c}</r>")
                   .ok());
}

TEST(PipelineTest, OptimizeToggle) {
  PipelineOptions no_opt;
  no_opt.optimize = false;
  auto raw = CompiledPlan::Compile(kPersonQuery, no_opt).ValueOrDie();
  auto opt = CompiledPlan::Compile(kPersonQuery).ValueOrDie();
  EXPECT_GT(raw->mft().TotalParams(), opt->mft().TotalParams());
  EXPECT_EQ(raw->mft().ToString(), raw->unoptimized_mft().ToString());
  EXPECT_GT(opt->optimize_report().unused_params_removed, 0);
}

TEST(PipelineTest, StreamFileWorks) {
  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, 32 * 1024, 3);
  ASSERT_TRUE(path.ok());
  auto cq = CompiledPlan::Compile(QueryById("q01").text).ValueOrDie();
  CountingSink sink;
  StreamStats stats;
  ASSERT_TRUE(cq->StreamFile(path.value(), &sink, &stats).ok());
  EXPECT_GT(stats.bytes_in, 30000u);
  EXPECT_GT(sink.elements(), 0u);  // at least <query01>
}

TEST(PipelineTest, MissingFileIsAnError) {
  auto cq = CompiledPlan::Compile("<out>{$input/a}</out>").ValueOrDie();
  StringSink sink;
  Status st = cq->StreamFile("/nonexistent/file.xml", &sink);
  EXPECT_FALSE(st.ok());
}

TEST(PipelineTest, AllBenchmarkQueriesCompile) {
  for (const BenchQuery& bq : Figure3Queries()) {
    auto cq = CompiledPlan::Compile(bq.text);
    ASSERT_TRUE(cq.ok()) << bq.id << ": " << cq.status().ToString();
    EXPECT_LE(cq.value()->mft().Size(), cq.value()->unoptimized_mft().Size())
        << bq.id;
  }
}

// Theorem 2: queries with no predicates whose output variables are used
// only in their own for scope optimize to parameterless transducers (FTs).
TEST(PipelineTest, Theorem2QualifyingQueriesBecomeFTs) {
  const char* qualifying[] = {
      // Q2: nested loops, no predicates ("the optimized MFT is in FT").
      QueryById("q02").text,
      // Q13: reconstruction ("the optimized MFT is an FT").
      QueryById("q13").text,
      "<out>{$input//a}</out>",
      "for $v in $input/r/a return <m>{$v/text()}</m>",
  };
  for (const char* text : qualifying) {
    auto cq = CompiledPlan::Compile(text).ValueOrDie();
    EXPECT_TRUE(cq->mft().IsForestTransducer())
        << text << "\n"
        << cq->mft().ToString();
  }
}

// Queries with predicates genuinely need parameters (the if-then-else
// encoding), so they must *not* collapse to FTs.
TEST(PipelineTest, PredicateQueriesKeepParameters) {
  auto cq = CompiledPlan::Compile(QueryById("q01").text).ValueOrDie();
  EXPECT_FALSE(cq->mft().IsForestTransducer());
}

// ---- Source projection: plan runs, projected vs unprojected. ----

// Streams `xml` through `plan` projected (the plan path) and unprojected
// (a FromMft plan over the plan's transducer, which is whole_document),
// over a mapped source and chunked sources of 1-7 bytes per Read, with SIMD
// scanning on and off; output and Status must be identical. Returns the
// subtrees the mapped projected run skipped.
std::uint64_t ExpectProjectionInvisible(const CompiledPlan& plan,
                                        std::string_view xml,
                                        const std::string& what) {
  auto off_plan = CompiledPlan::FromMft(plan.mft(), plan.options());
  EXPECT_TRUE(off_plan.ok()) << what << ": " << off_plan.status().ToString();
  if (!off_plan.ok()) return 0;
  const bool was_enabled = SimdScanEnabled();
  ExactBuffer buf(xml);
  std::uint64_t skipped = 0;
  for (bool simd : {true, false}) {
    SetSimdScanEnabled(simd);
    for (std::size_t chunk = 0; chunk <= 7; ++chunk) {
      auto source = [&]() -> std::unique_ptr<ByteSource> {
        if (chunk == 0) return std::make_unique<StringSource>(buf.view());
        return std::make_unique<ChunkedSource>(buf.view(), chunk);
      };
      auto on_src = source();
      StringSink on;
      StreamStats stats;
      SaxParser on_parser(on_src.get());
      Status on_st = plan.StreamEvents(&on_parser, &on, &stats);
      auto off_src = source();
      StringSink off;
      SaxParser off_parser(off_src.get());
      Status off_st = off_plan.value()->StreamEvents(&off_parser, &off);
      EXPECT_EQ(on_st.ToString(), off_st.ToString())
          << what << " chunk=" << chunk << " simd=" << simd;
      EXPECT_EQ(on.str(), off.str())
          << what << " chunk=" << chunk << " simd=" << simd;
      if (chunk == 0 && simd) skipped = stats.subtrees_skipped;
    }
  }
  SetSimdScanEnabled(was_enabled);
  return skipped;
}

PipelineOptions OnEngine(EngineChoice engine) {
  PipelineOptions options;
  options.stream.engine = engine;
  return options;
}

TEST(ProjectionTest, Figure3OutputIdenticalWithProjectionOnAndOff) {
  const std::string xml =
      GenerateDatasetString(DatasetKind::kXmark, 24 << 10, 5).ValueOrDie();
  for (EngineChoice engine : {EngineChoice::kOps, EngineChoice::kTable}) {
    for (const BenchQuery& q : Figure3Queries()) {
      auto plan = CompiledPlan::Compile(q.text, OnEngine(engine)).ValueOrDie();
      std::uint64_t skipped = ExpectProjectionInvisible(*plan, xml, q.id);
      // q04 and the copy queries are whole_document: nothing to skip. The
      // others must actually have skipped, or the comparison is vacuous.
      EXPECT_EQ(skipped > 0, !plan->projection().whole_document) << q.id;
    }
  }
}

// The random_query_test document shape: a forest over a..d with x/y/z text.
Forest RandomDoc(Rng* rng, int depth) {
  Forest f;
  int width = static_cast<int>(rng->Below(4));
  for (int i = 0; i < width; ++i) {
    if (depth > 0 && rng->Chance(3, 5)) {
      f.push_back(Tree::Element(
          std::string(1, static_cast<char>('a' + rng->Below(4))),
          RandomDoc(rng, depth - 1)));
    } else if (f.empty() || f.back().kind != NodeKind::kText) {
      static const char* kTexts[] = {"x", "y", "z"};
      f.push_back(Tree::Text(kTexts[rng->Below(3)]));
    }
  }
  return f;
}

TEST(ProjectionTest, RandomDocumentsIdenticalWithProjectionOnAndOff) {
  const char* queries[] = {
      "<o>{for $x in $input/a/b return $x/c}</o>",
      "<o>{for $x in $input//b return <h>{$x/text()}</h>}</o>",
      "<o>{$input/a/c}</o>",
      "<o>{for $x in $input/a[./b/text()=\"x\"] return $x/d}</o>",
      "<o>{for $x in $input//a return for $y in $x/d return $y/text()}</o>",
      "<o>{for $x in $input/c[empty(./a)] return <e>{$x/b}</e>}</o>",
  };
  Rng rng(17);
  std::vector<std::string> docs;
  for (int d = 0; d < 12; ++d) docs.push_back(ForestToXml(RandomDoc(&rng, 4)));
  for (EngineChoice engine : {EngineChoice::kOps, EngineChoice::kTable}) {
    for (const char* text : queries) {
      auto plan = CompiledPlan::Compile(text, OnEngine(engine)).ValueOrDie();
      ASSERT_FALSE(plan->projection().whole_document) << text;
      for (const std::string& xml : docs) {
        ExpectProjectionInvisible(*plan, xml, std::string(text) + " on " + xml);
      }
    }
  }
}

// Cancels `token` as the first skip begins (a client disconnect arriving
// mid-stream) and records how many output bytes the sink held then.
class CancelAtFirstSkip : public EventSource {
 public:
  CancelAtFirstSkip(EventSource* inner, const StringSink* sink,
                    CancelToken* token)
      : inner_(inner), sink_(sink), token_(token) {}
  Status Next(XmlEvent* event) override { return inner_->Next(event); }
  Status SkipSubtree(std::uint64_t* events) override {
    if (skips_++ == 0) {
      bytes_at_first_skip_ = sink_->str().size();
      if (token_ != nullptr) token_->Cancel();
    }
    return inner_->SkipSubtree(events);
  }
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }
  int skips() const { return skips_; }
  std::size_t bytes_at_first_skip() const { return bytes_at_first_skip_; }

 private:
  EventSource* inner_;
  const StringSink* sink_;
  CancelToken* token_;
  int skips_ = 0;
  std::size_t bytes_at_first_skip_ = 0;
};

TEST(ProjectionTest, CancelTripsAtTheFirstSkip) {
  // The projection polls the run's token after every skip — long before the
  // engine's own every-128-events poll — and the sink keeps exactly what
  // was committed before the trip.
  const std::string xml =
      "<site><regions><australia><item><name>n</name><description>d"
      "</description></item><other/></australia></regions><people/></site>";
  for (EngineChoice engine : {EngineChoice::kOps, EngineChoice::kTable}) {
    auto plan = CompiledPlan::Compile(QueryById("q13").text, OnEngine(engine))
                    .ValueOrDie();
    CancelToken token;
    StringSource src(xml);
    SaxParser parser(&src);
    StringSink sink;
    CancelAtFirstSkip spy(&parser, &sink, &token);
    Status st = plan->StreamEvents(&spy, &sink, nullptr, &token);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
    EXPECT_EQ(spy.skips(), 1);
    EXPECT_EQ(sink.str().size(), spy.bytes_at_first_skip()) << sink.str();

    // Uncancelled, the same run completes, skips more than once, and its
    // output extends the cancelled run's.
    StringSource again(xml);
    SaxParser parser2(&again);
    StringSink full;
    CancelAtFirstSkip spy2(&parser2, &full, nullptr);
    ASSERT_TRUE(plan->StreamEvents(&spy2, &full).ok());
    EXPECT_GT(spy2.skips(), 1);
    EXPECT_EQ(full.str().compare(0, sink.str().size(), sink.str()), 0);
  }
}

}  // namespace
}  // namespace xqmft
