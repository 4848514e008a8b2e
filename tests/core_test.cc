// End-to-end tests of the public pipeline facade.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "xml/events.h"
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
  Forest expected = std::move(cq->Evaluate(doc)).ValueOrDie();
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

}  // namespace
}  // namespace xqmft
