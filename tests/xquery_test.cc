// Tests for the MinXQuery parser, validator, and reference evaluator,
// including the paper's Section 2.1 worked example and the whole Figure 3
// benchmark corpus.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_common/queries.h"
#include "util/strings.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"
#include "xquery/evaluator.h"

namespace xqmft {
namespace {

std::unique_ptr<QueryExpr> MustParse(const std::string& text) {
  Result<std::unique_ptr<QueryExpr>> r = ParseQuery(text);
  if (!r.ok()) {
    ADD_FAILURE() << "ParseQuery failed: " << r.status().ToString()
                  << "\nquery: " << text;
    return nullptr;
  }
  return std::move(r).ValueOrDie();
}

Forest MustParseXml(const std::string& xml) {
  return std::move(ParseXmlForest(xml).ValueOrDie());
}

std::string EvalToTerm(const QueryExpr& q, const Forest& input) {
  Result<Forest> out = EvaluateQuery(q, input);
  if (!out.ok()) {
    ADD_FAILURE() << "EvaluateQuery failed: " << out.status().ToString();
    return "";
  }
  return ForestToTerm(out.value());
}

TEST(XQueryParserTest, ElementWithStringAndClause) {
  auto q = MustParse("<out>hello{$input}</out>");
  ASSERT_TRUE(q);
  EXPECT_EQ(q->kind, QueryKind::kElement);
  EXPECT_EQ(q->name, "out");
  ASSERT_EQ(q->children.size(), 2u);
  EXPECT_EQ(q->children[0]->kind, QueryKind::kString);
  EXPECT_EQ(q->children[0]->str, "hello");
  EXPECT_EQ(q->children[1]->kind, QueryKind::kPath);
}

TEST(XQueryParserTest, ForLetSequence) {
  auto q = MustParse(kSection21Query);
  ASSERT_TRUE(q);
  EXPECT_EQ(q->kind, QueryKind::kFor);
  EXPECT_EQ(q->name, "v1");
  EXPECT_EQ(q->body->kind, QueryKind::kFor);
  EXPECT_EQ(q->body->body->kind, QueryKind::kLet);
  const QueryExpr& seq = *q->body->body->body->body;
  EXPECT_EQ(seq.kind, QueryKind::kSequence);
  EXPECT_EQ(seq.children.size(), 4u);
  EXPECT_TRUE(ValidateQuery(*q).ok());
}

TEST(XQueryParserTest, AllFigure3QueriesParseAndValidate) {
  for (const BenchQuery& bq : Figure3Queries()) {
    auto r = ParseQuery(bq.text);
    ASSERT_TRUE(r.ok()) << bq.id << ": " << r.status().ToString();
    EXPECT_TRUE(ValidateQuery(*r.value()).ok()) << bq.id;
    EXPECT_GT(QuerySize(*r.value()), 1u);
  }
}

TEST(XQueryParserTest, PersonQueryParses) {
  auto q = MustParse(kPersonQuery);
  ASSERT_TRUE(q);
  EXPECT_TRUE(ValidateQuery(*q).ok());
}

TEST(XQueryParserTest, NestedElementsInBody) {
  auto q = MustParse(
      "<a><b>x</b><c>{for $v in $input/p return <d>{$v}</d>}</c></a>");
  ASSERT_TRUE(q);
  EXPECT_TRUE(ValidateQuery(*q).ok());
}

TEST(XQueryParserTest, ParseErrors) {
  EXPECT_FALSE(ParseQuery("<a>").ok());                       // unterminated
  EXPECT_FALSE(ParseQuery("<a></b>").ok());                   // mismatch
  EXPECT_FALSE(ParseQuery("for $v in return $v").ok());       // missing path
  EXPECT_FALSE(ParseQuery("for $v in $input/a $v").ok());     // no return
  EXPECT_FALSE(ParseQuery("let $v = $input return $v").ok()); // not :=
  EXPECT_FALSE(ParseQuery("($input)").ok());                  // 1-sequence
  EXPECT_FALSE(ParseQuery("<a>{$input}</a> junk").ok());      // trailing
}

std::string Repeat(const std::string& s, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

TEST(XQueryParserTest, NestingIsCappedAtTheLimit) {
  // Each element constructor, clause, path step and predicate is one level:
  // `{$input/x}` is two, so k constructors around it nest k + 2 deep.
  const std::size_t k = kMaxParseNesting - 2;
  EXPECT_TRUE(ParseQuery(Repeat("<a>", k) + "{$input/x}" + Repeat("</a>", k))
                  .ok());
  auto over = ParseQuery(Repeat("<a>", k + 1) + "{$input/x}" +
                         Repeat("</a>", k + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  // The error names the limit and where the input crossed it.
  EXPECT_NE(over.status().message().find(
                "offset " + std::to_string(3 * (k + 1) + 7) +
                ": nesting exceeds the limit of " +
                std::to_string(kMaxParseNesting) + " levels"),
            std::string::npos)
      << over.status().ToString();
  // Far past the cap is the same error, not a stack overflow.
  EXPECT_FALSE(ParseQuery(Repeat("(", 100000) + "$input").ok());
  EXPECT_FALSE(ParseQuery("$input" + Repeat("/a", 100000)).ok());
  EXPECT_FALSE(ParseQuery("$input/a" + Repeat("[./a", 100000)).ok());
}

TEST(XQueryValidateTest, PathMustUseNearestForVariable) {
  // Inner path uses the *outer* for variable: a join, rejected.
  auto q = MustParse(
      "for $x in $input/a return for $y in $x/b return <r>{$x/c}</r>");
  ASSERT_TRUE(q);
  Status st = ValidateQuery(*q);
  EXPECT_FALSE(st.ok());
}

TEST(XQueryValidateTest, InputPathInsideForRejected) {
  auto q = MustParse("for $x in $input/a return <r>{$input/b}</r>");
  ASSERT_TRUE(q);
  EXPECT_FALSE(ValidateQuery(*q).ok());
}

TEST(XQueryValidateTest, BareOuterVariableAllowed) {
  // Bare references to outer/let variables are output variables: fine.
  auto q = MustParse(
      "for $x in $input/a return for $y in $x/b return ($x,$y)");
  ASSERT_TRUE(q);
  EXPECT_TRUE(ValidateQuery(*q).ok());
}

TEST(XQueryValidateTest, UnboundVariableRejected) {
  auto q = MustParse("<r>{$nope}</r>");
  ASSERT_TRUE(q);
  EXPECT_FALSE(ValidateQuery(*q).ok());
}

TEST(XQueryValidateTest, LetVariableWithStepsRejected) {
  auto q = MustParse(
      "let $v := $input/a return <r>{$v/b}</r>");
  ASSERT_TRUE(q);
  EXPECT_FALSE(ValidateQuery(*q).ok());
}

TEST(XQueryToStringTest, RoundTripsThroughParser) {
  for (const BenchQuery& bq : Figure3Queries()) {
    auto q1 = MustParse(bq.text);
    std::string s1 = QueryToString(*q1);
    auto q2 = MustParse(s1);
    EXPECT_EQ(QueryToString(*q2), s1) << bq.id;
  }
}

// ---------------------------------------------------------------------------
// Reference evaluator
// ---------------------------------------------------------------------------

TEST(XQueryEvalTest, ElementAndStringConstruction) {
  auto q = MustParse("<out><hi>there</hi></out>");
  EXPECT_EQ(EvalToTerm(*q, {}), "out(hi(\"there\"))");
}

TEST(XQueryEvalTest, ForIteratesInDocumentOrder) {
  auto q = MustParse("for $v in $input/r/a return <m>{$v/text()}</m>");
  Forest doc = MustParseXml("<r><a>1</a><b/><a>2</a></r>");
  EXPECT_EQ(EvalToTerm(*q, doc), "m(\"1\") m(\"2\")");
}

TEST(XQueryEvalTest, LetBindsForest) {
  auto q = MustParse(
      "for $p in $input/r return let $v := $p/a/text() return <out>{$v}{$v}</out>");
  Forest doc = MustParseXml("<r><a>x</a><a>y</a></r>");
  EXPECT_EQ(EvalToTerm(*q, doc), "out(\"x\" \"y\" \"x\" \"y\")");
}

TEST(XQueryEvalTest, BareForVariableCopiesSubtree) {
  auto q = MustParse("for $v in $input/r/a return <w>{$v}</w>");
  Forest doc = MustParseXml("<r><a><b>t</b></a></r>");
  EXPECT_EQ(EvalToTerm(*q, doc), "w(a(b(\"t\")))");
}

TEST(XQueryEvalTest, BareInputCopiesDocument) {
  auto q = MustParse("<double><r1>{$input/*}</r1>{$input/*}</double>");
  Forest doc = MustParseXml("<a><b/></a>");
  EXPECT_EQ(EvalToTerm(*q, doc), "double(r1(a(b)) a(b))");
}

// Section 2.1's worked example, on the document from the paper:
// <doc><a><b><c><c/></c><d/><d/></b><b><d/></b></a></doc>.
// First b yields (a1, b1, c1 c2, d1 d2); second b yields (a1, b2, d3).
TEST(XQueryEvalTest, PaperSection21Example) {
  auto q = MustParse(kSection21Query);
  ASSERT_TRUE(q);
  Forest doc = MustParseXml(
      "<doc><a><b><c><c/></c><d/><d/></b><b><d/></b></a></doc>");
  Result<Forest> out = EvaluateQuery(*q, doc);
  ASSERT_TRUE(out.ok());
  // a1 subtree printed in full; abbreviate with sizes instead.
  const Forest& f = out.value();
  // Sequence 1: a1 b1 c1 c2 d1 d2 ; sequence 2: a1 b2 d3  => 9 trees total.
  ASSERT_EQ(f.size(), 9u);
  EXPECT_EQ(f[0].label, "a");  // a1
  EXPECT_EQ(f[1].label, "b");  // b1
  EXPECT_EQ(ForestToTerm({f[2]}), "c(c)");
  EXPECT_EQ(ForestToTerm({f[3]}), "c");
  EXPECT_EQ(f[4].label, "d");
  EXPECT_EQ(f[5].label, "d");
  EXPECT_EQ(f[6].label, "a");              // a1 again (second sequence)
  EXPECT_EQ(ForestToTerm({f[7]}), "b(d)"); // b2
  EXPECT_EQ(f[8].label, "d");              // d3
}

// Section 2.2's Pperson on both worked inputs.
TEST(XQueryEvalTest, PaperPersonQuery) {
  auto q = MustParse(kPersonQuery);
  ASSERT_TRUE(q);
  Forest hit = MustParseXml(
      "<person><p_id><a/>person0</p_id><name>Jim</name><c/>"
      "<name>Li</name></person>");
  EXPECT_EQ(EvalToTerm(*q, hit), "out(\"Jim\" \"Li\")");
  Forest miss_then_hit = MustParseXml(
      "<person><p_id><a/>perso7</p_id><name>Jim</name><c/>"
      "<p_id>person0</p_id></person>");
  EXPECT_EQ(EvalToTerm(*q, miss_then_hit), "out(\"Jim\")");
}

TEST(XQueryEvalTest, Q01OnMiniXMark) {
  const BenchQuery& bq = QueryById("q01");
  auto q = MustParse(bq.text);
  Forest doc = MustParseXml(
      "<site><people>"
      "<person><person_id>person0</person_id><name>Alice</name></person>"
      "<person><person_id>person1</person_id><name>Bob</name></person>"
      "</people></site>");
  EXPECT_EQ(EvalToTerm(*q, doc), "query01(\"Alice\")");
}

TEST(XQueryEvalTest, Q02NestedLoops) {
  const BenchQuery& bq = QueryById("q02");
  auto q = MustParse(bq.text);
  Forest doc = MustParseXml(
      "<site><open_auctions>"
      "<open_auction><bidder><increase>1.0</increase></bidder>"
      "<bidder><increase>2.5</increase></bidder></open_auction>"
      "<open_auction/>"
      "</open_auctions></site>");
  EXPECT_EQ(EvalToTerm(*q, doc),
            "query02(increase(bid(\"1.0\") bid(\"2.5\")) increase)");
}

TEST(XQueryEvalTest, Q17EmptyPredicate) {
  const BenchQuery& bq = QueryById("q17");
  auto q = MustParse(bq.text);
  Forest doc = MustParseXml(
      "<site><people>"
      "<person><name>A</name><homepage>http://a</homepage></person>"
      "<person><name>B</name></person>"
      "<person><name>C</name><homepage/></person>"
      "</people></site>");
  // B has no homepage; C's homepage has no text → empty() is true for both.
  EXPECT_EQ(EvalToTerm(*q, doc),
            "query17(person(name(\"B\")) person(name(\"C\")))");
}

TEST(XQueryEvalTest, DeepdupDuplicatesVariable) {
  const BenchQuery& bq = QueryById("deepdup");
  auto q = MustParse(bq.text);
  Forest doc = MustParseXml("<r><x>1</x></r>");
  EXPECT_EQ(EvalToTerm(*q, doc),
            "deepdup(r(r1(r2(x(\"1\")) x(\"1\"))))");
}

TEST(XQueryEvalTest, FourstarSelection) {
  const BenchQuery& bq = QueryById("fourstar");
  auto q = MustParse(bq.text);
  Forest doc = MustParseXml("<a><b><c><d><e/></d></c></b></a>");
  EXPECT_EQ(EvalToTerm(*q, doc), "fourstar(d(e) e)");
}

}  // namespace
}  // namespace xqmft
