// Tests for the MFT model, the textual rule parser/printer, and the
// reference interpreter, including the paper's worked Mperson example
// (Section 2.2).
#include <gtest/gtest.h>

#include <string>

#include "mft/interp.h"
#include "mft/mft.h"
#include "util/rng.h"
#include "util/strings.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

// The paper's Mperson transducer, verbatim (Section 2.2), in the textual
// syntax. q3 matches the text symbol "person0".
const char* kMpersonRules = R"(
q0(%) -> out(q1(x0))
q1(person(x1)x2) -> q2(x1, q4(x1)) q1(x2)
q1(%t(x1)x2) -> q1(x1) q1(x2)
q1(eps) -> eps
q2(p_id(x1)x2, y1) -> q3(x1, y1, q2(x2, y1))
q2(%t(x1)x2, y1) -> q2(x2, y1)
q2(eps, y1) -> eps
q3("person0"(x1)x2, y1, y2) -> y1
q3(%t(x1)x2, y1, y2) -> q3(x2, y1, y2)
q3(eps, y1, y2) -> y2
q4(name(x1)x2) -> q5(x1) q4(x2)
q4(%t(x1)x2) -> q4(x2)
q4(eps) -> eps
q5(%ttext(x1)x2) -> %t(eps) q5(x2)
q5(%t(x1)x2) -> q5(x2)
q5(eps) -> eps
)";

Mft MustParseMft(const std::string& text) {
  Result<Mft> r = ParseMft(text);
  if (!r.ok()) {
    ADD_FAILURE() << "ParseMft failed: " << r.status().ToString();
  }
  return std::move(r).ValueOrDie();
}

Forest MustParseXml(const std::string& xml) {
  return std::move(ParseXmlForest(xml).ValueOrDie());
}

std::string RunToTerm(const Mft& mft, const Forest& input) {
  Result<Forest> out = RunMft(mft, input);
  if (!out.ok()) {
    ADD_FAILURE() << "RunMft failed: " << out.status().ToString();
    return "";
  }
  return ForestToTerm(out.value());
}

TEST(MftModelTest, StateAccounting) {
  Mft m;
  StateId q0 = m.AddState("q0", 0);
  StateId q1 = m.AddState("q1", 2);
  EXPECT_EQ(m.num_states(), 2);
  EXPECT_EQ(m.rank(q0), 1);
  EXPECT_EQ(m.rank(q1), 3);
  EXPECT_EQ(m.num_params(q1), 2);
  EXPECT_EQ(m.state_name(q1), "q1");
  EXPECT_FALSE(m.IsForestTransducer());
}

TEST(MftModelTest, LookupOrderExactThenTextThenDefault) {
  Mft m;
  StateId q = m.AddState("q", 0);
  m.set_initial_state(q);
  m.SetSymbolRule(q, Symbol::Element("a"), {RhsNode::Label(Symbol::Element("A"))});
  m.SetSymbolRule(q, Symbol::Text("a"), {RhsNode::Label(Symbol::Element("TA"))});
  m.SetTextRule(q, {RhsNode::Label(Symbol::Element("T"))});
  m.SetDefaultRule(q, {RhsNode::Label(Symbol::Element("D"))});
  m.SetEpsilonRule(q, {});
  ASSERT_TRUE(m.Validate().ok());

  // Element "a" hits the element symbol rule.
  EXPECT_EQ((*m.LookupRule(q, NodeKind::kElement, "a"))[0].symbol.name, "A");
  // Text "a" hits the *text* symbol rule, not the element one.
  EXPECT_EQ((*m.LookupRule(q, NodeKind::kText, "a"))[0].symbol.name, "TA");
  // Other text hits the text rule.
  EXPECT_EQ((*m.LookupRule(q, NodeKind::kText, "zzz"))[0].symbol.name, "T");
  // Other elements hit the default rule.
  EXPECT_EQ((*m.LookupRule(q, NodeKind::kElement, "zzz"))[0].symbol.name, "D");
}

TEST(MftModelTest, ValidateRejectsMissingRules) {
  Mft m;
  StateId q = m.AddState("q", 0);
  m.set_initial_state(q);
  EXPECT_FALSE(m.Validate().ok());  // no default/epsilon
  m.SetDefaultRule(q, {});
  EXPECT_FALSE(m.Validate().ok());  // no epsilon
  m.SetEpsilonRule(q, {});
  EXPECT_TRUE(m.Validate().ok());
}

TEST(MftModelTest, ValidateRejectsBadArity) {
  Mft m;
  StateId q0 = m.AddState("q0", 0);
  StateId q1 = m.AddState("q1", 1);
  m.set_initial_state(q0);
  m.SetDefaultRule(q0, {RhsNode::Call(q1, InputVar::kX1, {})});  // missing arg
  m.SetEpsilonRule(q0, {});
  m.SetDefaultRule(q1, {});
  m.SetEpsilonRule(q1, {});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MftModelTest, ValidateRejectsX1InEpsilonRule) {
  Mft m;
  StateId q0 = m.AddState("q0", 0);
  m.set_initial_state(q0);
  m.SetDefaultRule(m.initial_state(), {});
  m.SetEpsilonRule(q0, {RhsNode::Call(q0, InputVar::kX1, {})});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MftModelTest, ValidateRejectsCurrentLabelInEpsilonRule) {
  Mft m;
  StateId q0 = m.AddState("q0", 0);
  m.set_initial_state(q0);
  m.SetDefaultRule(q0, {});
  m.SetEpsilonRule(q0, {RhsNode::CurrentLabel()});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MftModelTest, ValidateRejectsNonNullaryInitialState) {
  Mft m;
  StateId q0 = m.AddState("q0", 1);
  m.set_initial_state(q0);
  m.SetDefaultRule(q0, {});
  m.SetEpsilonRule(q0, {});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MftModelTest, ValidateRejectsParamOutOfRange) {
  Mft m;
  StateId q0 = m.AddState("q0", 0);
  m.set_initial_state(q0);
  m.SetDefaultRule(q0, {RhsNode::Param(1)});  // q0 has no parameters
  m.SetEpsilonRule(q0, {});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(MftModelTest, SizeCountsAlphabetAndRules) {
  // qcopy: 2 rules. |Sigma| = 0 (only %t). lhs sizes: 4 + 0 and 2 + 0;
  // rhs sizes: %t(qcopy(x1)) qcopy(x2) = 3; eps = 0. Total 4+3+2+0 = 9.
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  EXPECT_EQ(m.Size(), 9u);
  EXPECT_TRUE(m.IsForestTransducer());
}

TEST(MftParserTest, RanksInferredAndChecked) {
  Mft m = MustParseMft(kMpersonRules);
  EXPECT_EQ(m.num_states(), 6);
  EXPECT_TRUE(m.Validate().ok());
  // 17 rules: the q0(%) shorthand installs both a default and an epsilon
  // rule; q1/q2/q4/q5 have 3 rules each and q3 has 3.
  EXPECT_EQ(m.NumRules(), 17u);
  // q3 has two parameters.
  bool found = false;
  for (StateId q = 0; q < m.num_states(); ++q) {
    if (m.state_name(q) == "q3") {
      EXPECT_EQ(m.num_params(q), 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MftParserTest, RejectsInconsistentRank) {
  EXPECT_FALSE(ParseMft("q(%t(x1)x2, y1) -> q(x2)\nq(eps, y1) -> eps\n").ok());
}

TEST(MftParserTest, RejectsOutOfOrderParams) {
  EXPECT_FALSE(ParseMft("q(%t(x1)x2, y2) -> eps\n").ok());
}

TEST(MftParserTest, RejectsMissingDefault) {
  EXPECT_FALSE(ParseMft("q(a(x1)x2) -> eps\nq(eps) -> eps\n").ok());
}

TEST(MftParserTest, RuleBodyNestingIsCappedAtTheLimit) {
  // A rule body whose deepest term is `depth` terms down.
  auto rules = [](std::size_t depth) {
    std::string body;
    for (std::size_t i = 1; i < depth; ++i) body += "a(";
    body += "b";
    for (std::size_t i = 1; i < depth; ++i) body += ")";
    return "q(%t(x1)x2) -> " + body + " q(x2)\nq(eps) -> eps\n";
  };
  EXPECT_TRUE(ParseMft(rules(kMaxParseNesting)).ok());
  auto over = ParseMft(rules(kMaxParseNesting + 1));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  // The error names the limit and the offset of the first term past it.
  const std::size_t offset =
      std::string("q(%t(x1)x2) -> ").size() + 2 * kMaxParseNesting;
  EXPECT_NE(over.status().message().find(
                "nesting exceeds the limit of " +
                std::to_string(kMaxParseNesting) + " levels (at offset " +
                std::to_string(offset) + ")"),
            std::string::npos)
      << over.status().ToString();
  EXPECT_FALSE(ParseMft(rules(100000)).ok());
}

TEST(MftParserTest, RejectsBadPattern) {
  EXPECT_FALSE(ParseMft("q(a(x2)x1) -> eps\n").ok());
  EXPECT_FALSE(ParseMft("q(a) -> eps\n").ok());
}

TEST(MftParserTest, PrintParseRoundTrip) {
  Mft m = MustParseMft(kMpersonRules);
  std::string printed = m.ToString();
  Mft m2 = MustParseMft(printed);
  // Round trip stabilizes: printing again yields the same text.
  EXPECT_EQ(m2.ToString(), printed);
  EXPECT_EQ(m2.num_states(), m.num_states());
  EXPECT_EQ(m2.NumRules(), m.NumRules());
}

TEST(MftInterpTest, CopyTransducerIsIdentity) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  Forest f = MustParseXml("<a><b x=\"1\">t</b><c/></a><d/>");
  Result<Forest> out = RunMft(m, f);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), f);
}

// Section 2.2's worked example: Mperson on the "Jim/Li" person document.
TEST(MftInterpTest, PaperMpersonExample) {
  Mft m = MustParseMft(kMpersonRules);
  ASSERT_TRUE(m.Validate().ok());
  Forest input = MustParseXml(
      "<person><p_id><a/>person0</p_id><name>Jim</name><c/>"
      "<name>Li</name></person>");
  EXPECT_EQ(RunToTerm(m, input), "out(\"Jim\" \"Li\")");
  // Serialized, adjacent text concatenates: <out>JimLi</out> (the paper's
  // remark about sibling text nodes).
  Forest out = std::move(RunMft(m, input)).ValueOrDie();
  EXPECT_EQ(ForestToXml(out), "<out>JimLi</out>");
}

// The paper's second Mperson input: the filter fails on the first p_id
// ("perso7") and the second parameter of q3 resumes the scan, finding the
// second p_id ("person0").
TEST(MftInterpTest, PaperMpersonElseBranch) {
  Mft m = MustParseMft(kMpersonRules);
  Forest input = MustParseXml(
      "<person><p_id><a/>perso7</p_id><name>Jim</name><c/>"
      "<p_id>person0</p_id></person>");
  EXPECT_EQ(RunToTerm(m, input), "out(\"Jim\")");
}

TEST(MftInterpTest, MpersonNoMatchYieldsEmptyOut) {
  Mft m = MustParseMft(kMpersonRules);
  Forest input = MustParseXml("<person><p_id>nobody</p_id><name>X</name></person>");
  EXPECT_EQ(RunToTerm(m, input), "out");
  Forest no_person = MustParseXml("<doc><name>X</name></doc>");
  // q1 recurses through non-person nodes; no person node -> empty out.
  EXPECT_EQ(RunToTerm(m, no_person), "out");
}

TEST(MftInterpTest, MpersonFindsNestedPersons) {
  // q1's default rule descends into x1 *and* x2, so nested persons match.
  Mft m = MustParseMft(kMpersonRules);
  Forest input = MustParseXml(
      "<doc><person><p_id>person0</p_id><name>A</name></person>"
      "<deep><person><p_id>person0</p_id><name>B</name></person></deep></doc>");
  EXPECT_EQ(RunToTerm(m, input), "out(\"A\" \"B\")");
}

TEST(MftInterpTest, ParametersPassByValue) {
  // q duplicates its parameter: y1 y1. The doubling transducer from
  // Section 4.2's FT-composition discussion, with parameters.
  Mft m = MustParseMft(
      "q0(%) -> q(x0, mark)\n"
      "q(a(x1)x2, y1) -> y1 y1 q(x2, y1)\n"
      "q(%t(x1)x2, y1) -> q(x2, y1)\n"
      "q(eps, y1) -> eps\n");
  Forest input = MustParseXml("<a/><a/>");
  EXPECT_EQ(RunToTerm(m, input), "mark mark mark mark");
}

TEST(MftInterpTest, CurrentLabelCopiesKindAndName) {
  // Rename-everything-to-itself via %t, wrapping text in <t>.
  Mft m = MustParseMft(
      "q0(%t(x1)x2) -> %t(q0(x1)) q0(x2)\n"
      "q0(eps) -> eps\n");
  Forest input = MustParseXml("<x>hello</x>");
  Result<Forest> out = RunMft(m, input);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0].children[0].kind, NodeKind::kText);
  EXPECT_EQ(out.value()[0].children[0].label, "hello");
}

TEST(MftInterpTest, StepBudgetCatchesDivergence) {
  // A stay loop: q(eps) -> q(x0). The paper notes such MFTs do not
  // terminate; the interpreter must fail cleanly instead of hanging.
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> q(x0)\n");
  InterpOptions opts;
  opts.max_steps = 10'000;
  Result<Forest> out = RunMft(m, {}, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(MftInterpTest, StayLoopDetectedBeforeStackOverflow) {
  // Same stay loop with the default 50M step budget: the recursive
  // interpreter would blow the C++ stack long before 50M applications, so
  // the stay-chain detector must fail the run cleanly instead.
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> q(x0)\n");
  Result<Forest> out = RunMft(m, {});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(MftInterpTest, StayLoopGuardAllowsWideInputs) {
  // The guard must only count no-progress moves: sibling (x2) recursion is
  // input progress, so a flat forest of thousands of elements — depth far
  // beyond any fixed recursion cap — still evaluates.
  Mft id = MustParseMft(
      "q(%t(x1)x2) -> %t(q(x1)) q(x2)\n"
      "q(%ttext(x1)x2) -> %t(eps) q(x2)\n"
      "q(eps) -> eps\n");
  Forest wide;
  for (int i = 0; i < 3000; ++i) wide.push_back(Tree::Element("e"));
  Result<Forest> out = RunMft(id, wide);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value().size(), 3000u);
}

TEST(MftInterpTest, ExponentialDoublingTransducer) {
  // Section 4.2: q(a(x1,x2)) -> q(x2)q(x2); translates n a-nodes into 2^n
  // a-leaves. Forest version.
  Mft m = MustParseMft(
      "q(a(x1)x2) -> q(x2) q(x2)\n"
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> a\n");
  Forest input = std::move(ParseTerm("a a a a").ValueOrDie());
  Result<Forest> out = RunMft(m, input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 16u);  // 2^4
}

// Property: the copy transducer is the identity on random forests.
class MftCopyProperty : public ::testing::TestWithParam<int> {};

TEST_P(MftCopyProperty, IdentityOnRandomForests) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  Rng rng(GetParam());
  std::function<Forest(int)> gen = [&](int depth) -> Forest {
    Forest f;
    int width = static_cast<int>(rng.Below(4));
    for (int i = 0; i < width; ++i) {
      if (depth > 0 && rng.Chance(1, 2)) {
        f.push_back(Tree::Element(std::string(1, static_cast<char>('a' + rng.Below(4))),
                                  gen(depth - 1)));
      } else {
        f.push_back(Tree::Text("t" + std::to_string(rng.Below(10))));
      }
    }
    return f;
  };
  Forest f = gen(4);
  Result<Forest> out = RunMft(m, f);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MftCopyProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace xqmft
