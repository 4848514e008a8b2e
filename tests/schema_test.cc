// Tests for streaming schema validation (the Section 1 "validate the input
// during transformation" feature): the hedge-grammar parser, content-model
// regexes, the event-driven validator, and the one-pass integration with
// the streaming engine through ValidatingSource.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "schema/schema.h"
#include "stream/engine.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

std::shared_ptr<const Schema> MustParseSchema(const std::string& text,
                                              bool strict = false) {
  Result<std::shared_ptr<const Schema>> r = Schema::Parse(text, strict);
  if (!r.ok()) ADD_FAILURE() << "Schema::Parse: " << r.status().ToString();
  return std::move(r).ValueOrDie();
}

Status Validate(const std::string& schema_text, const std::string& xml,
                bool strict = false) {
  auto schema = MustParseSchema(schema_text, strict);
  Forest doc = std::move(ParseXmlForest(xml).ValueOrDie());
  return ValidateForest(*schema, doc);
}

TEST(SchemaParseTest, RejectsMalformedRules) {
  EXPECT_FALSE(Schema::Parse("person name text").ok());    // no ->
  EXPECT_FALSE(Schema::Parse("a -> (b").ok());             // missing )
  EXPECT_FALSE(Schema::Parse("a -> b**)").ok());           // trailing junk
  EXPECT_FALSE(Schema::Parse("a -> b\na -> c").ok());      // duplicate
  EXPECT_FALSE(Schema::Parse(" -> b").ok());               // no name
}

TEST(SchemaParseTest, CommentsAndBlankLines) {
  EXPECT_TRUE(Schema::Parse("# comment\n\na -> b*\n").ok());
}

TEST(SchemaValidateTest, SequenceModel) {
  const char* schema = "person -> id name email?";
  EXPECT_TRUE(Validate(schema, "<person><id/><name/><email/></person>").ok());
  EXPECT_TRUE(Validate(schema, "<person><id/><name/></person>").ok());
  EXPECT_FALSE(Validate(schema, "<person><name/><id/></person>").ok());
  EXPECT_FALSE(Validate(schema, "<person><id/></person>").ok());
  EXPECT_FALSE(
      Validate(schema, "<person><id/><name/><email/><email/></person>").ok());
}

TEST(SchemaValidateTest, StarPlusOptional) {
  const char* schema = "list -> item+\nitem -> text?";
  EXPECT_TRUE(Validate(schema, "<list><item>x</item><item/></list>").ok());
  EXPECT_FALSE(Validate(schema, "<list/>").ok());  // + requires one
  const char* star = "list -> item*";
  EXPECT_TRUE(Validate(star, "<list/>").ok());
}

TEST(SchemaValidateTest, Alternation) {
  const char* schema = "doc -> (a | b)* c";
  EXPECT_TRUE(Validate(schema, "<doc><a/><b/><a/><c/></doc>").ok());
  EXPECT_TRUE(Validate(schema, "<doc><c/></doc>").ok());
  EXPECT_FALSE(Validate(schema, "<doc><a/><c/><a/></doc>").ok());
}

TEST(SchemaValidateTest, TextAndAnyAtoms) {
  EXPECT_TRUE(Validate("name -> text", "<name>Jim</name>").ok());
  EXPECT_FALSE(Validate("name -> text", "<name><x/></name>").ok());
  EXPECT_FALSE(Validate("name -> text", "<name/>").ok());
  EXPECT_TRUE(Validate("wrap -> any*", "<wrap>x<a/><b>t</b></wrap>").ok());
}

TEST(SchemaValidateTest, UnconstrainedElementsPassByDefault) {
  EXPECT_TRUE(Validate("a -> b", "<a><b><zzz/></b></a>").ok());
}

TEST(SchemaValidateTest, StrictModeRejectsUnknownElements) {
  EXPECT_FALSE(Validate("a -> b", "<a><b><zzz/></b></a>", true).ok());
  EXPECT_TRUE(Validate("a -> b\nb -> zzz?\nzzz -> \n",
                       "<a><b><zzz/></b></a>", true)
                  .ok());
}

TEST(SchemaValidateTest, NestedModels) {
  const char* schema =
      "site -> people\n"
      "people -> person*\n"
      "person -> id name\n"
      "id -> text\n"
      "name -> text\n";
  EXPECT_TRUE(Validate(schema,
                       "<site><people>"
                       "<person><id>1</id><name>A</name></person>"
                       "<person><id>2</id><name>B</name></person>"
                       "</people></site>")
                  .ok());
  EXPECT_FALSE(Validate(schema,
                        "<site><people><person><name>A</name><id>1</id>"
                        "</person></people></site>")
                   .ok());
}

TEST(SchemaValidateTest, ValidatorReportsCompletion) {
  auto schema = MustParseSchema("a -> b*");
  SchemaValidator v(schema);
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  ASSERT_TRUE(v.Feed(ev).ok());
  EXPECT_FALSE(v.complete());
  ev.type = XmlEventType::kEndElement;
  ASSERT_TRUE(v.Feed(ev).ok());
  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(v.Feed(ev).ok());
  EXPECT_TRUE(v.complete());
}

// Streams `xml` through `plan` behind a ValidatingSource for `schema`.
Status StreamValidated(const CompiledPlan& plan,
                       std::shared_ptr<const Schema> schema,
                       const std::string& xml, OutputSink* sink,
                       StreamStats* stats = nullptr) {
  SchemaValidator validator(std::move(schema));
  StringSource source(xml);
  SaxParser parser(&source);
  ValidatingSource events(&parser, &validator);
  return plan.StreamEvents(&events, sink, stats);
}

// One pass: transformation and validation share the same event stream.
TEST(SchemaStreamTest, ValidationDuringTransformation) {
  Mft copy = std::move(ParseMft("qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\n"
                                "qcopy(eps) -> eps\n")
                           .ValueOrDie());
  auto plan = CompiledPlan::FromMft(std::move(copy)).ValueOrDie();
  auto schema = MustParseSchema("r -> a* b");

  {
    StringSink sink;
    Status st = StreamValidated(*plan, schema, "<r><a/><a/><b/></r>", &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(sink.str(), "<r><a></a><a></a><b></b></r>");
  }
  {
    StringSink sink;
    Status st = StreamValidated(*plan, schema, "<r><b/><a/></r>", &sink);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

// Validation composes with source projection on both engine cores: the
// projection keeps the <note> subtree from the engine, yet the validator
// still reads it (ValidatingSource keeps the pull-and-drop SkipSubtree, so
// a skip never bypasses it). A byte-skipping override would miss <bad/>.
TEST(SchemaStreamTest, SubtreesSkippedByProjectionAreStillValidated) {
  auto schema = MustParseSchema("doc -> (item|note)*\nnote -> text");
  const std::string query =
      "<out>{ for $x in $input/doc/item return <hit>{$x/text()}</hit> }"
      "</out>";
  for (EngineChoice engine : {EngineChoice::kTable, EngineChoice::kOps}) {
    PipelineOptions options;
    options.stream.engine = engine;
    auto plan = CompiledPlan::Compile(query, options).ValueOrDie();
    ASSERT_FALSE(plan->projection().whole_document);

    StringSink bad_sink;
    Status bad = StreamValidated(
        *plan, schema,
        "<doc><item>a</item><note><bad/></note><item>b</item></doc>",
        &bad_sink);
    EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bad.message(),
              "schema violation: <bad> not allowed here inside <note>");
    EXPECT_EQ(bad_sink.str(), "<out><hit>a</hit>");

    StringSink ok_sink;
    StreamStats stats;
    Status ok = StreamValidated(
        *plan, schema,
        "<doc><item>a</item><note>ok</note><item>b</item></doc>", &ok_sink,
        &stats);
    EXPECT_TRUE(ok.ok()) << ok.ToString();
    EXPECT_EQ(ok_sink.str(), "<out><hit>a</hit><hit>b</hit></out>");
    EXPECT_EQ(stats.subtrees_skipped, 1u);
    EXPECT_EQ(stats.used_ops_engine, engine == EngineChoice::kOps);
  }
}

}  // namespace
}  // namespace xqmft
