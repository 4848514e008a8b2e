// Tests for the XML substrate: forest model, term notation, SAX parser,
// attribute encoding, sinks, and parse/serialize round-trips (including a
// randomized property sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "event_trace_util.h"
#include "util/rng.h"
#include "xml/char_class.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

TEST(ForestTest, SizeAndDepth) {
  Forest f = std::move(ParseTerm("a(b(c) d) e").ValueOrDie());
  EXPECT_EQ(ForestSize(f), 5u);
  EXPECT_EQ(ForestDepth(f), 3u);
  EXPECT_EQ(ForestSize({}), 0u);
  EXPECT_EQ(ForestDepth({}), 0u);
}

TEST(ForestTest, TermRoundTrip) {
  const std::string term = "a(b(\"x y\") c) \"top\" d";
  Forest f = std::move(ParseTerm(term).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), term);
}

TEST(ForestTest, TermParseErrors) {
  EXPECT_FALSE(ParseTerm("a(").ok());
  EXPECT_FALSE(ParseTerm("a)").ok());
  EXPECT_FALSE(ParseTerm("\"unterminated").ok());
  EXPECT_FALSE(ParseTerm("a((b)").ok());
}

TEST(ForestTest, TermQuotedEscapes) {
  Forest f = std::move(ParseTerm(R"( "a\"b\\c" )").ValueOrDie());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].label, "a\"b\\c");
  // Round-trips through printing.
  Forest g = std::move(ParseTerm(ForestToTerm(f)).ValueOrDie());
  EXPECT_EQ(f, g);
}

TEST(ForestTest, XmlSerialization) {
  Forest f = std::move(ParseTerm("book(isbn(\"123\") title(\"A&B\"))").ValueOrDie());
  EXPECT_EQ(ForestToXml(f),
            "<book><isbn>123</isbn><title>A&amp;B</title></book>");
}

TEST(ForestTest, EmptyElementSerializesSelfClosing) {
  Forest f = std::move(ParseTerm("a(b c(d))").ValueOrDie());
  EXPECT_EQ(ForestToXml(f), "<a><b/><c><d/></c></a>");
}

TEST(SaxTest, PaperBookExample) {
  // The Section 2 example: attributes become leading child elements with a
  // text child (Figure 1's forest).
  const char* xml =
      "<book isbn=\"123\" price=\"$99\"><author>Knuth</author>"
      "<title>Art of Programming</title></book>";
  Forest f = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f),
            "book(isbn(\"123\") price(\"$99\") author(\"Knuth\") "
            "title(\"Art of Programming\"))");
}

TEST(SaxTest, SelfClosingAndNesting) {
  Forest f = std::move(
      ParseXmlForest("<doc><a><b/><b/></a><c/></doc>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "doc(a(b b) c)");
}

TEST(SaxTest, EntityDecoding) {
  Forest f = std::move(ParseXmlForest(
      "<t>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</t>")
                           .ValueOrDie());
  ASSERT_EQ(f.size(), 1u);
  ASSERT_EQ(f[0].children.size(), 1u);
  EXPECT_EQ(f[0].children[0].label, "<x> & \"q\" 'a' AB");
}

TEST(SaxTest, CommentsAndPIsAndDoctypeSkipped) {
  const char* xml =
      "<?xml version=\"1.0\"?><!DOCTYPE doc [<!ELEMENT doc ANY>]>"
      "<!-- a comment --><doc><!-- inner --><a/></doc>";
  Forest f = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "doc(a)");
}

TEST(SaxTest, CdataBecomesText) {
  Forest f = std::move(
      ParseXmlForest("<t><![CDATA[a<b&c]]></t>").ValueOrDie());
  EXPECT_EQ(f[0].children[0].label, "a<b&c");
}

TEST(SaxTest, CdataMergesWithAdjacentText) {
  Forest f = std::move(
      ParseXmlForest("<t>pre<![CDATA[mid]]>post</t>").ValueOrDie());
  ASSERT_EQ(f[0].children.size(), 1u);
  EXPECT_EQ(f[0].children[0].label, "premidpost");
}

TEST(SaxTest, WhitespaceSkippingByDefault) {
  Forest f = std::move(
      ParseXmlForest("<a>\n  <b> x </b>\n</a>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(b(\" x \"))");
}

TEST(SaxTest, ErrorMismatchedTags) {
  EXPECT_FALSE(ParseXmlForest("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXmlForest("<a>").ok());
  EXPECT_FALSE(ParseXmlForest("</a>").ok());
}

TEST(SaxTest, ErrorMalformedMarkup) {
  EXPECT_FALSE(ParseXmlForest("<a b></a>").ok());        // attr without value
  EXPECT_FALSE(ParseXmlForest("<a b=c></a>").ok());      // unquoted value
  EXPECT_FALSE(ParseXmlForest("<a>&unknown;</a>").ok()); // unknown entity
  EXPECT_FALSE(ParseXmlForest("<1a/>").ok());            // bad name start
}

TEST(SaxTest, ErrorsReportLineAndColumn) {
  // The mismatched end tag starts on line 3. Its "</b>" begins at column 4
  // ("  x" precedes it); the parser reports the position after reading the
  // tag, column 8 — the regression this guards is the offset being lost
  // entirely, so the assertion pins the exact line and column.
  Status st = ParseXmlForest("<a>\n<c></c>\n  x</b>\n</a>").status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3, column 8"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("byte 19"), std::string::npos) << st.message();

  // Errors on the first line: column counts from 1.
  Status first = ParseXmlForest("<1a/>").status();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.message().find("line 1, column 2"), std::string::npos)
      << first.message();
}

TEST(SaxTest, ParserTracksPosition) {
  StringSource src("<a>\nhi</a>");
  SaxParser p(&src);
  EXPECT_EQ(p.line(), 1u);
  EXPECT_EQ(p.column(), 1u);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  EXPECT_EQ(p.line(), 1u);
  EXPECT_EQ(p.column(), 4u);
  ASSERT_TRUE(p.Next(&ev).ok());  // text "hi" (reads up to '<')
  EXPECT_EQ(p.line(), 2u);
  EXPECT_EQ(p.column(), 3u);
}

TEST(SaxTest, MultipleTopLevelTreesFormAForest) {
  Forest f = std::move(ParseXmlForest("<a/><b/><c>t</c>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a b c(\"t\")");
}

TEST(SaxTest, SingleQuotedAttributes) {
  Forest f = std::move(ParseXmlForest("<a x='v'/>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(x(\"v\"))");
}

TEST(SaxTest, EmptyAttributeValueYieldsEmptyElement) {
  Forest f = std::move(ParseXmlForest("<a x=\"\"/>").ValueOrDie());
  EXPECT_EQ(ForestToTerm(f), "a(x)");
}

// ---- Chunk-boundary robustness: every construct split at every offset. ----

// TracedEvent / Trace() / ChunkedSource live in event_trace_util.h, shared
// with the pretok suite so both differential tests compare the same trace.

// The conformance corpus: every lexer state (tags, attributes + expansion,
// entities in text and attr values, CDATA with ]]-lookahead, comments, PIs,
// DOCTYPE with internal subset, long names/runs) so the refill sweep splits
// each of them at every possible byte offset.
const char* const kConformanceCorpus[] = {
    "<a><b/><b/></a>",
    "<book isbn=\"123\" price=\"$99\"><author>Knuth</author></book>",
    "<t>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</t>",
    "<t>pre<![CDATA[mid ]] >]]]>post</t>",
    "<?xml version=\"1.0\"?><!DOCTYPE d [<!ELEMENT d ANY>]><d><!-- c --><a/>"
    "</d>",
    "<a x='v &amp; w' y=\"\"/>",
    "<longer_element_name_than_any_refill_window_is_wide_in_this_sweep>"
    "text that also runs longer than the smallest windows do"
    "</longer_element_name_than_any_refill_window_is_wide_in_this_sweep>",
    "<a>\n  <b> x </b>\n</a>",
    "<a/><b/><c>t</c>",
    "<m><!-- dashes -- - ---><p></p><?pi with ? marks ?></m>",
};

TEST(SaxChunkTest, CorpusIdenticalAtEveryRefillSize) {
  for (const char* xml : kConformanceCorpus) {
    StringSource whole(xml);
    auto expected = std::move(Trace(&whole).ValueOrDie());
    for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
      ChunkedSource src(xml, chunk);
      Result<std::vector<TracedEvent>> got = Trace(&src);
      ASSERT_TRUE(got.ok()) << xml << " chunk=" << chunk << ": "
                            << got.status().ToString();
      EXPECT_EQ(got.value(), expected) << xml << " chunk=" << chunk;
    }
  }
}

TEST(SaxChunkTest, ErrorsStillDetectedAtEveryRefillSize) {
  const char* bad[] = {"<a><b></a></b>", "<a>&unknown;</a>", "<a x=1/>",
                       "<a><![CDATA[never closed", "<a>unclosed"};
  for (const char* xml : bad) {
    for (std::size_t chunk : {std::size_t(1), std::size_t(3), std::size_t(7)}) {
      ChunkedSource src(xml, chunk);
      SaxParser parser(&src);
      XmlEvent ev;
      Status st;
      do {
        st = parser.Next(&ev);
      } while (st.ok() && ev.type != XmlEventType::kEndOfDocument);
      EXPECT_FALSE(st.ok()) << xml << " chunk=" << chunk;
    }
  }
}

// ---- The zero-copy event contract. ----

bool ViewWithin(std::string_view view, std::string_view region) {
  return view.data() >= region.data() &&
         view.data() + view.size() <= region.data() + region.size();
}

TEST(SaxViewTest, MappedTextIsZeroCopy) {
  // Over an in-memory (Contents-capable) source, a plain text run must alias
  // the input bytes — no copy on the fast path.
  const std::string xml = "<a>hello world</a>";
  StringSource src(xml);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  ASSERT_TRUE(p.Next(&ev).ok());  // text
  ASSERT_EQ(ev.type, XmlEventType::kText);
  EXPECT_EQ(ev.text, "hello world");
  EXPECT_TRUE(ViewWithin(ev.text, xml)) << "text was copied";
}

TEST(SaxViewTest, EntityTextSpillsOutOfTheInput) {
  const std::string xml = "<a>x&amp;y</a>";
  StringSource src(xml);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());  // <a>
  ASSERT_TRUE(p.Next(&ev).ok());  // text
  ASSERT_EQ(ev.type, XmlEventType::kText);
  EXPECT_EQ(ev.text, "x&y");
  EXPECT_FALSE(ViewWithin(ev.text, xml)) << "decoded text cannot alias input";
}

TEST(SaxViewTest, NamesAliasTheSymbolTable) {
  // Name views point into the parser's symbol table, so they stay valid for
  // the parser's lifetime even across refills.
  ChunkedSource src("<abc><d/></abc>", 2);
  SaxParser p(&src);
  XmlEvent ev;
  ASSERT_TRUE(p.Next(&ev).ok());
  std::string_view abc = ev.name;
  EXPECT_EQ(abc, "abc");
  ASSERT_TRUE(p.Next(&ev).ok());  // <d/> — a refill happened meanwhile
  EXPECT_EQ(ev.name, "d");
  EXPECT_EQ(abc, "abc");  // still valid: table-backed
  EXPECT_EQ(p.symbols().name(p.symbols().Find(NodeKind::kElement, "abc")),
            abc);
}

TEST(SaxViewTest, ViewsStableUntilNextAndReplacedAfter) {
  // The contract: an event's views are valid until the next Next() call.
  // Copies taken before the next pull must equal the reference trace even
  // at the smallest window size, where every run spills.
  const char* xml = "<r><p>one</p><p a=\"v\">two&amp;2</p></r>";
  StringSource whole(xml);
  auto expected = std::move(Trace(&whole).ValueOrDie());
  ChunkedSource src(xml, 1);
  Result<std::vector<TracedEvent>> got = Trace(&src);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected);
}

TEST(SaxViewTest, AttrValueViewsSurviveUntilDrained) {
  // Attribute values live in the parser's tag arena: the synthetic
  // attribute events of one tag must all be readable as they drain, not
  // just the last one.
  StringSource src("<a x=\"1\" y=\"22\" z=\"333\"/>");
  SaxParser p(&src);
  std::vector<std::string> texts;
  XmlEvent ev;
  do {
    ASSERT_TRUE(p.Next(&ev).ok());
    if (ev.type == XmlEventType::kText) texts.emplace_back(ev.text);
  } while (ev.type != XmlEventType::kEndOfDocument);
  EXPECT_EQ(texts, (std::vector<std::string>{"1", "22", "333"}));
}

// ---- MmapSource ----

TEST(MmapSourceTest, ParsesLikeInMemory) {
  const std::string xml = "<doc><a k=\"v\">text</a><b/></doc>";
  std::string path = ::testing::TempDir() + "/xqmft_mmap_test.xml";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(xml.data(), 1, xml.size(), f);
  std::fclose(f);

  Forest from_file = std::move(ParseXmlFile(path).ValueOrDie());
  Forest from_mem = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(from_file, from_mem);

  // The source reports a stable whole-input region (the mapping).
  auto src = std::move(MmapSource::Open(path).ValueOrDie());
  std::string_view all;
  ASSERT_TRUE(src->Contents(&all));
  EXPECT_EQ(all, xml);
  std::remove(path.c_str());
}

TEST(MmapSourceTest, MissingFileFails) {
  EXPECT_FALSE(MmapSource::Open("/nonexistent/xqmft/nope.xml").ok());
}

TEST(SinkTest, StringSinkSerializes) {
  StringSink sink;
  sink.StartElement("a");
  sink.Text("x<y");
  sink.StartElement("b");
  sink.EndElement("b");
  sink.EndElement("a");
  EXPECT_EQ(sink.str(), "<a>x&lt;y<b></b></a>");
}

TEST(SinkTest, CountingSinkCounts) {
  CountingSink sink;
  sink.StartElement("a");
  sink.Text("hello");
  sink.EndElement("a");
  EXPECT_EQ(sink.elements(), 1u);
  EXPECT_EQ(sink.texts(), 1u);
  EXPECT_GT(sink.bytes(), 5u);
}

TEST(SinkTest, CountingSinkMatchesStringSinkBytes) {
  // Regression: CountingSink used to charge raw text sizes while
  // StringSink/FileSink serialize *escaped* text — the two must agree on
  // every balanced stream, including content that needs escaping.
  CountingSink counting;
  StringSink str;
  for (OutputSink* sink : {static_cast<OutputSink*>(&counting),
                           static_cast<OutputSink*>(&str)}) {
    sink->StartElement("r");
    sink->Text("a & b < c > d");
    sink->StartElement("item");
    sink->Text("plain");
    sink->EndElement("item");
    sink->Text("&&&");
    sink->EndElement("r");
  }
  EXPECT_EQ(counting.bytes(), str.str().size());
}

// ---- Property sweep: parse(serialize(f)) == f for random forests. ----

Forest RandomForest(Rng* rng, int depth, int max_width) {
  Forest f;
  int width = static_cast<int>(rng->Below(static_cast<std::uint64_t>(max_width) + 1));
  for (int i = 0; i < width; ++i) {
    if (depth > 0 && rng->Chance(3, 5)) {
      std::string name(1, static_cast<char>('a' + rng->Below(6)));
      f.push_back(Tree::Element(name, RandomForest(rng, depth - 1, max_width)));
    } else {
      // Text content avoiding pure whitespace and adjacent-merge ambiguity:
      // never generate two adjacent text nodes.
      if (!f.empty() && f.back().kind == NodeKind::kText) continue;
      std::string content = "t" + std::to_string(rng->Below(100));
      f.push_back(Tree::Text(content));
    }
  }
  return f;
}

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripProperty, ParseSerializeIdentity) {
  Rng rng(GetParam());
  Forest f = RandomForest(&rng, 4, 4);
  // Wrap in a root so the XML is a single document.
  Forest doc;
  doc.push_back(Tree::Element("root", f));
  std::string xml = ForestToXml(doc);
  Forest parsed = std::move(ParseXmlForest(xml).ValueOrDie());
  EXPECT_EQ(parsed, doc) << "xml: " << xml;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range(0, 50));

// ---- SIMD char-class scanning parity. ----

TEST(SimdScanTest, SimdAndScalarTracesAgree) {
  // A document stressing every bulk-scan state: long text runs (longer than
  // one SIMD vector), long names, attribute values, whitespace runs, and
  // stop bytes at every offset within a vector. Parsed with the SIMD fast
  // path on and off, the event traces must be identical — including with a
  // 1-byte refill window, where every scan crosses a buffer boundary.
  std::string xml = "<root>";
  std::string longtext(100, 'x');
  for (int i = 0; i < 40; ++i) {
    std::string name = "elem" + std::string(static_cast<std::size_t>(i % 20), 'n');
    xml += "<" + name + " attr=\"" + longtext.substr(0, 3 + i) + "\">";
    xml += longtext.substr(0, 1 + 2 * i) + "&amp;tail";
    xml += std::string(1 + i % 7, ' ');
    xml += "</" + name + ">";
  }
  xml += "</root>";

  const bool was_enabled = SimdScanEnabled();
  SetSimdScanEnabled(true);
  StringSource simd_src(xml);
  auto simd_trace = Trace(&simd_src);
  ASSERT_TRUE(simd_trace.ok()) << simd_trace.status().ToString();

  SetSimdScanEnabled(false);
  StringSource scalar_src(xml);
  auto scalar_trace = Trace(&scalar_src);
  ASSERT_TRUE(scalar_trace.ok()) << scalar_trace.status().ToString();
  EXPECT_EQ(simd_trace.value(), scalar_trace.value());

  // Chunked refill with the fast path on: identical to the whole-buffer
  // scalar trace.
  SetSimdScanEnabled(true);
  ChunkedSource chunked(xml, 1);
  auto chunked_trace = Trace(&chunked);
  ASSERT_TRUE(chunked_trace.ok()) << chunked_trace.status().ToString();
  EXPECT_EQ(chunked_trace.value(), scalar_trace.value());

  SetSimdScanEnabled(was_enabled);
}

// ---- Subtree skipping: SaxParser::SkipSubtree vs pull-and-drop. ----

// Valid documents covering every construct a skipped subtree can hold:
// nesting, self-closing and attribute-bearing elements,
// entities in text and attribute values, CDATA, comments, PIs, DOCTYPE,
// whitespace-only runs, `</a >` end tags, and names longer than small
// refill windows.
const char* const kSkipCorpus[] = {
    "<r><s><a>x</a><b/></s><t>y</t></r>",
    "<r><s a=\"1\" b='' c=\"v&amp;w\"><i x=\"\"/>t</s><u/></r>",
    "<r><s><a >x</a ><b\n/></s\n>tail</r>",
    "<r>\n  <s>\n    <a>  </a>\n  </s>\n  <t/>\n</r>",
    "<r><s>&lt;&#65;&#x42;&gt;<![CDATA[c]]]]>d]]><!-- n --><?p i?></s></r>",
    "<r><s><!DOCTYPE x [<!ELEMENT x ANY>]><a/></s><t/></r>",
    "<r><s><s><s>deep</s></s></s><s/></r>",
    "<r><same same=\"same\"><same>x</same></same></r>",
    "<r><a_rather_long_element_name_crossing_windows k=\"value\">t"
    "</a_rather_long_element_name_crossing_windows></r>",
    "<a/><b><c/></b><d>t</d>",
};

// Malformed documents whose error sits inside a subtree a skip can reject.
const char* const kSkipMalformed[] = {
    "<r><s><a>x</b></s></r>",           // mismatched end tag
    "<r><s><a>x</a ></t></r>",          // mismatched after whitespace
    "<r><s>< a/></s></r>",              // bad name start
    "<r><s></ a></s></r>",              // bad end-tag name start
    "<r><s><1a/></s></r>",              // digit cannot start a name
    "<r><s><!-- never",                 // unterminated comment
    "<r><s><![CDATA[ never",            // unterminated CDATA
    "<r><s><![CDAT x]]></s></r>",       // malformed CDATA
    "<r><s><?pi never",                 // unterminated PI
    "<r><s><a x=\"never/></s></r>",     // unterminated attribute value
    "<r><s><a x=1/></s></r>",           // unquoted attribute value
    "<r><s><a x/></s></r>",             // missing '='
    "<r><s><a/ ></s></r>",              // broken empty-element tag
    "<r><s><a x=\"1\"</s></r>",         // attribute then junk
    "<r><s>&bogus;</s></r>",            // unknown entity
    "<r><s a=\"&bogus;\"/><t/></r>",    // unknown entity in a value
    "<r><s>&#0;</s></r>",               // bad character reference
    "<r><s>&aaaaaaaaaaaaaaa;</s></r>",  // entity reference too long
    "<r><s>&amp</s></r>",               // unterminated entity
    "<r><s><a>x</a>",                   // input ends inside the subtree
    "<r><s><a",                         // truncated start tag
    "<r><s><",                          // truncated markup
    "<r><s></a",                        // truncated end tag
};

// Runs SkipLog over `xml` through SaxParser and through its pull-and-drop
// oracle, for every source shape (mapped, and chunked at 1-7 bytes per
// Read) and SIMD on and off; the logs must be equal.
void ExpectSkipMatchesPull(
    std::string_view xml,
    const std::function<bool(std::size_t, std::string_view)>& skip,
    const std::string& what) {
  const bool was_enabled = SimdScanEnabled();
  ExactBuffer buf(xml);
  for (bool simd : {true, false}) {
    SetSimdScanEnabled(simd);
    for (std::size_t chunk = 0; chunk <= 7; ++chunk) {
      std::unique_ptr<ByteSource> a, b;
      if (chunk == 0) {
        a = std::make_unique<StringSource>(buf.view());
        b = std::make_unique<StringSource>(buf.view());
      } else {
        a = std::make_unique<ChunkedSource>(buf.view(), chunk);
        b = std::make_unique<ChunkedSource>(buf.view(), chunk);
      }
      SaxParser skipping(a.get());
      SaxParser pulling_parser(b.get());
      PullOnlySource pulling(&pulling_parser);
      EXPECT_EQ(SkipLog(&skipping, skip), SkipLog(&pulling, skip))
          << what << "\nxml: " << xml << "\nchunk: " << chunk
          << " simd: " << simd;
    }
  }
  SetSimdScanEnabled(was_enabled);
}

// Every single-start skip position, plus skipping every start named "s".
void ExpectEverySkipMatches(std::string_view xml) {
  for (std::size_t k = 0; k < 12; ++k) {
    ExpectSkipMatchesPull(
        xml, [k](std::size_t i, std::string_view) { return i == k; },
        "skip start #" + std::to_string(k));
  }
  ExpectSkipMatchesPull(
      xml, [](std::size_t, std::string_view n) { return n == "s"; },
      "skip every <s>");
}

TEST(SaxSkipTest, SkipMatchesPullOnTheCorpus) {
  for (const char* xml : kSkipCorpus) ExpectEverySkipMatches(xml);
}

TEST(SaxSkipTest, ErrorsInsideASkippedSubtreeAreIdentical) {
  for (const char* xml : kSkipMalformed) {
    ExpectEverySkipMatches(xml);
    // The skip must still see the error: skipping <s> is never OK here.
    StringSource src(xml);
    SaxParser parser(&src);
    std::string log = SkipLog(
        &parser, [](std::size_t, std::string_view n) { return n == "s"; });
    EXPECT_EQ(log.find("| OK"), std::string::npos) << xml << "\n" << log;
  }
}

TEST(SaxSkipTest, TruncationAtEveryByteIsIdentical) {
  const std::string xml =
      "<r><s a=\"v&amp;\"><!-- c --><x>t&lt;</x ><![CDATA[d]]><y/></s>"
      "<?p?><t>u</t></r>";
  for (std::size_t n = 0; n <= xml.size(); ++n) {
    ExpectEverySkipMatches(std::string_view(xml).substr(0, n));
  }
}

TEST(SaxSkipTest, EdgeCasesCountAndConsumeExactly) {
  // A rejected self-closing element: its queued end is the whole subtree.
  {
    StringSource src("<r><a x=\"1\"/><b/></r>");
    SaxParser parser(&src);
    EXPECT_EQ(SkipLog(&parser,
                      [](std::size_t, std::string_view n) { return n == "a"; }),
              "<r><a>{skip 4}<b></b></r> | OK @21");
  }
  // A rejected expanded attribute: its queued text and end.
  {
    StringSource src("<r a=\"1\" b=\"\">t</r>");
    SaxParser parser(&src);
    EXPECT_EQ(SkipLog(&parser,
                      [](std::size_t, std::string_view n) { return n == "a"; }),
              "<r><a>{skip 2}<b></b>[t]</r> | OK @19");
  }
  // `</a >` ends the skip; the bytes after it are the parser's again.
  {
    StringSource src("<r><a><a>x</a ></a\n>y</r>");
    SaxParser parser(&src);
    EXPECT_EQ(SkipLog(&parser,
                      [](std::size_t i, std::string_view) { return i == 1; }),
              "<r><a>{skip 4}[y]</r> | OK @25");
    EXPECT_EQ(parser.line(), 2u);
  }
}

}  // namespace
}  // namespace xqmft
