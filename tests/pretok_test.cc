// Tests for the pre-tokenized binary event format: event-stream round trips,
// symbol remapping into a consumer table, corruption handling, subtree
// skipping (record walks match the full replay, errors included), and the
// differential guarantee the streaming engine relies on — byte-identical
// output whether it consumes text XML or a pretok cache, across the Figure 3
// query corpus.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "mft/interp.h"
#include "stream/engine.h"
#include "util/rng.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

// TracedEvent / Trace() come from event_trace_util.h, shared with the SAX
// conformance suite so both differential tests compare the same trace.
std::vector<TracedEvent> TraceSource(EventSource* src) {
  Result<std::vector<TracedEvent>> out = Trace(src);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out.value()) : std::vector<TracedEvent>{};
}

std::string Tokenize(const std::string& xml) {
  StringSource src(xml);
  std::string out;
  Status st = PretokenizeXml(&src, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(PretokTest, RoundTripsTheEventStream) {
  const char* corpus[] = {
      "<a><b/><b/></a>",
      "<book isbn=\"123\" price=\"$99\"><author>Knuth</author></book>",
      "<t>&lt;x&gt; &amp; text</t>",
      "<t>pre<![CDATA[mid]]>post</t>",
      "<a/><b/><c>t</c>",
      "<deep><deep><deep><leaf>x</leaf></deep></deep></deep>",
  };
  for (const char* xml : corpus) {
    StringSource direct_src(xml);
    SaxParser direct(&direct_src);
    std::vector<TracedEvent> expected = TraceSource(&direct);

    std::string bytes = Tokenize(xml);
    PretokSource pretok(bytes);
    std::vector<TracedEvent> got = TraceSource(&pretok);
    EXPECT_EQ(got, expected) << xml;
  }
}

TEST(PretokTest, TextViewsAliasTheFileBytes) {
  std::string bytes = Tokenize("<a>hello</a>");
  PretokSource src(bytes);
  XmlEvent ev;
  ASSERT_TRUE(src.Next(&ev).ok());  // <a>
  ASSERT_TRUE(src.Next(&ev).ok());  // text
  ASSERT_EQ(ev.type, XmlEventType::kText);
  EXPECT_EQ(ev.text, "hello");
  EXPECT_GE(ev.text.data(), bytes.data());
  EXPECT_LE(ev.text.data() + ev.text.size(), bytes.data() + bytes.size());
}

TEST(PretokTest, BindSymbolsRemapsIntoConsumerTable) {
  // A consumer table with prior contents: file ids must remap, not collide.
  SymbolTable table;
  SymbolId zebra = table.Intern(NodeKind::kElement, "zebra");
  std::string bytes = Tokenize("<a><b/>x</a>");
  PretokSource src(bytes);
  src.BindSymbols(&table);
  XmlEvent ev;
  ASSERT_TRUE(src.Next(&ev).ok());
  EXPECT_EQ(ev.name, "a");
  EXPECT_EQ(ev.symbol, table.Find(NodeKind::kElement, "a"));
  EXPECT_NE(ev.symbol, zebra);
  ASSERT_TRUE(src.Next(&ev).ok());
  EXPECT_EQ(ev.symbol, table.Find(NodeKind::kElement, "b"));
}

TEST(PretokTest, DefinesEachSymbolOnce) {
  // Many repeats of one element: the name bytes appear once in the file, so
  // a pretok cache is also a (crude) dictionary compressor for markup.
  std::string xml = "<list>";
  for (int i = 0; i < 100; ++i) xml += "<entry>v</entry>";
  xml += "</list>";
  std::string bytes = Tokenize(xml);
  std::size_t count = 0;
  for (std::size_t at = bytes.find("entry"); at != std::string::npos;
       at = bytes.find("entry", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
  EXPECT_LT(bytes.size(), xml.size());
}

// The flags byte (offset 7, after the magic) of every stream is 0x03: the
// one tokenization. Any other value is rejected at the header, on every
// reader path, before a single event replays.
TEST(PretokTest, ForeignTokenizationFlagsAreRejectedOnEveryPath) {
  const std::string xml = "<a x=\"1\"> <b>t</b> </a>";
  const std::string bytes = Tokenize(xml);
  ASSERT_EQ(bytes.substr(0, 8), std::string("XQPTK2\n\x03", 8));
  std::string foreign = bytes;
  foreign[7] = '\x01';  // attributes expanded, whitespace-only text kept

  XmlEvent ev;
  for (int flags = 0; flags < 256; ++flags) {
    if (flags == 0x03) continue;
    std::string s = bytes;
    s[7] = static_cast<char>(flags);
    PretokSource src(s);
    EXPECT_FALSE(src.header_ok()) << flags;
    EXPECT_EQ(src.Next(&ev).code(), StatusCode::kInvalidArgument) << flags;
  }

  const std::string dir = ::testing::TempDir();
  const std::string xml_path = dir + "/xqmft_foreign_flags.xml";
  const std::string ptk_path = dir + "/xqmft_foreign_flags.ptk";
  {
    std::FILE* f = std::fopen(xml_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(xml.data(), 1, xml.size(), f);
    std::fclose(f);
  }
  ASSERT_TRUE(WritePretokFile(foreign, ptk_path).ok());
  Result<std::unique_ptr<PretokSource>> opened =
      PretokSource::OpenFile(ptk_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->Next(&ev).code(), StatusCode::kInvalidArgument);

  auto plan = CompiledPlan::Compile("<out>{$input/a/b}</out>").ValueOrDie();
  for (const ParallelInput& input : {ParallelInput::PretokBytes(foreign),
                                     ParallelInput::PretokFile(ptk_path)}) {
    StringSink sink;
    Status st = xqmft::Run({plan.get()}, {input}, {&sink});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(sink.str(), "");
  }

  // Same source bytes, same declared identity: only the flags differ, and
  // the cache is still invalid, so callers re-tokenize.
  EXPECT_FALSE(PretokCacheValid(ptk_path, xml_path));
  ASSERT_TRUE(WritePretokFile(bytes, ptk_path).ok());
  EXPECT_TRUE(PretokCacheValid(ptk_path, xml_path));
  std::remove(xml_path.c_str());
  std::remove(ptk_path.c_str());
}

TEST(PretokTest, RejectsCorruptStreams) {
  XmlEvent ev;
  {
    PretokSource src("not a pretok stream at all");
    EXPECT_FALSE(src.Next(&ev).ok());
  }
  {
    std::string truncated = Tokenize("<a>text</a>");
    truncated.resize(truncated.size() / 2);
    PretokSource src(truncated);
    Status st;
    do {
      st = src.Next(&ev);
    } while (st.ok() && ev.type != XmlEventType::kEndOfDocument);
    EXPECT_FALSE(st.ok());
  }
  {
    // Valid header, bogus opcode. bytes_consumed() before any Next() is
    // exactly the header size, i.e. the first record's offset.
    std::string bytes = Tokenize("<a/>");
    std::size_t first_record = PretokSource(bytes).bytes_consumed();
    bytes[first_record] = '\x7E';
    PretokSource src(bytes);
    EXPECT_FALSE(src.Next(&ev).ok());
  }
}

TEST(PretokTest, FileRoundTrip) {
  std::string dir = ::testing::TempDir();
  std::string xml_path = dir + "/xqmft_pretok_test.xml";
  std::string ptk_path = dir + "/xqmft_pretok_test.ptk";
  const std::string xml = "<doc><a k=\"v\">text &amp; more</a></doc>";
  std::FILE* f = std::fopen(xml_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(xml.data(), 1, xml.size(), f);
  std::fclose(f);

  ASSERT_TRUE(PretokenizeXmlFile(xml_path, ptk_path).ok());
  auto src = std::move(PretokSource::OpenFile(ptk_path).ValueOrDie());

  StringSource direct_src(xml);
  SaxParser direct(&direct_src);
  EXPECT_EQ(TraceSource(src.get()), TraceSource(&direct));
  std::remove(xml_path.c_str());
  std::remove(ptk_path.c_str());
}

TEST(PretokTest, CacheValidityTracksSourceIdentity) {
  std::string dir = ::testing::TempDir();
  std::string xml = dir + "/xqmft_fresh.xml";
  std::string ptk = dir + "/xqmft_fresh.ptk";
  auto write = [](const std::string& path, const char* data) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(data, 1, std::strlen(data), f);
    std::fclose(f);
  };
  write(xml, "<a>one</a>");
  EXPECT_FALSE(PretokCacheValid(ptk, xml));  // no cache yet
  ASSERT_TRUE(PretokenizeXmlFile(xml, ptk).ok());
  EXPECT_TRUE(PretokCacheValid(ptk, xml));
  EXPECT_FALSE(PretokCacheValid(ptk, dir + "/xqmft_missing.xml"));
  // Identity is content-based: a different document is rejected even when
  // its mtime predates the cache (restored backups, cp -p), and rewriting
  // the same bytes stays valid regardless of timestamps.
  write(xml, "<b>two</b>");
  EXPECT_FALSE(PretokCacheValid(ptk, xml));
  write(xml, "<a>one</a>");
  EXPECT_TRUE(PretokCacheValid(ptk, xml));
  // Same length, different bytes: the size check alone must not pass it.
  write(xml, "<a>eno</a>");
  EXPECT_FALSE(PretokCacheValid(ptk, xml));
  // A cache with no declared identity (stream-tokenized, e.g. stdin) falls
  // back to requiring the cache mtime to be strictly newer than the input.
  write(xml, "<a>one</a>");
  {
    std::string bytes;
    PretokWriter writer(&bytes);  // default identity: 0/0
    StringSource s("<a>one</a>");
    SaxParser parser(&s);
    XmlEvent ev;
    do {
      ASSERT_TRUE(parser.Next(&ev).ok());
      ASSERT_TRUE(writer.Feed(ev).ok());
    } while (ev.type != XmlEventType::kEndOfDocument);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(WritePretokFile(bytes, ptk).ok());
    EXPECT_TRUE(PretokCacheValid(ptk, xml));  // cache newer than input
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    write(xml, "<a>one</a>");  // input touched after the cache was written
    EXPECT_FALSE(PretokCacheValid(ptk, xml));
  }
  std::remove(xml.c_str());
  std::remove(ptk.c_str());
}

TEST(PretokTest, StreamCutMidRecordFailsLoudly) {
  // A stream cut at any byte (a short write, a truncated copy) must error,
  // never hand out bytes past the cut as payload. Each cut is its own
  // allocation, so an overread is a sanitizer fault, not a silent pass.
  std::string bytes = Tokenize("<a>hello world</a>");
  std::size_t records_begin = PretokSource(bytes).bytes_consumed();
  for (std::size_t end = records_begin; end < bytes.size(); ++end) {
    ExactBuffer cut(std::string_view(bytes).substr(0, end));
    PretokSource src(cut.view());
    XmlEvent ev;
    Status st;
    do {
      st = src.Next(&ev);
      if (st.ok() && ev.type == XmlEventType::kText) {
        EXPECT_LE(ev.text.data() + ev.text.size(), cut.view().data() + end);
      }
    } while (st.ok() && ev.type != XmlEventType::kEndOfDocument);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "cut at " << end;
  }
}

TEST(PretokTest, RepeatedEndOfDocumentClearsViews) {
  std::string bytes = Tokenize("<a>hello</a>");
  PretokSource src(bytes);
  XmlEvent ev;
  do {
    ASSERT_TRUE(src.Next(&ev).ok());
  } while (ev.type != XmlEventType::kEndOfDocument);
  // EventSource contract: after kEndOfDocument, Next keeps returning it —
  // with no stale views from earlier events (SaxParser parity).
  ev.name = "stale";
  ev.text = "stale";
  ASSERT_TRUE(src.Next(&ev).ok());
  EXPECT_EQ(ev.type, XmlEventType::kEndOfDocument);
  EXPECT_TRUE(ev.name.empty());
  EXPECT_TRUE(ev.text.empty());
}

// ---------------------------------------------------------------------------
// Subtree skipping: PretokSource::SkipSubtree vs pull-and-drop replay.
// ---------------------------------------------------------------------------

// SkipLog (event_trace_util.h) of a pretok stream through the
// record-walking skip and through the pull-and-drop oracle, for every
// single-start skip position.
void ExpectPretokSkipMatchesPull(std::string_view bytes) {
  ExactBuffer buf(bytes);
  for (std::size_t k = 0; k < 8; ++k) {
    auto skip = [k](std::size_t i, std::string_view) { return i == k; };
    PretokSource skipping(buf.view());
    PretokSource pulled(buf.view());
    PullOnlySource pulling(&pulled);
    EXPECT_EQ(SkipLog(&skipping, skip), SkipLog(&pulling, skip))
        << "skip start #" << k << ", " << bytes.size() << " bytes";
  }
}

const char* const kPretokSkipDoc =
    "<r><s a=\"1\"><x>t</x><y/></s><n>u</n><s><s>v</s></s></r>";

TEST(PretokSkipTest, SkipMatchesReplayOnTruncatedStreams) {
  const std::string bytes = Tokenize(kPretokSkipDoc);
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    ExpectPretokSkipMatchesPull(std::string_view(bytes).substr(0, n));
  }
}

TEST(PretokSkipTest, SkipMatchesReplayOnCorruptStreams) {
  const std::string bytes = Tokenize(kPretokSkipDoc);
  const std::size_t records_begin = PretokSource(bytes).bytes_consumed();
  for (std::size_t i = records_begin; i < bytes.size(); ++i) {
    for (unsigned char v : {0x00, 0x01, 0x02, 0x03, 0x04, 0x07, 0x7f, 0xff}) {
      std::string bad = bytes;
      bad[i] = static_cast<char>(v);
      ExpectPretokSkipMatchesPull(bad);
    }
  }
}

TEST(PretokSkipTest, ProjectedRunMatchesFullReplay) {
  // A plan run over pretok input skips records (CompiledPlan::StreamEvents
  // projects); a FromMft plan over the same transducer is whole_document
  // and replays every event. Output and Status must be identical, also on
  // truncated and corrupt streams.
  const std::string bytes = Tokenize(
      GenerateDatasetString(DatasetKind::kXmark, 1500, 3).ValueOrDie());
  for (const char* id : {"q01", "q02", "q13", "q16", "q17"}) {
    auto plan = CompiledPlan::Compile(QueryById(id).text).ValueOrDie();
    ASSERT_FALSE(plan->projection().whole_document) << id;
    auto full_plan =
        CompiledPlan::FromMft(plan->mft(), plan->options()).ValueOrDie();
    auto run_both = [&](std::string_view stream, const std::string& what) {
      ExactBuffer buf(stream);
      PretokSource projected_src(buf.view());
      StringSink projected_out;
      StreamStats stats;
      Status projected =
          plan->StreamEvents(&projected_src, &projected_out, &stats);
      PretokSource full_src(buf.view());
      StringSink full_out;
      Status full = full_plan->StreamEvents(&full_src, &full_out);
      EXPECT_EQ(projected.ToString(), full.ToString()) << id << " " << what;
      EXPECT_EQ(projected_out.str(), full_out.str()) << id << " " << what;
      return stats.subtrees_skipped;
    };
    EXPECT_GT(run_both(bytes, "whole"), 0u) << id;
    for (std::size_t n = 0; n < bytes.size(); ++n) {
      run_both(std::string_view(bytes).substr(0, n),
               "truncated at " + std::to_string(n));
    }
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::string bad = bytes;
      bad[i] = static_cast<char>(0x03);
      run_both(bad, "byte " + std::to_string(i) + " corrupted");
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: engine output is byte-identical under text and pretok input
// (and both match the reference interpreter) across the Figure 3 corpus.
// ---------------------------------------------------------------------------

Forest RandomForest(Rng* rng, int depth) {
  Forest f;
  int width = static_cast<int>(rng->Below(4));
  for (int i = 0; i < width; ++i) {
    if (depth > 0 && rng->Chance(3, 5)) {
      f.push_back(Tree::Element(
          std::string(1, static_cast<char>('a' + rng->Below(4))),
          RandomForest(rng, depth - 1)));
    } else if (f.empty() || f.back().kind != NodeKind::kText) {
      f.push_back(Tree::Text("t" + std::to_string(rng->Below(5))));
    }
  }
  return f;
}

class PretokEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PretokEquivalence, PretokMatchesTextStreaming) {
  const auto& [id, seed] = GetParam();
  const BenchQuery& bq = QueryById(id);
  auto cq = CompiledPlan::Compile(bq.text).ValueOrDie();

  Rng rng(static_cast<std::uint64_t>(seed) * 40009 + 11);
  Forest doc;
  doc.push_back(Tree::Element("site", RandomForest(&rng, 4)));
  std::string xml = ForestToXml(doc);

  StringSink text_out;
  ASSERT_TRUE(cq->StreamString(xml, &text_out).ok()) << bq.id;

  std::string bytes = Tokenize(xml);
  PretokSource pretok(bytes);
  StringSink pretok_out;
  ASSERT_TRUE(cq->StreamEvents(&pretok, &pretok_out).ok()) << bq.id;

  EXPECT_EQ(pretok_out.str(), text_out.str()) << bq.id;

  // Both agree with the non-streaming reference evaluation.
  StringSink expected;
  Forest ref = std::move(RunMft(cq->mft(), doc).ValueOrDie());
  EmitForest(ref, &expected);
  EXPECT_EQ(text_out.str(), expected.str()) << bq.id << " (reference)";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PretokEquivalence,
    ::testing::Combine(::testing::Values("q01", "q02", "q04", "q13", "q16",
                                         "q17", "double", "fourstar",
                                         "deepdup"),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<PretokEquivalence::ParamType>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace xqmft
