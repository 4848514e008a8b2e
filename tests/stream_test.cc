// Tests for the streaming MFT engine: cell lifecycle, output equivalence
// with the reference interpreter over the whole query corpus, bounded-memory
// behaviour for optimized transducers (vs. the input-retaining unoptimized
// ones), and incremental emission.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench_common/queries.h"
#include "mft/interp.h"
#include "mft/mft.h"
#include "mft/optimize.h"
#include "plan_util.h"
#include "stream/cells.h"
#include "stream/engine.h"
#include "translate/translate.h"
#include "util/rng.h"
#include "xml/forest.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

namespace xqmft {
namespace {

Mft MustParseMft(const std::string& text) {
  Result<Mft> r = ParseMft(text);
  if (!r.ok()) ADD_FAILURE() << "ParseMft: " << r.status().ToString();
  return std::move(r).ValueOrDie();
}

std::string StreamToMarkup(const Mft& mft, const std::string& xml,
                           StreamStats* stats = nullptr) {
  StringSink sink;
  Status st = StreamMftString(mft, xml, &sink, {}, stats);
  if (!st.ok()) {
    ADD_FAILURE() << "StreamMftString: " << st.ToString();
    return "";
  }
  return sink.str();
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

TEST(CellTest, BuilderRevealsForestIncrementally) {
  MemoryTracker tracker;
  CellArena arena(&tracker);
  SymbolTable symbols;
  CellBuilder builder(&arena, &symbols);
  IntrusivePtr<Cell> root = builder.TakeRoot();
  EXPECT_EQ(root->state(), CellState::kPending);

  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";  // no interned id: the builder interns via its table
  ASSERT_TRUE(builder.Feed(ev).ok());
  EXPECT_EQ(root->state(), CellState::kNode);
  EXPECT_EQ(symbols.name(root->symbol()), "a");
  EXPECT_EQ(symbols.kind(root->symbol()), NodeKind::kElement);
  EXPECT_EQ(root->child()->state(), CellState::kPending);
  EXPECT_EQ(root->sibling()->state(), CellState::kPending);

  ev.type = XmlEventType::kText;
  ev.text = "hi";
  ASSERT_TRUE(builder.Feed(ev).ok());
  EXPECT_EQ(root->child()->state(), CellState::kNode);
  EXPECT_EQ(root->child()->kind(), NodeKind::kText);
  EXPECT_EQ(root->child()->text(), "hi");
  EXPECT_EQ(root->child()->symbol(), kInvalidSymbol);
  EXPECT_EQ(root->child()->child()->state(), CellState::kEps);

  ev.type = XmlEventType::kEndElement;
  ev.name = "a";
  ASSERT_TRUE(builder.Feed(ev).ok());
  EXPECT_EQ(root->child()->sibling()->state(), CellState::kEps);

  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(builder.Feed(ev).ok());
  EXPECT_EQ(root->sibling()->state(), CellState::kEps);
  EXPECT_TRUE(builder.done());
  EXPECT_EQ(builder.cells_created(), 5u);
}

TEST(CellTest, RefcountsFreeDroppedPrefix) {
  MemoryTracker tracker;
  CellArena arena(&tracker);
  SymbolTable symbols;
  auto builder = std::make_unique<CellBuilder>(&arena, &symbols);
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "a";
  ASSERT_TRUE(builder->Feed(ev).ok());
  ev.type = XmlEventType::kEndElement;
  ASSERT_TRUE(builder->Feed(ev).ok());
  ev.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(builder->Feed(ev).ok());
  std::size_t with_cells = tracker.current_bytes();
  EXPECT_GT(with_cells, 0u);
  builder.reset();  // releases the root reference
  EXPECT_EQ(tracker.current_bytes(), 0u);
}

TEST(CellTest, TrackerAccountingIsSymmetricUnderChurn) {
  // Regression: cell destruction used to release std::string SSO capacity
  // that was never charged, so node churn drained the tracker while data
  // stayed retained — churn-heavy runs reported peaks orders of magnitude
  // below the truly live bytes (the pre-PR3 Figure 4 memory numbers).
  MemoryTracker tracker;
  CellArena arena(&tracker);
  SymbolTable symbols;
  CellBuilder builder(&arena, &symbols);
  IntrusivePtr<Cell> root = builder.TakeRoot();
  XmlEvent ev;
  ev.type = XmlEventType::kStartElement;
  ev.name = "r";
  ASSERT_TRUE(builder.Feed(ev).ok());
  ev.type = XmlEventType::kText;
  ev.text = "retained content";
  ASSERT_TRUE(builder.Feed(ev).ok());
  const std::size_t base = tracker.current_bytes();
  ASSERT_GT(base, 0u);
  // Nodes created and destroyed while the base stays retained must leave
  // the tracked total exactly where it was — element, text, and eps alike.
  for (int i = 0; i < 1000; ++i) {
    IntrusivePtr<Cell> churn_element(arena.slab.New(&arena));
    churn_element->FillElement(root->symbol(), {}, {});
    IntrusivePtr<Cell> churn_text(arena.slab.New(&arena));
    churn_text->FillText(RefString::Copy("spinning", &tracker), {}, {});
    IntrusivePtr<Cell> churn_eps(arena.slab.New(&arena));
    churn_eps->FillEps();
  }
  EXPECT_EQ(tracker.current_bytes(), base);
}

TEST(CellTest, UnbalancedEventsRejected) {
  MemoryTracker tracker;
  CellArena arena(&tracker);
  SymbolTable symbols;
  CellBuilder builder(&arena, &symbols);
  XmlEvent ev;
  ev.type = XmlEventType::kEndElement;
  EXPECT_FALSE(builder.Feed(ev).ok());
}

// ---------------------------------------------------------------------------
// Engine basics
// ---------------------------------------------------------------------------

TEST(StreamEngineTest, CopyTransducerRoundTrips) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  const char* xml = "<a><b x=\"1\">t</b><c/>tail</a>";
  // Streaming the copy transducer reproduces the (attribute-encoded) input.
  EXPECT_EQ(StreamToMarkup(m, xml),
            "<a><b><x>1</x>t</b><c></c>tail</a>");
}

TEST(StreamEngineTest, MatchesInterpreterOnMperson) {
  Mft m = MustParseMft(R"(
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
)");
  const char* xml =
      "<person><p_id><a/>person0</p_id><name>Jim</name><c/>"
      "<name>Li</name></person>";
  EXPECT_EQ(StreamToMarkup(m, xml), "<out>JimLi</out>");
}

TEST(StreamEngineTest, StepBudgetCatchesDivergence) {
  Mft m = MustParseMft(
      "q(%t(x1)x2) -> q(x2)\n"
      "q(eps) -> q(x0)\n");
  StreamOptions opts;
  opts.max_steps = 10'000;
  StringSink sink;
  Status st = StreamMftString(m, "<a/>", &sink, opts);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(StreamEngineTest, MalformedInputSurfacesParserError) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  StringSink sink;
  Status st = StreamMftString(m, "<a><b></a>", &sink);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(StreamEngineTest, SharedParameterEvaluatedOnce) {
  // y1 is used twice; with call-by-need the scan behind it runs once.
  Mft m = MustParseMft(
      "q0(%) -> q(x0, count(x0))\n"
      "q(%, y1) -> w(y1) w(y1)\n"
      "count(%t(x1)x2) -> n count(x2)\n"
      "count(eps) -> eps\n");
  StreamStats stats;
  EXPECT_EQ(StreamToMarkup(m, "<a/><a/>", &stats),
            "<w><n></n><n></n></w><w><n></n><n></n></w>");
  // 1 (q0) + 1 (q) + 3 (count on two nodes + eps) — not 6 counts.
  EXPECT_LE(stats.rule_applications, 6u);
}

// ---------------------------------------------------------------------------
// Equivalence with the reference interpreter over the query corpus
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

class StreamEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StreamEquivalence, StreamingMatchesInterpreter) {
  const auto& [id, seed] = GetParam();
  const BenchQuery& bq = QueryById(id);
  auto query = std::move(ParseQuery(bq.text).ValueOrDie());
  Mft raw = std::move(TranslateQuery(*query).ValueOrDie());
  Mft opt = OptimizeMft(raw);

  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 7);
  Forest doc;
  doc.push_back(Tree::Element("site", RandomForest(&rng, 4)));
  std::string xml = ForestToXml(doc);

  Forest expected = std::move(RunMft(raw, doc)).ValueOrDie();
  StringSink expected_sink;
  EmitForest(expected, &expected_sink);
  EXPECT_EQ(StreamToMarkup(raw, xml), expected_sink.str()) << bq.id;
  EXPECT_EQ(StreamToMarkup(opt, xml), expected_sink.str())
      << bq.id << " (optimized)";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, StreamEquivalence,
    ::testing::Combine(::testing::Values("q01", "q02", "q04", "q13", "q16",
                                         "q17", "double", "fourstar",
                                         "deepdup"),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<StreamEquivalence::ParamType>& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Memory behaviour (the heart of Figure 4)
// ---------------------------------------------------------------------------

// A flat forest of n <person> records; every 7th (i % 7 == 3) matches the
// Pperson filter. Persons are top-level so that $input/person selects them.
std::string PersonDoc(int n) {
  std::string xml;
  for (int i = 0; i < n; ++i) {
    xml += "<person><p_id>person" + std::to_string(i % 7 == 3 ? 0 : i + 1) +
           "</p_id><name>n" + std::to_string(i) + "</name></person>";
  }
  return xml;
}

TEST(StreamMemoryTest, OptimizedSelectionRunsInBoundedMemory) {
  auto query = std::move(ParseQuery(kPersonQuery).ValueOrDie());
  Mft raw = std::move(TranslateQuery(*query).ValueOrDie());
  Mft opt = OptimizeMft(raw);

  StreamStats small_stats, large_stats;
  StringSink s1, s2;
  ASSERT_TRUE(
      StreamMftString(opt, PersonDoc(50), &s1, {}, &small_stats).ok());
  ASSERT_TRUE(
      StreamMftString(opt, PersonDoc(1600), &s2, {}, &large_stats).ok());
  // 32x more input; peak memory must stay flat (well under 3x).
  EXPECT_LT(large_stats.peak_bytes, small_stats.peak_bytes * 3)
      << "small=" << small_stats.peak_bytes
      << " large=" << large_stats.peak_bytes;
}

TEST(StreamMemoryTest, UnoptimizedTransducerBuffersTheInput) {
  // The raw translation retains qcopy($input) for the unused $input
  // parameter, so memory grows linearly — the paper's "MFT (no opt)" curves.
  auto query = std::move(ParseQuery(kPersonQuery).ValueOrDie());
  Mft raw = std::move(TranslateQuery(*query).ValueOrDie());

  StreamStats small_stats, large_stats;
  StringSink s1, s2;
  ASSERT_TRUE(
      StreamMftString(raw, PersonDoc(50), &s1, {}, &small_stats).ok());
  ASSERT_TRUE(
      StreamMftString(raw, PersonDoc(1600), &s2, {}, &large_stats).ok());
  // 32x more input; the unoptimized engine must show clear growth.
  EXPECT_GT(large_stats.peak_bytes, small_stats.peak_bytes * 8)
      << "small=" << small_stats.peak_bytes
      << " large=" << large_stats.peak_bytes;
}

TEST(StreamMemoryTest, DoubleQueryMustBufferByDesign) {
  // <double> copies the input twice: the second copy forces buffering, so
  // even the optimized transducer uses memory linear in the input — but it
  // must still complete (GCX reportedly fails here; Section 5).
  auto query =
      std::move(ParseQuery(QueryById("double").text).ValueOrDie());
  Mft opt = OptimizeMft(std::move(TranslateQuery(*query).ValueOrDie()));

  StreamStats small_stats, large_stats;
  StringSink s1, s2;
  ASSERT_TRUE(
      StreamMftString(opt, PersonDoc(50), &s1, {}, &small_stats).ok());
  ASSERT_TRUE(
      StreamMftString(opt, PersonDoc(800), &s2, {}, &large_stats).ok());
  EXPECT_GT(large_stats.peak_bytes, small_stats.peak_bytes * 4);
}

TEST(StreamMemoryTest, IncrementalEmissionStartsEarly) {
  // For a streamable query, the first output must appear long before the
  // whole input has been read.
  auto query = std::move(ParseQuery(kPersonQuery).ValueOrDie());
  Mft opt = OptimizeMft(std::move(TranslateQuery(*query).ValueOrDie()));
  std::string xml = PersonDoc(2000);
  StreamStats stats;
  StringSink sink;
  ASSERT_TRUE(StreamMftString(opt, xml, &sink, {}, &stats).ok());
  EXPECT_GT(sink.str().size(), 0u);
  EXPECT_LT(stats.bytes_in_at_first_output, xml.size() / 10)
      << "first output after " << stats.bytes_in_at_first_output << " of "
      << xml.size() << " bytes";
}

TEST(StreamMemoryTest, VeryDeepDocumentsStreamInLinearTime) {
  // Table 1 notes depth matters; the engine must handle nesting far beyond
  // any stack budget (iterative WHNF + flattened destructor chains) and in
  // linear time (the blocked-position resume; a naive per-event re-walk of
  // the Cat spine would be quadratic in depth).
  auto query = std::move(ParseQuery("<out>{$input//a/text()}</out>").ValueOrDie());
  Mft opt = OptimizeMft(std::move(TranslateQuery(*query).ValueOrDie()));
  const int depth = 50000;
  std::string xml;
  xml.reserve(static_cast<std::size_t>(depth) * 7 + 16);
  for (int i = 0; i < depth; ++i) xml += "<a>";
  xml += "x";
  for (int i = 0; i < depth; ++i) xml += "</a>";
  StringSink sink;
  StreamStats stats;
  Status st = StreamMftString(opt, xml, &sink, {}, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink.str(), "<out>x</out>");
  // Linear work: a small constant number of rule applications per level.
  EXPECT_LT(stats.rule_applications, static_cast<std::uint64_t>(depth) * 8);
}

TEST(StreamMemoryTest, StatsArePopulated) {
  Mft m = MustParseMft(
      "qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\nqcopy(eps) -> eps\n");
  // The copy transducer is lowerable, so the default (auto) selection runs
  // the ops engine: its cell traffic is arena-served consumer records, and
  // the refcounted cell/expr counters stay at zero.
  StreamStats stats;
  StringSink sink;
  ASSERT_TRUE(StreamMftString(m, "<a><b/>t</a>", &sink, {}, &stats).ok());
  EXPECT_TRUE(stats.used_ops_engine);
  EXPECT_GT(stats.cells_arena, 0u);
  EXPECT_EQ(stats.cells_created, 0u);
  EXPECT_EQ(stats.exprs_created, 0u);
  EXPECT_GT(stats.rule_applications, 0u);
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_EQ(stats.bytes_in, std::string("<a><b/>t</a>").size());
  EXPECT_EQ(stats.output_events, 5u);  // <a>, <b>, </b>, t, </a>

  // Pinning the table machine restores the thunk-graph accounting — and the
  // output bytes must not depend on the engine.
  StreamOptions table;
  table.engine = EngineChoice::kTable;
  StreamStats tstats;
  StringSink tsink;
  ASSERT_TRUE(StreamMftString(m, "<a><b/>t</a>", &tsink, table, &tstats).ok());
  EXPECT_FALSE(tstats.used_ops_engine);
  EXPECT_EQ(tstats.cells_arena, 0u);
  EXPECT_GT(tstats.cells_created, 0u);
  EXPECT_GT(tstats.exprs_created, 0u);
  EXPECT_EQ(tsink.str(), sink.str());
}

}  // namespace
}  // namespace xqmft
