// Tests for the parallel sharding layer: the serial-equivalence
// differential suite (parallel output byte-identical to the serial
// engine's, across the Figure 3 corpus, shard counts {1,2,3,4,8}, and both
// text and pretok input), the top-level forest splitter (a cut at *every*
// boundary reassembles the original event trace), and ordered-merge stress
// (out-of-order completion, mid-shard errors).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "event_trace_util.h"
#include "parallel/merge_sink.h"
#include "parallel/pretok_split.h"
#include "parallel/sharded_executor.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

constexpr std::size_t kShardCounts[] = {1, 2, 3, 4, 8};

std::string Tokenize(const std::string& xml, SaxOptions sax = {}) {
  StringSource src(xml);
  std::string out;
  Status st = PretokenizeXml(&src, sax, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

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

// A small document set: single-rooted documents of varying shape, the unit
// of document-set sharding.
std::vector<std::string> CorpusDocSet(int seed) {
  std::vector<std::string> docs;
  Rng rng(static_cast<std::uint64_t>(seed) * 90017 + 3);
  for (int d = 0; d < 5; ++d) {
    Forest doc;
    doc.push_back(Tree::Element("site", RandomForest(&rng, 4)));
    docs.push_back(ForestToXml(doc));
  }
  return docs;
}

// ---------------------------------------------------------------------------
// EventBuffer / OrderedMerge units
// ---------------------------------------------------------------------------

TEST(EventBufferTest, ReplaysRecordedEventsVerbatim) {
  EventBuffer buffer;
  buffer.StartElement("a");
  buffer.Text("x < y & z");
  buffer.StartElement("empty");
  buffer.EndElement("empty");
  buffer.Text("");
  buffer.EndElement("a");

  StringSink direct;
  direct.StartElement("a");
  direct.Text("x < y & z");
  direct.StartElement("empty");
  direct.EndElement("empty");
  direct.Text("");
  direct.EndElement("a");

  StringSink replayed;
  buffer.Replay(&replayed);
  EXPECT_EQ(replayed.str(), direct.str());
  EXPECT_FALSE(buffer.empty());
}

TEST(OrderedMergeTest, OutOfOrderCommitsFlushInInputOrder) {
  StringSink out;
  OrderedMerge merge(&out, 3);
  EventBuffer b2;
  b2.Text("2");
  merge.Commit(2, std::move(b2), Status::OK());
  EXPECT_EQ(out.str(), "");  // slot 0 still open
  EventBuffer b0;
  b0.Text("0");
  merge.Commit(0, std::move(b0), Status::OK());
  EXPECT_EQ(out.str(), "0");  // slot 1 still gates slot 2
  EventBuffer b1;
  b1.Text("1");
  merge.Commit(1, std::move(b1), Status::OK());
  EXPECT_EQ(out.str(), "012");
  EXPECT_TRUE(merge.Finish().ok());
}

TEST(OrderedMergeTest, ErrorGatesDownstreamAndBecomesRunStatus) {
  StringSink out;
  OrderedMerge merge(&out, 3);
  EventBuffer b1;
  b1.Text("partial");
  merge.Commit(1, std::move(b1), Status::Internal("shard 1 died"));
  EventBuffer b2;
  b2.Text("2");
  merge.Commit(2, std::move(b2), Status::OK());
  EventBuffer b0;
  b0.Text("0");
  merge.Commit(0, std::move(b0), Status::OK());
  // The OK prefix before the failure flushes; nothing at or after it does.
  EXPECT_EQ(out.str(), "0");
  EXPECT_EQ(merge.first_failed(), 1u);
  Status st = merge.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shard 1 died"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ShardedExecutor stress: out-of-order completion, errors, cancellation
// ---------------------------------------------------------------------------

TEST(ShardedExecutorTest, InjectedDelaysStillEmitInInputOrder) {
  // Workers finishing out of order (later items sleep less) must not change
  // the output order.
  constexpr std::size_t kItems = 16;
  std::string expected;
  for (std::size_t i = 0; i < kItems; ++i) {
    expected += "<item" + std::to_string(i) + "></item" + std::to_string(i) +
                ">";
  }
  for (std::size_t threads : {2u, 4u, 8u}) {
    StringSink out;
    Status st = ShardedExecutor::Run(
        kItems,
        [](std::size_t i, OutputSink* sink) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds((kItems - i) % 5));
          std::string name = "item" + std::to_string(i);
          sink->StartElement(name);
          sink->EndElement(name);
          return Status::OK();
        },
        &out, threads);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.str(), expected) << "threads=" << threads;
  }
}

TEST(ShardedExecutorTest, MidShardErrorSurfacesWithoutDeadlock) {
  constexpr std::size_t kItems = 16;
  constexpr std::size_t kFailing = 7;
  StringSink out;
  Status st = ShardedExecutor::Run(
      kItems,
      [](std::size_t i, OutputSink* sink) -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(i % 3));
        sink->Text("i" + std::to_string(i) + ";");
        if (i == kFailing) {
          return Status::ResourceExhausted("engine error in item 7");
        }
        return Status::OK();
      },
      &out, /*threads=*/4);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("item 7"), std::string::npos);
  // Downstream holds an in-order prefix of the successful items before the
  // failure: "i0;i1;...i{j-1};" for some j <= kFailing.
  std::string prefix;
  bool matched = false;
  for (std::size_t j = 0; j <= kFailing; ++j) {
    if (out.str() == prefix) {
      matched = true;
      break;
    }
    prefix += "i" + std::to_string(j) + ";";
  }
  EXPECT_TRUE(matched) << "unexpected downstream output: " << out.str();
}

TEST(ShardedExecutorTest, FirstErrorInInputOrderWins) {
  // Two failing items: the run's status must be the lower-index one
  // whenever both committed (with cancellation the higher may be skipped,
  // but the reported error is never the higher while the lower committed).
  StringSink out;
  Status st = ShardedExecutor::Run(
      4,
      [](std::size_t i, OutputSink*) -> Status {
        if (i == 1) {
          // Give the other worker time to reach item 2 first.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return Status::Internal("error in item 1");
        }
        if (i == 2) return Status::Internal("error in item 2");
        return Status::OK();
      },
      &out, /*threads=*/2);
  ASSERT_FALSE(st.ok());
  // The run reports exactly one of the two item errors (the lowest-index
  // committed one; which items committed depends on cancellation timing).
  bool is1 = st.message().find("error in item 1") != std::string::npos;
  bool is2 = st.message().find("error in item 2") != std::string::npos;
  EXPECT_TRUE(is1 != is2) << st.ToString();
}

TEST(ShardedExecutorTest, SerialPathStagesFailingItemOutput) {
  // threads = 1 takes the no-thread fast path, but the error contract must
  // not change: a failing item's partial output never reaches the sink.
  StringSink out;
  Status st = ShardedExecutor::Run(
      3,
      [](std::size_t i, OutputSink* sink) -> Status {
        sink->Text("i" + std::to_string(i) + ";");
        if (i == 1) return Status::Internal("item 1 failed mid-output");
        return Status::OK();
      },
      &out, /*threads=*/1);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("item 1"), std::string::npos);
  EXPECT_EQ(out.str(), "i0;");  // item 1's partial "i1;" must not leak
}

TEST(ShardedExecutorTest, ZeroItemsIsANoOp) {
  StringSink out;
  Status st = ShardedExecutor::Run(
      0, [](std::size_t, OutputSink*) { return Status::OK(); }, &out, {});
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(out.str(), "");
}

TEST(ShardedExecutorTest, WorkerCountIsCapped) {
  // A request may ask for any thread count; the pool never grows past
  // max(hardware threads, 64). Each item sleeps so that an uncapped pool
  // would run the items on (nearly) as many distinct threads as it has.
  constexpr std::size_t kItems = 200;
  std::mutex mu;
  std::set<std::thread::id> ids;
  ShardedExecutor::ForEach(kItems, kItems, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return true;
  });
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_LE(ids.size(), std::max<std::size_t>(64, hw));
  EXPECT_GT(ids.size(), 1u);
}

// ---------------------------------------------------------------------------
// Serial-equivalence differential suite: document-set sharding
// ---------------------------------------------------------------------------

class ParallelCorpusEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelCorpusEquivalence, DocumentSetMatchesSerialTextAndPretok) {
  const BenchQuery& bq = QueryById(GetParam());
  auto cq = CompiledPlan::Compile(bq.text).ValueOrDie();
  std::vector<std::string> docs = CorpusDocSet(/*seed=*/17);

  // Serial baseline: the documents streamed one after another into one
  // sink, text input.
  StringSink serial;
  std::vector<ParallelInput> text_inputs;
  std::vector<ParallelInput> pretok_inputs;
  for (const std::string& xml : docs) {
    ASSERT_TRUE(cq->StreamString(xml, &serial).ok()) << bq.id;
    text_inputs.push_back(ParallelInput::XmlText(xml));
    pretok_inputs.push_back(ParallelInput::PretokBytes(Tokenize(xml)));
  }

  for (std::size_t threads : kShardCounts) {
    RunOptions par;
    par.threads = threads;
    StringSink text_out;
    Status st = xqmft::Run({cq.get()}, text_inputs, {&text_out}, par);
    ASSERT_TRUE(st.ok()) << bq.id << " " << st.ToString();
    EXPECT_EQ(text_out.str(), serial.str())
        << bq.id << " text threads=" << threads;

    StringSink pretok_out;
    std::vector<RunResult> results;
    st = xqmft::Run({cq.get()}, pretok_inputs, {&pretok_out}, par, &results);
    ASSERT_TRUE(st.ok()) << bq.id << " " << st.ToString();
    EXPECT_EQ(pretok_out.str(), serial.str())
        << bq.id << " pretok threads=" << threads;
    const std::vector<StreamStats>& stats = results.front().per_input;
    ASSERT_EQ(stats.size(), docs.size());
    for (const StreamStats& s : stats) EXPECT_GT(s.bytes_in, 0u);
  }
}

// ---------------------------------------------------------------------------
// Serial-equivalence differential suite: single-document sharding
// ---------------------------------------------------------------------------

TEST_P(ParallelCorpusEquivalence, SingleRootedShardingMatchesSerial) {
  // Every XML *document* is single-rooted: however many shards are
  // requested, the split finds one top-level tree and the output must be
  // byte-identical to the serial engine over the whole stream.
  const BenchQuery& bq = QueryById(GetParam());
  auto cq = CompiledPlan::Compile(bq.text).ValueOrDie();
  Rng rng(4242);
  Forest doc;
  doc.push_back(Tree::Element("site", RandomForest(&rng, 4)));
  std::string bytes = Tokenize(ForestToXml(doc));

  PretokSource serial_src(bytes);
  StringSink serial;
  ASSERT_TRUE(cq->StreamEvents(&serial_src, &serial).ok()) << bq.id;

  for (std::size_t shards : kShardCounts) {
    RunOptions par;
    par.threads = shards;
    StringSink out;
    Status st = cq->StreamShardedPretok(bytes, shards, &out, par);
    ASSERT_TRUE(st.ok()) << bq.id << " " << st.ToString();
    EXPECT_EQ(out.str(), serial.str()) << bq.id << " shards=" << shards;
  }
}

TEST_P(ParallelCorpusEquivalence, MultiTreeShardingMatchesSerialShardRuns) {
  // A multi-tree forest genuinely splits. The contract: each shard's trees
  // evaluate as an independent forest document, outputs concatenated in
  // input order — byte-identical to running the same shards through the
  // serial engine one by one, for any thread count.
  const BenchQuery& bq = QueryById(GetParam());
  auto cq = CompiledPlan::Compile(bq.text).ValueOrDie();
  Rng rng(987);
  Forest forest;
  for (int t = 0; t < 7; ++t) {
    forest.push_back(Tree::Element("site", RandomForest(&rng, 3)));
  }
  std::string bytes = Tokenize(ForestToXml(forest));

  for (std::size_t shards : kShardCounts) {
    Result<PretokShardPlan> plan = PlanPretokShards(bytes, shards);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    // Serial oracle: the same shard decomposition, one engine at a time.
    StringSink serial;
    for (std::size_t i = 0; i < plan.value().shards.size(); ++i) {
      PretokShardSource src(&plan.value(), i);
      ASSERT_TRUE(cq->StreamEvents(&src, &serial).ok()) << bq.id;
    }

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      RunOptions par;
      par.threads = threads;
      StringSink out;
      Status st = cq->StreamShardedPretok(bytes, shards, &out, par);
      ASSERT_TRUE(st.ok()) << bq.id << " " << st.ToString();
      EXPECT_EQ(out.str(), serial.str())
          << bq.id << " shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ParallelPipelineTest, DefaultShardCountIsMachineIndependent) {
  // shards = 0 must split at every top-level boundary, not at the worker
  // count: on a multi-tree forest the decomposition shapes the output, so
  // it may depend only on the input. Same bytes, different thread counts
  // => byte-identical output, equal to an explicit one-shard-per-tree run.
  auto cq = CompiledPlan::Compile("<out>{ $input/a }</out>").ValueOrDie();
  std::string bytes = Tokenize("<a>1</a><a>2</a><a>3</a><a>4</a>");

  StringSink per_tree;
  ASSERT_TRUE(cq->StreamShardedPretok(bytes, 4, &per_tree).ok());

  for (std::size_t threads : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
    RunOptions par;
    par.threads = threads;
    StringSink out;
    ASSERT_TRUE(cq->StreamShardedPretok(bytes, /*shards=*/0, &out, par).ok());
    EXPECT_EQ(out.str(), per_tree.str()) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelCorpusEquivalence,
                         ::testing::Values("q01", "q02", "q04", "q13", "q16",
                                           "q17", "double", "fourstar",
                                           "deepdup"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// ---------------------------------------------------------------------------
// Splitter unit suite
// ---------------------------------------------------------------------------

std::vector<TracedEvent> TraceSource(EventSource* src) {
  Result<std::vector<TracedEvent>> out = Trace(src);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::move(out.value()) : std::vector<TracedEvent>{};
}

// Forest with repeated names across trees (so later shards need the prefix
// dictionary) and top-level text trees between elements.
std::string SplitterForestXml() {
  return "<a><x>one</x></a>"
         "top"
         "<b><x>two</x><y/></b>"
         "<a>three</a>"
         "mid"
         "<c><z><x>four</x></z></c>"
         "<b/>";
}

TEST(PretokSplitTest, CutAtEveryTopLevelBoundaryReassemblesTheTrace) {
  std::string bytes = Tokenize(SplitterForestXml());

  PretokSource whole(bytes);
  std::vector<TracedEvent> full = TraceSource(&whole);

  // max_shards far beyond the tree count: one shard per top-level tree.
  Result<PretokShardPlan> plan = PlanPretokShards(bytes, 64);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().total_trees, 7u);
  ASSERT_EQ(plan.value().shards.size(), 7u);

  std::vector<TracedEvent> reassembled;
  for (std::size_t i = 0; i < plan.value().shards.size(); ++i) {
    EXPECT_EQ(plan.value().shards[i].trees, 1u);
    PretokShardSource src(&plan.value(), i);
    std::vector<TracedEvent> shard_trace = TraceSource(&src);
    ASSERT_FALSE(shard_trace.empty());
    EXPECT_EQ(shard_trace.back().type, XmlEventType::kEndOfDocument);
    shard_trace.pop_back();  // per-shard eod is synthetic
    reassembled.insert(reassembled.end(), shard_trace.begin(),
                       shard_trace.end());
  }
  reassembled.push_back({XmlEventType::kEndOfDocument, "", ""});
  EXPECT_EQ(reassembled, full);
}

TEST(PretokSplitTest, EveryShardCountReassemblesTheTrace) {
  std::string bytes = Tokenize(SplitterForestXml());
  PretokSource whole(bytes);
  std::vector<TracedEvent> full = TraceSource(&whole);

  for (std::size_t shards = 1; shards <= 9; ++shards) {
    Result<PretokShardPlan> plan = PlanPretokShards(bytes, shards);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PretokShardPlan& p = plan.value();
    EXPECT_EQ(p.shards.size(), shards < 7 ? shards : 7u);

    // Shards tile the record region contiguously and cover every tree.
    std::size_t trees = 0;
    for (std::size_t i = 0; i < p.shards.size(); ++i) {
      trees += p.shards[i].trees;
      if (i > 0) {
        EXPECT_EQ(p.shards[i].begin, p.shards[i - 1].end);
        EXPECT_GE(p.shards[i].defs_before, p.shards[i - 1].defs_before);
      }
    }
    EXPECT_EQ(trees, p.total_trees);

    std::vector<TracedEvent> reassembled;
    for (std::size_t i = 0; i < p.shards.size(); ++i) {
      PretokShardSource src(&p, i);
      std::vector<TracedEvent> shard_trace = TraceSource(&src);
      shard_trace.pop_back();
      reassembled.insert(reassembled.end(), shard_trace.begin(),
                         shard_trace.end());
    }
    reassembled.push_back({XmlEventType::kEndOfDocument, "", ""});
    EXPECT_EQ(reassembled, full) << "shards=" << shards;
  }
}

TEST(PretokSplitTest, ShardsResolvePrefixDefinitionsIntoConsumerTable) {
  std::string bytes = Tokenize(SplitterForestXml());
  Result<PretokShardPlan> plan = PlanPretokShards(bytes, 64);
  ASSERT_TRUE(plan.ok());
  const PretokShardPlan& p = plan.value();
  // Tree 3 (<a>three</a>) starts after a/x/b/y were defined; its shard must
  // resolve "a" through the prefix dictionary, into the *bound* table.
  const PretokShard& s3 = p.shards[3];
  EXPECT_GT(s3.defs_before, 0u);
  SymbolTable table;
  SymbolId zebra = table.Intern(NodeKind::kElement, "zebra");
  PretokShardSource src(&p, 3);
  src.BindSymbols(&table);
  XmlEvent ev;
  ASSERT_TRUE(src.Next(&ev).ok());
  EXPECT_EQ(ev.type, XmlEventType::kStartElement);
  EXPECT_EQ(ev.name, "a");
  EXPECT_EQ(ev.symbol, table.Find(NodeKind::kElement, "a"));
  EXPECT_NE(ev.symbol, zebra);
}

TEST(PretokSplitTest, EmptyForestYieldsOneEmptyShard) {
  // An empty event stream (header + eod): one engine must still run — the
  // initial state's epsilon rule can produce output on empty input.
  std::string bytes;
  PretokWriter writer(&bytes);
  XmlEvent eod;
  eod.type = XmlEventType::kEndOfDocument;
  ASSERT_TRUE(writer.Feed(eod).ok());

  Result<PretokShardPlan> plan = PlanPretokShards(bytes, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().shards.size(), 1u);
  EXPECT_EQ(plan.value().total_trees, 0u);

  PretokShardSource src(&plan.value(), 0);
  XmlEvent ev;
  ASSERT_TRUE(src.Next(&ev).ok());
  EXPECT_EQ(ev.type, XmlEventType::kEndOfDocument);

  // The constant query still emits its constant output once.
  auto cq = CompiledPlan::Compile("<out>{ $input/none }</out>").ValueOrDie();
  StringSink out;
  ASSERT_TRUE(cq->StreamShardedPretok(bytes, 4, &out).ok());
  EXPECT_EQ(out.str(), "<out></out>");
}

TEST(PretokSplitTest, RejectsMalformedStreams) {
  EXPECT_FALSE(PlanPretokShards("garbage", 2).ok());
  std::string bytes = Tokenize("<a><b>t</b></a>");
  std::string truncated = bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(PlanPretokShards(truncated, 2).ok());
  EXPECT_TRUE(PlanPretokShards(bytes, 2).ok());
}

// ---------------------------------------------------------------------------
// Document-set error handling end to end
// ---------------------------------------------------------------------------

TEST(RunTest, MissingInputSurfacesAsRunError) {
  auto cq = CompiledPlan::Compile("<out>{ $input/a }</out>").ValueOrDie();
  std::vector<ParallelInput> inputs;
  inputs.push_back(ParallelInput::XmlText("<a>1</a>"));
  inputs.push_back(ParallelInput::XmlFile("/nonexistent/xqmft.xml"));
  inputs.push_back(ParallelInput::XmlText("<a>3</a>"));
  RunOptions par;
  par.threads = 2;
  StringSink out;
  Status st = xqmft::Run({cq.get()}, inputs, {&out}, par);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("/nonexistent/xqmft.xml"), std::string::npos);
}

TEST(RunTest, MalformedDocumentAmongManySurfacesItsError) {
  auto cq = CompiledPlan::Compile("<out>{ $input/a }</out>").ValueOrDie();
  std::vector<ParallelInput> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(ParallelInput::XmlText("<a>ok</a>"));
  }
  inputs.push_back(ParallelInput::XmlText("<a><unclosed></a>"));
  RunOptions par;
  par.threads = 4;
  StringSink out;
  Status st = xqmft::Run({cq.get()}, inputs, {&out}, par);
  ASSERT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// Run ≡ serial: K plans × M inputs × worker counts
// ---------------------------------------------------------------------------

constexpr const char* kRunPlanIds[] = {"q01", "q13", "deepdup"};

// One document of a Run test: its text, and the input that carries it.
struct RunDoc {
  std::string xml;
  ParallelInput input;
};

// XMark documents of `bytes` each, cycling through the four input kinds
// (text and pretok, file and in-memory) from `first_kind` on.
std::vector<RunDoc> RunDocs(const std::vector<std::size_t>& bytes,
                            int first_kind) {
  std::vector<RunDoc> docs;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    Result<std::string> xml =
        GenerateDatasetString(DatasetKind::kXmark, bytes[i], 11 + i);
    EXPECT_TRUE(xml.ok()) << xml.status().ToString();
    const std::string path = ::testing::TempDir() + "/xqmft_run_" +
                             std::to_string(first_kind) + "_" +
                             std::to_string(i);
    RunDoc doc{xml.value(), {}};
    switch ((first_kind + i) % 4) {
      case 0:
        std::ofstream(path + ".xml", std::ios::binary) << doc.xml;
        doc.input = ParallelInput::XmlFile(path + ".xml");
        break;
      case 1:
        doc.input = ParallelInput::PretokBytes(Tokenize(doc.xml));
        break;
      case 2:
        doc.input = ParallelInput::XmlText(doc.xml);
        break;
      default:
        EXPECT_TRUE(WritePretokFile(Tokenize(doc.xml), path + ".ptk").ok());
        doc.input = ParallelInput::PretokFile(path + ".ptk");
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

// The serial oracle: `docs` streamed one after another through `plan`, by
// StreamString for text inputs and StreamEvents for pretok ones.
std::string SerialRun(const CompiledPlan& plan,
                      const std::vector<RunDoc>& docs) {
  StringSink sink;
  for (const RunDoc& doc : docs) {
    Status st;
    if (doc.input.kind == ParallelInput::Kind::kXmlFile ||
        doc.input.kind == ParallelInput::Kind::kXmlText) {
      st = plan.StreamString(doc.xml, &sink);
    } else {
      const std::string pretok = Tokenize(doc.xml);
      PretokSource events(pretok);
      st = plan.StreamEvents(&events, &sink);
    }
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return sink.str();
}

std::vector<ParallelInput> InputsOf(const std::vector<RunDoc>& docs) {
  std::vector<ParallelInput> inputs;
  for (const RunDoc& doc : docs) inputs.push_back(doc.input);
  return inputs;
}

TEST(RunTest, EveryPlanMatchesItsSerialRunsAtAnyThreadCount) {
  std::vector<std::shared_ptr<const CompiledPlan>> all;
  for (const char* id : kRunPlanIds) {
    all.push_back(CompiledPlan::Compile(QueryById(id).text).ValueOrDie());
  }
  for (std::size_t m : {std::size_t{1}, std::size_t{3}}) {
    const std::vector<RunDoc> docs =
        m == 1 ? RunDocs({3000}, 3) : RunDocs({2000, 6000, 4000}, 0);
    for (std::size_t k = 1; k <= all.size(); ++k) {
      std::vector<const CompiledPlan*> plans;
      std::vector<std::string> want;
      for (std::size_t p = 0; p < k; ++p) {
        plans.push_back(all[p].get());
        want.push_back(SerialRun(*all[p], docs));
      }
      for (std::size_t threads : {1u, 2u, 4u}) {
        std::vector<StringSink> sinks(k);
        std::vector<OutputSink*> sink_ptrs;
        for (StringSink& sink : sinks) sink_ptrs.push_back(&sink);
        RunOptions options;
        options.threads = threads;
        std::vector<RunResult> results;
        MultiQueryStats stats;
        Status st = xqmft::Run(plans, InputsOf(docs), sink_ptrs, options,
                               &results, &stats);
        ASSERT_TRUE(st.ok()) << st.ToString();
        ASSERT_EQ(results.size(), k);
        EXPECT_EQ(stats.documents, m);
        for (std::size_t p = 0; p < k; ++p) {
          EXPECT_TRUE(results[p].status.ok()) << results[p].status.ToString();
          EXPECT_EQ(results[p].per_input.size(), m);
          EXPECT_EQ(sinks[p].str(), want[p])
              << "K=" << k << " M=" << m << " threads=" << threads
              << " plan=" << kRunPlanIds[p];
        }
      }
    }
  }
}

TEST(RunTest, StepBudgetTripKeepsEarlierInputsAndSiblingsComplete) {
  // Input 2 is far larger than the others. The budget covers the steps q01
  // takes on inputs 0, 1 and 3 in the same run shape (its siblings' union
  // projection decides which events its engine sees), so it trips on input
  // 2 only.
  const std::vector<RunDoc> docs = RunDocs({2000, 2500, 40000, 2000}, 1);
  const std::vector<ParallelInput> inputs = InputsOf(docs);
  auto q13 = CompiledPlan::Compile(QueryById("q13").text).ValueOrDie();
  auto deepdup =
      CompiledPlan::Compile(QueryById("deepdup").text).ValueOrDie();
  auto budgeted = [&](bool siblings) {
    auto free_plan =
        CompiledPlan::Compile(QueryById("q01").text).ValueOrDie();
    std::vector<const CompiledPlan*> plans = {free_plan.get()};
    if (siblings) plans = {q13.get(), free_plan.get(), deepdup.get()};
    std::vector<CountingSink> sinks(plans.size());
    std::vector<OutputSink*> sink_ptrs;
    for (CountingSink& sink : sinks) sink_ptrs.push_back(&sink);
    std::vector<RunResult> results;
    EXPECT_TRUE(xqmft::Run(plans, inputs, sink_ptrs, {}, &results).ok());
    const std::vector<StreamStats>& steps = results[siblings].per_input;
    PipelineOptions limited;
    limited.stream.max_steps =
        std::max({steps[0].rule_applications, steps[1].rule_applications,
                  steps[3].rule_applications});
    EXPECT_GT(steps[2].rule_applications, limited.stream.max_steps);
    return CompiledPlan::Compile(QueryById("q01").text, limited)
        .ValueOrDie();
  };
  auto plan = budgeted(/*siblings=*/true);
  auto lone_plan = budgeted(/*siblings=*/false);
  auto q01 = CompiledPlan::Compile(QueryById("q01").text).ValueOrDie();
  const std::string want_prefix = SerialRun(*q01, {docs[0], docs[1]});

  for (std::size_t threads : {1u, 2u, 4u}) {
    std::vector<StringSink> sinks(3);
    RunOptions options;
    options.threads = threads;
    std::vector<RunResult> results;
    Status st = xqmft::Run({q13.get(), plan.get(), deepdup.get()}, inputs,
                           {&sinks[0], &sinks[1], &sinks[2]}, options,
                           &results);
    ASSERT_TRUE(st.ok()) << st.ToString();  // one plan failed, not all
    EXPECT_EQ(results[1].status.code(), StatusCode::kResourceExhausted)
        << "threads=" << threads;
    EXPECT_EQ(results[1].per_input.size(), 3u);
    EXPECT_EQ(sinks[1].str(), want_prefix) << "threads=" << threads;
    EXPECT_TRUE(results[0].status.ok());
    EXPECT_TRUE(results[2].status.ok());
    EXPECT_EQ(sinks[0].str(), SerialRun(*q13, docs));
    EXPECT_EQ(sinks[2].str(), SerialRun(*deepdup, docs));

    // Without per-plan results the failure is the run's status.
    StringSink alone;
    EXPECT_EQ(xqmft::Run({lone_plan.get()}, inputs, {&alone}, options).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(alone.str(), want_prefix);
  }
}

// Cancels `token` at the first event it receives, forwarding to a
// StringSink.
class CancellingSink : public OutputSink {
 public:
  explicit CancellingSink(CancelToken* token) : token_(token) {}
  void StartElement(std::string_view name) override {
    token_->Cancel();
    out_.StartElement(name);
  }
  void EndElement(std::string_view name) override { out_.EndElement(name); }
  void Text(std::string_view content) override {
    token_->Cancel();
    out_.Text(content);
  }
  const std::string& str() const { return out_.str(); }

 private:
  CancelToken* token_;
  StringSink out_;
};

TEST(RunTest, RunLevelCancelAbortsEveryUnfinishedPlan) {
  const std::vector<RunDoc> docs = RunDocs({2000, 3000, 2500}, 2);
  std::vector<std::shared_ptr<const CompiledPlan>> owned;
  std::vector<const CompiledPlan*> plans;
  for (const char* id : kRunPlanIds) {
    owned.push_back(CompiledPlan::Compile(QueryById(id).text).ValueOrDie());
    plans.push_back(owned.back().get());
  }
  // Tripped before the run: no plan streams anything.
  for (std::size_t threads : {1u, 2u, 4u}) {
    CancelToken token;
    token.Cancel();
    RunOptions options;
    options.threads = threads;
    options.cancel = &token;
    std::vector<StringSink> sinks(3);
    std::vector<RunResult> results;
    Status st = xqmft::Run(plans, InputsOf(docs),
                           {&sinks[0], &sinks[1], &sinks[2]}, options,
                           &results);
    EXPECT_EQ(st.code(), StatusCode::kCancelled);
    for (std::size_t p = 0; p < plans.size(); ++p) {
      EXPECT_EQ(results[p].status.code(), StatusCode::kCancelled);
      EXPECT_EQ(sinks[p].str(), "");
    }
  }
  // Tripped once the first plan's first input reaches its sink: every plan
  // keeps exactly its input-0 output and fails on input 1.
  CancelToken token;
  RunOptions options;
  options.threads = 1;
  options.cancel = &token;
  CancellingSink first(&token);
  StringSink second, third;
  std::vector<RunResult> results;
  Status st = xqmft::Run(plans, InputsOf(docs), {&first, &second, &third},
                         options, &results);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(first.str(), SerialRun(*plans[0], {docs[0]}));
  EXPECT_EQ(second.str(), SerialRun(*plans[1], {docs[0]}));
  EXPECT_EQ(third.str(), SerialRun(*plans[2], {docs[0]}));
  for (const RunResult& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.per_input.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// ParallelInput dispatch: every kind through every entry point that opens one
// ---------------------------------------------------------------------------

TEST(ParallelInputTest, EveryKindMatchesStreamStringAndForeignPretokFails) {
  auto plan = CompiledPlan::Compile(
                  "<out>{ for $x in $input/r/a return <hit>{$x/text()}</hit> "
                  "}</out>")
                  .ValueOrDie();
  // Whitespace-only text between elements: a pretok stream that kept it
  // replays events this plan's tokenization never produces.
  const std::string xml = "<r>\n  <a>1</a> <b>x</b>\n  <a>2</a>\n</r>";
  StringSink want;
  ASSERT_TRUE(plan->StreamString(xml, &want).ok());
  ASSERT_EQ(want.str(), "<out><hit>1</hit><hit>2</hit></out>");

  SaxOptions keep_whitespace;
  keep_whitespace.skip_whitespace_text = false;
  const std::string pretok = Tokenize(xml);
  const std::string foreign = Tokenize(xml, keep_whitespace);
  const std::string dir = ::testing::TempDir();
  const std::string xml_path = dir + "/xqmft_input_kinds.xml";
  const std::string pretok_path = dir + "/xqmft_input_kinds.ptk";
  const std::string foreign_path = dir + "/xqmft_input_kinds_ws.ptk";
  std::ofstream(xml_path, std::ios::binary) << xml;
  ASSERT_TRUE(WritePretokFile(pretok, pretok_path).ok());
  ASSERT_TRUE(WritePretokFile(foreign, foreign_path).ok());

  struct Case {
    const char* name;
    ParallelInput input;
    bool ok;
  };
  const Case cases[] = {
      {"xml file", ParallelInput::XmlFile(xml_path), true},
      {"pretok file", ParallelInput::PretokFile(pretok_path), true},
      {"xml text", ParallelInput::XmlText(xml), true},
      {"pretok bytes", ParallelInput::PretokBytes(pretok), true},
      {"foreign pretok file", ParallelInput::PretokFile(foreign_path), false},
      {"foreign pretok bytes", ParallelInput::PretokBytes(foreign), false},
  };
  for (const Case& c : cases) {
    StringSink many;
    Status many_st = xqmft::Run({plan.get()}, {c.input}, {&many});
    // Two plans take the shared pass's master-table path.
    StringSink all, twin;
    Status all_st =
        xqmft::Run({plan.get(), plan.get()}, {c.input}, {&all, &twin});
    if (c.ok) {
      ASSERT_TRUE(many_st.ok()) << c.name << ": " << many_st.ToString();
      ASSERT_TRUE(all_st.ok()) << c.name << ": " << all_st.ToString();
      EXPECT_EQ(many.str(), want.str()) << c.name;
      EXPECT_EQ(all.str(), want.str()) << c.name;
      EXPECT_EQ(twin.str(), want.str()) << c.name;
    } else {
      EXPECT_EQ(many_st.code(), StatusCode::kInvalidArgument)
          << c.name << ": " << many_st.ToString();
      EXPECT_EQ(all_st.code(), StatusCode::kInvalidArgument)
          << c.name << ": " << all_st.ToString();
    }
  }

  // Single-document sharding checks the same header, in memory and on disk.
  StringSink sharded;
  ASSERT_TRUE(plan->StreamShardedPretok(pretok, 0, &sharded).ok());
  EXPECT_EQ(sharded.str(), want.str());
  StringSink rejected;
  EXPECT_EQ(plan->StreamShardedPretok(foreign, 0, &rejected).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plan->StreamShardedPretokFile(foreign_path, 0, &rejected).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xqmft
