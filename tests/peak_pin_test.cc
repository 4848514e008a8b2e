// Pins the tracked-memory peak of every Figure 3 query on a seeded 1 MiB
// XMark document: the streaming engine with and without the Section 4.1
// optimizations, and the GCX baseline. Figure 4 judges the engine by time
// and peak memory; tracked peaks are deterministic, so each is pinned
// within a factor of 1.1 in either direction. A drop fails too: a pin that
// no longer matches the code cannot catch the next regression.
//
// The pretok replay and the document-set (StreamMany) series run the same
// optimized plan over the same events, so their peaks must equal the
// optimized pin exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "gcx/gcx_engine.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

namespace xqmft {
namespace {

// A peak may differ from its pin by at most this factor, up or down: 10%
// above the pin, or about 9% below it.
constexpr double kMaxFactor = 1.10;

// Peak tracked bytes per query. `gcx` is 0 where GCX has no cell (q04 uses
// following-sibling, Figure 4(c)).
struct Pin {
  const char* id;
  std::size_t opt;
  std::size_t noopt;
  std::size_t gcx;
};

constexpr Pin kPins[] = {
    // id          opt       noopt       gcx
    {"q01",       1158,     919582,      364},
    {"q02",        831,     501993,      920},
    {"q04",       1373,    7230353,        0},
    {"q13",       1936,      93241,      506},
    {"q16",       1811,    1157105,     1011},
    {"q17",       1198,     780766,      382},
    {"double",  5304302,   7231889, 13010163},
    {"fourstar",  10810,   7233225,     1233},
    {"deepdup", 1969811,  12368113,  4336721},
};

const std::string& Document() {
  static const std::string* doc = new std::string(
      GenerateDatasetString(DatasetKind::kXmark, 1 << 20, 7).ValueOrDie());
  return *doc;
}

void ExpectPinned(const std::string& cell, std::size_t pin,
                  std::size_t peak) {
  double hi = static_cast<double>(std::max(pin, peak));
  double lo = static_cast<double>(std::min(pin, peak));
  EXPECT_LE(hi, lo * kMaxFactor)
      << cell << ": peak_bytes " << peak << " moved "
      << StrFormat("%+.1f%%", (static_cast<double>(peak) - pin) * 100 / pin)
      << " from its pin " << pin
      << " (limit: a factor of 1.1 either way). If the change is "
      << "intended, re-pin " << cell << " in kPins of tests/peak_pin_test.cc.";
}

std::shared_ptr<const CompiledPlan> MustCompile(const char* text,
                                                bool optimize) {
  PipelineOptions options;
  options.optimize = optimize;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(text, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? plan.value() : nullptr;
}

std::size_t StreamPeak(const CompiledPlan& plan) {
  CountingSink sink;
  StreamStats stats;
  Status st = plan.StreamString(Document(), &sink, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return stats.peak_bytes;
}

TEST(PeakPinTest, CoversEveryFigure3Query) {
  ASSERT_EQ(std::size(kPins), Figure3Queries().size());
  for (const Pin& pin : kPins) {
    EXPECT_EQ(QueryById(pin.id).gcx_supported, pin.gcx != 0) << pin.id;
  }
}

TEST(PeakPinTest, OptimizedStreamPeaks) {
  for (const Pin& pin : kPins) {
    auto plan = MustCompile(QueryById(pin.id).text, true);
    ASSERT_NE(plan, nullptr) << pin.id;
    ExpectPinned(std::string(pin.id) + " opt", pin.opt, StreamPeak(*plan));
  }
}

TEST(PeakPinTest, UnoptimizedStreamPeaks) {
  for (const Pin& pin : kPins) {
    auto plan = MustCompile(QueryById(pin.id).text, false);
    ASSERT_NE(plan, nullptr) << pin.id;
    ExpectPinned(std::string(pin.id) + " noopt", pin.noopt,
                 StreamPeak(*plan));
  }
}

TEST(PeakPinTest, PretokAndDocumentSetPeaksMatchTheOptimizedRun) {
  StringSource src(Document());
  std::string pretok;
  ASSERT_TRUE(PretokenizeXml(&src, SaxOptions{}, &pretok).ok());
  std::vector<ParallelInput> docset(4, ParallelInput::XmlText(Document()));
  ParallelOptions par;
  par.threads = 4;
  for (const Pin& pin : kPins) {
    auto plan = MustCompile(QueryById(pin.id).text, true);
    ASSERT_NE(plan, nullptr) << pin.id;
    std::size_t opt = StreamPeak(*plan);

    PretokSource events(pretok);
    CountingSink sink;
    StreamStats stats;
    ASSERT_TRUE(plan->StreamEvents(&events, &sink, &stats).ok()) << pin.id;
    EXPECT_EQ(stats.peak_bytes, opt) << pin.id << " pretok";

    std::vector<StreamStats> items;
    ASSERT_TRUE(plan->StreamMany(docset, &sink, par, &items).ok()) << pin.id;
    for (const StreamStats& item : items) {
      EXPECT_EQ(item.peak_bytes, opt) << pin.id << " docset";
    }
  }
}

TEST(PeakPinTest, GcxPeaks) {
  for (const Pin& pin : kPins) {
    if (!QueryById(pin.id).gcx_supported) continue;
    Result<std::unique_ptr<QueryExpr>> query =
        ParseQuery(QueryById(pin.id).text);
    ASSERT_TRUE(query.ok()) << pin.id;
    Result<std::unique_ptr<GcxQuery>> gcx = GcxQuery::Compile(*query.value());
    ASSERT_TRUE(gcx.ok()) << pin.id << ": " << gcx.status().ToString();
    StringSource src(Document());
    CountingSink sink;
    GcxStats stats;
    ASSERT_TRUE(gcx.value()->Run(&src, &sink, GcxOptions{}, &stats).ok())
        << pin.id;
    ExpectPinned(std::string(pin.id) + " gcx", pin.gcx, stats.peak_bytes);
  }
}

}  // namespace
}  // namespace xqmft
