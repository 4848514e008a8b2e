// Tests for the grammar-compressed output sink (Section 6 future work):
// hash-consing, compression ratios on repetitive outputs, and the headline
// property — the doubling transducer's exponential output stays linear as a
// DAG.
#include <gtest/gtest.h>

#include <string>

#include "mft/mft.h"
#include "plan_util.h"
#include "stream/dag_sink.h"
#include "stream/engine.h"
#include "xml/forest.h"

namespace xqmft {
namespace {

TEST(DagSinkTest, DistinctTreesGetDistinctRules) {
  DagSink sink;
  sink.StartElement("a");
  sink.Text("x");
  sink.EndElement("a");
  sink.StartElement("b");
  sink.EndElement("b");
  EXPECT_EQ(sink.total_nodes(), 3u);
  EXPECT_EQ(sink.unique_nodes(), 3u);  // "x", a("x"), b()
  ASSERT_EQ(sink.roots().size(), 2u);
  EXPECT_EQ(sink.Expand(sink.roots()[0]), "<a>x</a>");
  EXPECT_EQ(sink.Expand(sink.roots()[1]), "<b></b>");
}

TEST(DagSinkTest, IdenticalSubtreesShare) {
  DagSink sink;
  for (int i = 0; i < 10; ++i) {
    sink.StartElement("item");
    sink.StartElement("name");
    sink.Text("same");
    sink.EndElement("name");
    sink.EndElement("item");
  }
  EXPECT_EQ(sink.total_nodes(), 30u);
  EXPECT_EQ(sink.unique_nodes(), 3u);  // "same", name, item
  EXPECT_DOUBLE_EQ(sink.CompressionRatio(), 10.0);
  EXPECT_EQ(sink.roots().size(), 10u);
  EXPECT_EQ(sink.roots()[0], sink.roots()[9]);
}

TEST(DagSinkTest, GrammarRendering) {
  DagSink sink;
  sink.StartElement("a");
  sink.Text("t");
  sink.EndElement("a");
  std::string g = sink.GrammarToString();
  EXPECT_NE(g.find("#0 = \"t\""), std::string::npos);
  EXPECT_NE(g.find("#1 = a(#0)"), std::string::npos);
  EXPECT_NE(g.find("roots: #1"), std::string::npos);
}

// Section 4.2's doubling FT: n input nodes -> 2^n output leaves; the DAG
// stays linear in n (the Section 6 claim this sink implements).
TEST(DagSinkTest, ExponentialOutputCompressesToLinearDag) {
  Mft dbl = std::move(ParseMft("q(a(x1)x2) -> q(x2) q(x2)\n"
                               "q(%t(x1)x2) -> q(x2)\n"
                               "q(eps) -> a\n")
                          .ValueOrDie());
  const int n = 18;
  std::string xml;
  for (int i = 0; i < n; ++i) xml += "<a/>";

  DagSink sink;
  Status st = StreamMftString(dbl, xml, &sink);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink.total_nodes(), 1u << n);  // 262144 unfolded leaves
  EXPECT_EQ(sink.unique_nodes(), 1u);      // all identical
  EXPECT_GT(sink.CompressionRatio(), 100000.0);
}

TEST(DagSinkTest, MixedContentRoundTripsThroughExpand) {
  DagSink sink;
  Mft copy = std::move(ParseMft("qcopy(%t(x1)x2) -> %t(qcopy(x1)) qcopy(x2)\n"
                                "qcopy(eps) -> eps\n")
                           .ValueOrDie());
  const char* xml = "<r><a>1</a><a>1</a><b>2</b></r>";
  ASSERT_TRUE(StreamMftString(copy, xml, &sink).ok());
  ASSERT_EQ(sink.roots().size(), 1u);
  EXPECT_EQ(sink.Expand(sink.roots()[0]),
            "<r><a>1</a><a>1</a><b>2</b></r>");
  // 7 unfolded nodes (r, 2x a, 2x "1", b, "2"); the two identical <a>1</a>
  // subtrees share rules, leaving 5: "1", a("1"), "2", b("2"), r(...).
  EXPECT_EQ(sink.total_nodes(), 7u);
  EXPECT_EQ(sink.unique_nodes(), 5u);
}

}  // namespace
}  // namespace xqmft
