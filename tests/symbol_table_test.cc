// Tests for the interned-symbol table: intern/lookup round-trips, id
// density and stability, the element/text namespace split, copy semantics,
// snapshot truncation (the serving loop's reset-to-base), and the SAX
// parser's id threading.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/sax_parser.h"
#include "xml/symbol_table.h"

namespace xqmft {
namespace {

TEST(SymbolTableTest, InternLookupRoundTrip) {
  SymbolTable t;
  SymbolId a = t.Intern(NodeKind::kElement, "a");
  SymbolId b = t.Intern(NodeKind::kElement, "b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.name(a), "a");
  EXPECT_EQ(t.name(b), "b");
  EXPECT_EQ(t.kind(a), NodeKind::kElement);
  EXPECT_EQ(t.Find(NodeKind::kElement, "a"), a);
  EXPECT_EQ(t.Find(NodeKind::kElement, "b"), b);
  EXPECT_EQ(t.Find(NodeKind::kElement, "zzz"), kInvalidSymbol);
  EXPECT_EQ(t.symbol(a), Symbol::Element("a"));
}

TEST(SymbolTableTest, IdsAreDenseAndStable) {
  SymbolTable t;
  SymbolId a = t.Intern(NodeKind::kElement, "a");
  SymbolId b = t.Intern(NodeKind::kElement, "b");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(t.size(), 2u);
  // Re-interning yields the same id; no entry is created.
  EXPECT_EQ(t.Intern(NodeKind::kElement, "a"), a);
  EXPECT_EQ(t.size(), 2u);
  // Ids survive arbitrary later growth (bucket rehashing included).
  for (int i = 0; i < 1000; ++i) {
    t.Intern(NodeKind::kElement, "sym" + std::to_string(i));
  }
  EXPECT_EQ(t.Intern(NodeKind::kElement, "a"), a);
  EXPECT_EQ(t.Intern(NodeKind::kElement, "b"), b);
  EXPECT_EQ(t.name(a), "a");
  EXPECT_EQ(t.size(), 1002u);
  // Dense: every id below size() resolves.
  for (SymbolId id = 0; id < t.size(); ++id) {
    EXPECT_EQ(t.Find(t.kind(id), t.name(id)), id);
  }
}

TEST(SymbolTableTest, ElementAndTextNamespacesAreSeparate) {
  SymbolTable t;
  SymbolId el = t.Intern(NodeKind::kElement, "x");
  SymbolId tx = t.Intern(NodeKind::kText, "x");
  EXPECT_NE(el, tx);
  EXPECT_EQ(t.kind(el), NodeKind::kElement);
  EXPECT_EQ(t.kind(tx), NodeKind::kText);
  EXPECT_EQ(t.Find(NodeKind::kElement, "x"), el);
  EXPECT_EQ(t.Find(NodeKind::kText, "x"), tx);
}

TEST(SymbolTableTest, CopyKeepsIdsAndGrowsIndependently) {
  SymbolTable t;
  SymbolId a = t.Intern(NodeKind::kElement, "a");
  SymbolTable copy = t;
  EXPECT_EQ(copy.Find(NodeKind::kElement, "a"), a);
  SymbolId b = copy.Intern(NodeKind::kElement, "b");
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(t.size(), 1u);  // the original is untouched
  EXPECT_EQ(t.Find(NodeKind::kElement, "b"), kInvalidSymbol);
  EXPECT_EQ(copy.name(b), "b");
}

TEST(SymbolTableTest, ParserThreadsIdsThroughEvents) {
  SymbolTable t;
  StringSource src("<a><b/>hi</a><a/>");
  SaxParser parser(&src, {}, &t);
  std::vector<XmlEvent> events;
  XmlEvent ev;
  do {
    ASSERT_TRUE(parser.Next(&ev).ok());
    events.push_back(ev);
  } while (ev.type != XmlEventType::kEndOfDocument);

  ASSERT_EQ(events.size(), 8u);
  SymbolId a = t.Find(NodeKind::kElement, "a");
  SymbolId b = t.Find(NodeKind::kElement, "b");
  ASSERT_NE(a, kInvalidSymbol);
  ASSERT_NE(b, kInvalidSymbol);
  EXPECT_EQ(events[0].symbol, a);  // <a>
  EXPECT_EQ(events[1].symbol, b);  // <b/>
  EXPECT_EQ(events[2].symbol, b);  // </b> (id from the open stack)
  EXPECT_EQ(events[3].type, XmlEventType::kText);
  EXPECT_EQ(events[3].symbol, kInvalidSymbol);  // content is not interned
  EXPECT_EQ(events[4].symbol, a);  // </a>
  EXPECT_EQ(events[5].symbol, a);  // <a/> reuses the id
  // Names stay populated for non-hot-path consumers.
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  // Two distinct element names => exactly two interned symbols.
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTableTest, ParserOwnsTableWhenNoneSupplied) {
  StringSource src("<root/>");
  SaxParser parser(&src);
  XmlEvent ev;
  ASSERT_TRUE(parser.Next(&ev).ok());
  EXPECT_EQ(parser.symbols().name(ev.symbol), "root");
}

}  // namespace
}  // namespace xqmft
