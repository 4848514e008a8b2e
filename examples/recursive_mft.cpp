// MFTs are strictly more expressive than the XQuery fragment: Section 1
// notes that one can translate a query and then extend the transducer with
// recursive definitions, or write recursive MFT programs directly. This
// example hand-writes two such transducers in the textual rule syntax and
// streams documents through them:
//
//   1. `mirror` — reverses the order of every node's children using an
//      accumulating parameter (not expressible in MinXQuery: the fragment
//      has no order reversal);
//   2. `toc` — a table of contents: keeps section structure, drops
//      paragraph content, and numbers nesting by wrapping in <level>.
#include <cstdio>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "util/strings.h"
#include "xml/events.h"

using namespace xqmft;

int main() {
  // Children are accumulated in reverse through parameter y1: classic
  // accumulator recursion (the deaccumulation literature's motivating
  // example, Section 3 of [15] in the paper's references).
  const char* mirror_rules =
      "q0(%) -> rev(x0, eps)\n"
      "rev(%t(x1)x2, y1) -> rev(x2, %t(rev(x1, eps)) y1)\n"
      "rev(eps, y1) -> y1\n";

  const char* toc_rules =
      "q0(%) -> toc(x0)\n"
      "toc(section(x1)x2) -> level(title(gettitle(x1)) toc(x1)) toc(x2)\n"
      "toc(%t(x1)x2) -> toc(x2)\n"
      "toc(eps) -> eps\n"
      "gettitle(title(x1)x2) -> copy(x1)\n"
      "gettitle(%t(x1)x2) -> gettitle(x2)\n"
      "gettitle(eps) -> eps\n"
      "copy(%t(x1)x2) -> %t(copy(x1)) copy(x2)\n"
      "copy(eps) -> eps\n";

  struct Demo {
    const char* name;
    const char* rules;
    const char* input;
  } demos[] = {
      {"mirror", mirror_rules, "<r><a>1</a><b>2</b><c><d/><e/></c></r>"},
      {"toc", toc_rules,
       "<doc><section><title>Intro</title><p>text</p>"
       "<section><title>Background</title><p>more</p></section></section>"
       "<section><title>Results</title></section></doc>"},
  };

  for (const Demo& demo : demos) {
    Result<Mft> mft = ParseMft(demo.rules);
    if (!mft.ok()) {
      std::fprintf(stderr, "%s: %s\n", demo.name,
                   mft.status().ToString().c_str());
      return 1;
    }
    Result<std::shared_ptr<const CompiledPlan>> plan =
        CompiledPlan::FromMft(mft.value());
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: %s\n", demo.name,
                   plan.status().ToString().c_str());
      return 1;
    }
    StringSink sink;
    StreamStats stats;
    Status st = plan.value()->StreamString(demo.input, &sink, &stats);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", demo.name, st.ToString().c_str());
      return 1;
    }
    std::printf("%s:\n  rules:\n", demo.name);
    std::printf("%s", mft.value().ToString().c_str());
    std::printf("  input:  %s\n  output: %s   (peak %s)\n\n", demo.input,
                sink.str().c_str(), HumanBytes(stats.peak_bytes).c_str());
  }
  return 0;
}
