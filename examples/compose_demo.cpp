// Deforestation by transducer composition (Section 4.2).
//
// Two pipelined transformations normally materialize an intermediate
// document. Both stages here are forest transducers (FTs) — the first two
// derived from MinXQuery queries that satisfy Theorem 2, so their optimized
// transducers are parameterless — and the paper's Theorem 3/4 machinery
// composes them into a single transducer that streams the input once, with
// no intermediate forest.
#include <cstdio>

#include "compose/compose.h"
#include "core/pipeline.h"
#include "mft/interp.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

using namespace xqmft;

int main() {
  // Stage 1: restructure — wrap every region item's name into a catalog row.
  const char* stage1 =
      "<catalog>{ for $i in $input/site/regions/australia/item "
      "return <row><name>{$i/name/text()}</name></row> }</catalog>";
  // Stage 2: select — keep only the names, flattening the rows.
  const char* stage2 = "<names>{$input/catalog/row/name}</names>";

  auto cq1 = CompiledPlan::Compile(stage1).ValueOrDie();
  auto cq2 = CompiledPlan::Compile(stage2).ValueOrDie();
  const Mft& m1 = cq1->mft();
  const Mft& m2 = cq2->mft();
  std::printf("stage 1 optimized to an FT: %s (size %zu)\n",
              m1.IsForestTransducer() ? "yes" : "no", m1.Size());
  std::printf("stage 2 optimized to an FT: %s (size %zu)\n",
              m2.IsForestTransducer() ? "yes" : "no", m2.Size());

  Result<Mft> composed = ComposeForestFts(m1, m2);
  if (!composed.ok()) {
    std::fprintf(stderr, "composition failed: %s\n",
                 composed.status().ToString().c_str());
    return 1;
  }
  std::printf("composed MFT: %d states, size %zu (parameters: %zu)\n\n",
              composed.value().num_states(), composed.value().Size(),
              composed.value().TotalParams());

  const char* doc =
      "<site><regions><australia>"
      "<item><name>opal</name><price>10</price></item>"
      "<item><name>boomerang</name></item>"
      "</australia></regions></site>";

  // Two-pass pipeline.
  StringSink intermediate;
  if (!cq1->StreamString(doc, &intermediate).ok()) return 1;
  StringSink two_pass;
  if (!cq2->StreamString(intermediate.str(), &two_pass).ok()) return 1;

  // One-pass composed transducer.
  Result<std::shared_ptr<const CompiledPlan>> one_plan =
      CompiledPlan::FromMft(std::move(composed).value());
  if (!one_plan.ok()) {
    std::fprintf(stderr, "composed MFT rejected: %s\n",
                 one_plan.status().ToString().c_str());
    return 1;
  }
  StringSink one_pass;
  StreamStats stats;
  Status st = one_plan.value()->StreamString(doc, &one_pass, &stats);
  if (!st.ok()) {
    std::fprintf(stderr, "stream failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("input:        %s\n", doc);
  std::printf("intermediate: %s\n", intermediate.str().c_str());
  std::printf("two-pass:     %s\n", two_pass.str().c_str());
  std::printf("one-pass:     %s   (peak %s)\n", one_pass.str().c_str(),
              HumanBytes(stats.peak_bytes).c_str());
  std::printf("outputs agree: %s\n",
              two_pass.str() == one_pass.str() ? "yes" : "NO");
  return two_pass.str() == one_pass.str() ? 0 : 1;
}
