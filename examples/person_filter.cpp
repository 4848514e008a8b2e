// The paper's Section 2.2 walkthrough, end to end: the Pperson query with
// an XPath predicate and a let-binding, its translated transducer before
// and after optimization, and the two worked inputs (including the
// else-branch input where the first p_id fails the filter and the scan
// resumes through q3's second parameter).
#include <cstdio>

#include "core/pipeline.h"
#include "util/strings.h"
#include "xml/events.h"

using namespace xqmft;

int main() {
  const char* query =
      "<out>{ for $b in $input/person[./p_id/text() = \"person0\"] "
      "return let $r := $b/name/text() return $r }</out>";

  std::printf("Pperson (Section 2.2):\n  %s\n\n", query);

  PipelineOptions raw_options;
  raw_options.optimize = false;
  auto raw = CompiledPlan::Compile(query, raw_options).ValueOrDie();
  auto opt = CompiledPlan::Compile(query).ValueOrDie();

  std::printf("translated MFT (unoptimized, %d states, size %zu)\n",
              raw->mft().num_states(), raw->mft().Size());
  std::printf("optimized MFT (%d states, size %zu):\n%s\n",
              opt->mft().num_states(), opt->mft().Size(),
              opt->mft().ToString().c_str());
  std::printf("optimizer report:\n%s\n\n",
              opt->optimize_report().ToString().c_str());

  const char* inputs[] = {
      // The filter matches the first p_id: both names are selected.
      "<person><p_id><a/>person0</p_id><name>Jim</name><c/>"
      "<name>Li</name></person>",
      // "perso7" fails; the second p_id matches: the paper's else-branch.
      "<person><p_id><a/>perso7</p_id><name>Jim</name><c/>"
      "<p_id>person0</p_id></person>",
      // No match at all.
      "<person><p_id>nobody</p_id><name>Jim</name></person>",
  };
  for (const char* doc : inputs) {
    StringSink sink;
    StreamStats stats;
    Status st = opt->StreamString(doc, &sink, &stats);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("input:  %s\noutput: %s   (peak %s)\n\n", doc,
                sink.str().c_str(), HumanBytes(stats.peak_bytes).c_str());
  }
  return 0;
}
