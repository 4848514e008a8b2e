// Quickstart: compile a MinXQuery program and stream a document through it.
//
//   ./quickstart                      # built-in query + document
//   ./quickstart '<out>{$input//a}</out>' file.xml
//
// Demonstrates the whole public pipeline: parse -> translate (Section 3)
// -> optimize (Section 4.1) -> stream (Nakano-Mu engine).
#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "util/strings.h"
#include "xml/events.h"

using namespace xqmft;

int main(int argc, char** argv) {
  std::string query_text =
      argc > 1 ? argv[1]
               : "<report>{ for $p in $input/people/person[./age/text()=\"42\"] "
                 "return <hit>{$p/name/text()}</hit> }</report>";

  Result<std::shared_ptr<const CompiledPlan>> compiled =
      CompiledPlan::Compile(query_text);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const CompiledPlan& plan = *compiled.value();

  std::printf("query:\n  %s\n\n", query_text.c_str());
  std::printf("optimizer: %s\n\n",
              plan.optimize_report().ToString().c_str());
  std::printf("transducer (%d states, size %zu):\n%s\n",
              plan.mft().num_states(), plan.mft().Size(),
              plan.mft().ToString().c_str());

  StringSink sink;
  StreamStats stats;
  Status st;
  if (argc > 2) {
    st = plan.StreamFile(argv[2], &sink, &stats);
  } else {
    const char* doc =
        "<people>"
        "<person><name>Ada</name><age>42</age></person>"
        "<person><name>Bob</name><age>17</age></person>"
        "<person><name>Cy</name><age>42</age></person>"
        "</people>";
    std::printf("document:\n  %s\n\n", doc);
    st = plan.StreamString(doc, &sink, &stats);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "stream error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("output:\n  %s\n\n", sink.str().c_str());
  std::printf(
      "stats: %zu bytes in, %zu output events, peak memory %s, "
      "%llu rule applications, %llu cells + %llu exprs created\n",
      stats.bytes_in, stats.output_events,
      HumanBytes(stats.peak_bytes).c_str(),
      static_cast<unsigned long long>(stats.rule_applications),
      static_cast<unsigned long long>(stats.cells_created),
      static_cast<unsigned long long>(stats.exprs_created));
  return 0;
}
