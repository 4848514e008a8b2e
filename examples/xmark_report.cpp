// Runs the XMark benchmark queries over a generated auction-site document,
// comparing the streaming MFT pipeline with the GCX-like baseline — a
// miniature of the paper's Section 5 evaluation.
//
//   ./xmark_report [megabytes]    (default 2 MB)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "gcx/gcx_engine.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

using namespace xqmft;

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t mb = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 2;
  Result<std::string> path =
      EnsureDataset(DatasetKind::kXmark, mb * 1024 * 1024);
  if (!path.ok()) {
    std::fprintf(stderr, "dataset error: %s\n",
                 path.status().ToString().c_str());
    return 1;
  }
  std::printf("XMark-like dataset: %s (%zu MB target)\n\n",
              path.value().c_str(), mb);
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "query", "mft time",
              "mft memory", "gcx time", "gcx memory", "output");

  for (const BenchQuery& bq : Figure3Queries()) {
    auto plan = CompiledPlan::Compile(bq.text);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: %s\n", bq.id,
                   plan.status().ToString().c_str());
      return 1;
    }
    CountingSink mft_sink;
    StreamStats mft_stats;
    auto t0 = std::chrono::steady_clock::now();
    Status st = plan.value()->StreamFile(path.value(), &mft_sink, &mft_stats);
    auto t1 = std::chrono::steady_clock::now();
    if (!st.ok()) {
      std::fprintf(stderr, "%s (mft): %s\n", bq.id, st.ToString().c_str());
      return 1;
    }

    std::string gcx_time = "N/A", gcx_mem = "N/A";
    auto query = std::move(ParseQuery(bq.text).ValueOrDie());
    if (bq.gcx_supported) {
      auto gq = GcxQuery::Compile(*query);
      if (gq.ok()) {
        CountingSink gcx_sink;
        GcxStats gcx_stats;
        auto src = std::move(FileSource::Open(path.value()).ValueOrDie());
        auto t2 = std::chrono::steady_clock::now();
        Status gst = gq.value()->Run(src.get(), &gcx_sink, {}, &gcx_stats);
        auto t3 = std::chrono::steady_clock::now();
        if (gst.ok()) {
          gcx_time = StrFormat("%.3fs", Seconds(t2, t3));
          gcx_mem = HumanBytes(gcx_stats.peak_bytes);
        } else {
          gcx_time = "FAIL";
        }
      }
    }
    std::printf("%-10s %11.3fs %12s %12s %12s %9zu\n", bq.id, Seconds(t0, t1),
                HumanBytes(mft_stats.peak_bytes).c_str(), gcx_time.c_str(),
                gcx_mem.c_str(), mft_sink.elements() + mft_sink.texts());
  }
  return 0;
}
