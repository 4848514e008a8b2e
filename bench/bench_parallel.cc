// Scaling curves for document-set parallelism (Run over src/parallel/'s
// worker pool).
//
// Two series, each swept over a thread count list so the scaling curve is
// one filter away:
//
//   docset/<q>/xmark_<M>MBx<K>/threads:<N>
//       K copies of one XMark file streamed as a work queue across N
//       workers, text-XML input (parse + transform per item). threads:1 is
//       the serial baseline of the speedup column.
//   docset_pretok/<q>/xmark_<M>MBx<K>/threads:<N>
//       the same document set served from pretok event caches: the
//       parse-free serving shape, where the pool shows its best scaling
//       (tokenization is not re-paid per item).
//
// Environment knobs:
//   XQMFT_BENCH_PAR_SIZE_MB       per-document XMark size (default 1)
//   XQMFT_BENCH_PAR_ITEMS         documents per set (default 8)
//   XQMFT_BENCH_PAR_QUERY        query id (default q01)
//   XQMFT_BENCH_PAR_THREADS_LIST comma list of thread counts ("1,2,4,8")
//
// Note: wall-clock speedup needs real cores. On a single-CPU host the
// curves degenerate to flat (the differential suite still proves the
// outputs identical); the >1.5x-at-4-threads acceptance point is measured
// on a multicore host.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/pretok.h"

namespace xqmft {
namespace {

std::vector<std::size_t> ThreadList() {
  const char* env = std::getenv("XQMFT_BENCH_PAR_THREADS_LIST");
  std::string spec = env != nullptr ? env : "1,2,4,8";
  std::vector<std::size_t> out;
  for (const std::string& part : SplitString(spec, ',')) {
    long n = std::atol(part.c_str());
    if (n > 0) out.push_back(static_cast<std::size_t>(n));
  }
  if (out.empty()) out.push_back(1);
  return out;
}

// Tokenizes the dataset once next to its XML file (same cache the Fig-4
// mft_pretok series uses).
Result<std::string> EnsurePretok(const std::string& xml_path) {
  std::string ptk = xml_path + ".ptk";
  if (PretokCacheValid(ptk, xml_path)) return ptk;
  XQMFT_RETURN_NOT_OK(PretokenizeXmlFile(xml_path, ptk));
  return ptk;
}

struct ParConfig {
  const BenchQuery* query;
  std::string xml_path;
  std::size_t items;
  std::size_t threads;
};

void ReportRun(benchmark::State& state, const std::vector<StreamStats>& stats,
               std::size_t threads, std::size_t total_source_bytes) {
  std::size_t out_events = 0, peak = 0;
  for (const StreamStats& s : stats) {
    out_events += s.output_events;
    if (s.peak_bytes > peak) peak = s.peak_bytes;
  }
  state.counters["peak_mem_B"] = static_cast<double>(peak);
  state.counters["out_events"] = static_cast<double>(out_events);
  state.counters["bytes_in"] = static_cast<double>(total_source_bytes);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetBytesProcessed(
      static_cast<int64_t>(total_source_bytes * state.iterations()));
}

void BenchDocset(benchmark::State& state, const ParConfig& cfg, bool pretok) {
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(cfg.query->text);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  std::string item_path = cfg.xml_path;
  if (pretok) {
    Result<std::string> ptk = EnsurePretok(cfg.xml_path);
    if (!ptk.ok()) {
      state.SkipWithError(ptk.status().ToString().c_str());
      return;
    }
    item_path = ptk.value();
  }
  std::vector<ParallelInput> inputs(
      cfg.items, pretok ? ParallelInput::PretokFile(item_path)
                        : ParallelInput::XmlFile(item_path));
  RunOptions par;
  par.threads = cfg.threads;
  std::vector<RunResult> results;
  for (auto _ : state) {
    CountingSink sink;
    Status st = Run({plan.value().get()}, inputs, {&sink}, par, &results);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  const std::vector<StreamStats>& stats = results.front().per_input;
  std::size_t bytes = 0;
  for (const StreamStats& s : stats) bytes += s.bytes_in;
  ReportRun(state, stats, cfg.threads, bytes);
}

void RegisterAll() {
  std::size_t size_bytes = EnvMb("XQMFT_BENCH_PAR_SIZE_MB", 1);
  std::size_t items = EnvCount("XQMFT_BENCH_PAR_ITEMS", 8);
  const char* qenv = std::getenv("XQMFT_BENCH_PAR_QUERY");
  const BenchQuery& bq = QueryById(qenv != nullptr ? qenv : "q01");

  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, size_bytes);
  if (!path.ok()) {
    std::fprintf(stderr, "bench_parallel: %s\n",
                 path.status().ToString().c_str());
    return;
  }
  std::size_t mb = size_bytes >> 20;
  for (std::size_t threads : ThreadList()) {
    ParConfig cfg{&bq, path.value(), items, threads};
    benchmark::RegisterBenchmark(
        StrFormat("docset/%s/xmark_%zuMBx%zu/threads:%zu", bq.id, mb, items,
                  threads)
            .c_str(),
        [cfg](benchmark::State& st) { BenchDocset(st, cfg, false); })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        StrFormat("docset_pretok/%s/xmark_%zuMBx%zu/threads:%zu", bq.id, mb,
                  items, threads)
            .c_str(),
        [cfg](benchmark::State& st) { BenchDocset(st, cfg, true); })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace
}  // namespace xqmft

int main(int argc, char** argv) {
  xqmft::RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
