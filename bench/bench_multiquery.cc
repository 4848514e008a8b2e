// Marginal cost per added query for single-pass multi-query execution
// (src/multiquery/), against the N-pass baseline it replaces.
//
//   multiquery/<N>q/xmark_<M>MB/proj_on
//       one shared pass: N Figure 3 plans fed from ONE tokenization of the
//       document, union projection automaton on (subtrees no plan can
//       match are skipped at the source). The headline series — its slope
//       over N is the marginal cost of an added query.
//   multiquery/<N>q/xmark_<M>MB/proj_off
//       the same pass with the skip automaton disabled: every engine sees
//       every event. The gap to proj_on is what projection buys; the gap
//       to npass is what sharing the parse buys.
//   npass/<N>q/xmark_<M>MB
//       the replaced baseline: N independent serial runs, each paying its
//       own tokenization of the same document.
//
// Queries are the first N of the Figure 3 corpus in order (q01, q02, q04,
// ...). N >= 3 therefore includes q04, whose following-sibling axis is
// unprojectable and disables the automaton for the whole run — the N=1,2
// points show projection on, the larger set sizes measure the
// shared-parse margin alone, and the proj_on/proj_off pair stays honest on
// both sides of the switch (the events_skipped counter says which side a
// point landed on).
//
// Environment knobs:
//   XQMFT_BENCH_MQ_SIZE_MB   XMark document size (default 1)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "util/strings.h"
#include "xml/events.h"

namespace xqmft {
namespace {

// The first `n` Figure 3 plans, compiled once outside the timed loop.
bool CompileFirst(std::size_t n,
                  std::vector<std::shared_ptr<const CompiledPlan>>* plans,
                  std::string* error) {
  const std::vector<BenchQuery>& corpus = Figure3Queries();
  for (std::size_t i = 0; i < n && i < corpus.size(); ++i) {
    auto plan = CompiledPlan::Compile(corpus[i].text);
    if (!plan.ok()) {
      *error = std::string(corpus[i].id) + ": " + plan.status().ToString();
      return false;
    }
    plans->push_back(std::move(plan).value());
  }
  return true;
}

void BenchMultiQuery(benchmark::State& state, const std::string& path,
                     std::size_t n, bool projection) {
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
  std::string error;
  if (!CompileFirst(n, &plans, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<const CompiledPlan*> raw;
  for (const auto& p : plans) raw.push_back(p.get());
  MultiQueryOptions multi;
  multi.union_projection = projection;

  std::vector<MultiPlanResult> results;
  MultiQueryStats run_stats;
  for (auto _ : state) {
    std::vector<CountingSink> sinks(n);
    std::vector<OutputSink*> sink_ptrs;
    for (CountingSink& s : sinks) sink_ptrs.push_back(&s);
    Status st = StreamAllTransformInput(raw, ParallelInput::XmlFile(path),
                                        sink_ptrs, multi, &results,
                                        &run_stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  std::size_t peak = 0, out_events = 0;
  for (const MultiPlanResult& r : results) {
    if (r.stats.peak_bytes > peak) peak = r.stats.peak_bytes;
    out_events += r.stats.output_events;
  }
  state.counters["peak_mem_B"] = static_cast<double>(peak);
  state.counters["out_events"] = static_cast<double>(out_events);
  state.counters["bytes_in"] = static_cast<double>(run_stats.bytes_in);
  state.counters["queries"] = static_cast<double>(n);
  state.counters["events_total"] =
      static_cast<double>(run_stats.events_total);
  state.counters["events_skipped"] =
      static_cast<double>(run_stats.events_skipped);
  // One tokenization per iteration whatever N is — the point of the series.
  state.SetBytesProcessed(
      static_cast<int64_t>(run_stats.bytes_in * state.iterations()));
}

void BenchNPass(benchmark::State& state, const std::string& path,
                std::size_t n) {
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
  std::string error;
  if (!CompileFirst(n, &plans, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::vector<ParallelInput> one_doc{ParallelInput::XmlFile(path)};
  ParallelOptions serial;
  serial.threads = 1;
  std::vector<StreamStats> stats;
  std::uint64_t bytes_per_iter = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    bytes_per_iter = 0;
    for (const auto& plan : plans) {
      CountingSink sink;
      Status st = plan->StreamMany(one_doc, &sink, serial, &stats);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      for (const StreamStats& s : stats) {
        bytes_per_iter += s.bytes_in;
        if (s.peak_bytes > peak) peak = s.peak_bytes;
      }
    }
  }
  state.counters["peak_mem_B"] = static_cast<double>(peak);
  state.counters["queries"] = static_cast<double>(n);
  // N tokenizations per iteration: the cost multi-query execution removes.
  state.SetBytesProcessed(
      static_cast<int64_t>(bytes_per_iter * state.iterations()));
}

void RegisterAll() {
  std::size_t size_bytes = EnvMb("XQMFT_BENCH_MQ_SIZE_MB", 1);
  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, size_bytes);
  if (!path.ok()) {
    std::fprintf(stderr, "bench_multiquery: %s\n",
                 path.status().ToString().c_str());
    return;
  }
  std::size_t mb = size_bytes >> 20;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    std::string file = path.value();
    benchmark::RegisterBenchmark(
        StrFormat("multiquery/%zuq/xmark_%zuMB/proj_on", n, mb).c_str(),
        [file, n](benchmark::State& st) {
          BenchMultiQuery(st, file, n, /*projection=*/true);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        StrFormat("multiquery/%zuq/xmark_%zuMB/proj_off", n, mb).c_str(),
        [file, n](benchmark::State& st) {
          BenchMultiQuery(st, file, n, /*projection=*/false);
        })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        StrFormat("npass/%zuq/xmark_%zuMB", n, mb).c_str(),
        [file, n](benchmark::State& st) { BenchNPass(st, file, n); })
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
