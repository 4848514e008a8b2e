// Ablation of the Section 4.1 optimizations.
//
// The paper reports that the optimized MFTs are "often faster by one order
// of magnitude" and shows (Figure 4) that unoptimized transducers buffer
// the whole input. This bench (a) prints, per Figure 3 query, the
// transducer statistics with each pass disabled in turn, and (b) measures
// streaming time/memory for the no-opt vs full-opt transducer on XMark
// input.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "bench_common/samples.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "util/strings.h"
#include "xml/events.h"

using namespace xqmft;

namespace {

std::size_t InputBytes() {
  return EnvMb("XQMFT_BENCH_ABLATION_MB", 2);
}

struct Variant {
  const char* name;
  OptimizeOptions options;
};

std::vector<Variant> Variants() {
  OptimizeOptions all;
  OptimizeOptions none;
  none.unused_parameters = none.constant_parameters = none.stay_moves =
      none.unreachable_states = false;
  OptimizeOptions no_unused = all;
  no_unused.unused_parameters = false;
  OptimizeOptions no_const = all;
  no_const.constant_parameters = false;
  OptimizeOptions no_stay = all;
  no_stay.stay_moves = false;
  OptimizeOptions no_unreach = all;
  no_unreach.unreachable_states = false;
  return {
      {"none", none},           {"full", all},
      {"no-unused", no_unused}, {"no-constant", no_const},
      {"no-stay", no_stay},     {"no-unreachable", no_unreach},
  };
}

void PrintAblationTable() {
  std::printf("\nSection 4.1 ablation: transducer statistics per disabled "
              "pass (states/params/|M|)\n");
  std::printf("%-10s", "query");
  for (const Variant& v : Variants()) std::printf(" %18s", v.name);
  std::printf("\n");
  for (const BenchQuery& bq : Figure3Queries()) {
    std::printf("%-10s", bq.id);
    for (const Variant& v : Variants()) {
      PipelineOptions po;
      po.optimizer = v.options;
      auto plan = CompiledPlan::Compile(bq.text, po);
      if (!plan.ok()) {
        std::printf(" %18s", "error");
        continue;
      }
      const Mft& m = plan.value()->mft();
      std::printf(" %6d/%4zu/%6zu", m.num_states(), m.TotalParams(),
                  m.Size());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void BenchVariant(benchmark::State& state, const BenchQuery& bq,
                  bool optimize) {
  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, InputBytes());
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  PipelineOptions po;
  po.optimize = optimize;
  auto plan = CompiledPlan::Compile(bq.text, po);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  StreamStats stats;
  for (auto _ : state) {
    CountingSink sink;
    Status st = plan.value()->StreamFile(path.value(), &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["rule_apps"] =
      static_cast<double>(stats.rule_applications);
}

}  // namespace

int main(int argc, char** argv) {
  PrintAblationTable();
  for (const BenchQuery& bq : Figure3Queries()) {
    Sampled(benchmark::RegisterBenchmark(
        StrFormat("ablation/%s/noopt", bq.id).c_str(),
        [&bq](benchmark::State& st) { BenchVariant(st, bq, false); }));
    Sampled(benchmark::RegisterBenchmark(
        StrFormat("ablation/%s/opt", bq.id).c_str(),
        [&bq](benchmark::State& st) { BenchVariant(st, bq, true); }));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
