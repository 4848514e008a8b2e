// Table 1: the benchmark inputs — size and depth per dataset, with
// attribute nodes encoded as elements. This bench prints the Table 1
// columns for the generated datasets and measures generation and parse
// throughput per corpus.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common/env.h"
#include "bench_common/samples.h"
#include "data/generators.h"
#include "util/strings.h"
#include "xml/sax_parser.h"

using namespace xqmft;

namespace {

constexpr DatasetKind kKinds[] = {DatasetKind::kXmark, DatasetKind::kTreebank,
                                  DatasetKind::kMedline,
                                  DatasetKind::kProtein};

std::size_t TargetBytes() {
  return EnvMb("XQMFT_BENCH_T1_MB", 4);
}

void PrintTable1() {
  std::printf("\nTable 1: input XML files for benchmark "
              "(scaled; paper: XMark any/13, TreeBank 86MB/37, "
              "Medline 174MB/8, Protein 684MB/8)\n");
  std::printf("%-12s %12s %12s %10s %8s\n", "dataset", "size", "elements",
              "texts", "depth");
  for (DatasetKind kind : kKinds) {
    Result<std::string> path = EnsureDataset(kind, TargetBytes());
    if (!path.ok()) {
      std::fprintf(stderr, "%s: %s\n", DatasetName(kind),
                   path.status().ToString().c_str());
      continue;
    }
    Result<DatasetStats> stats = ScanDatasetFile(path.value());
    if (!stats.ok()) {
      std::fprintf(stderr, "%s: %s\n", DatasetName(kind),
                   stats.status().ToString().c_str());
      continue;
    }
    std::printf("%-12s %12s %12zu %10zu %8zu\n", DatasetName(kind),
                HumanBytes(stats.value().bytes).c_str(),
                stats.value().elements, stats.value().texts,
                stats.value().depth);
  }
  std::printf("\n");
}

void BenchGenerate(benchmark::State& state, DatasetKind kind) {
  std::size_t bytes = TargetBytes();
  for (auto _ : state) {
    Result<std::string> xml = GenerateDatasetString(kind, bytes, 7);
    if (!xml.ok()) {
      state.SkipWithError(xml.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(xml.value().data());
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<int64_t>(xml.value().size()));
  }
}

void BenchParse(benchmark::State& state, DatasetKind kind) {
  Result<std::string> path = EnsureDataset(kind, TargetBytes());
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<DatasetStats> stats = ScanDatasetFile(path.value());
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<int64_t>(stats.value().bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  PrintTable1();
  for (DatasetKind kind : kKinds) {
    Sampled(benchmark::RegisterBenchmark(
        StrFormat("table1/generate/%s", DatasetName(kind)).c_str(),
        [kind](benchmark::State& st) { BenchGenerate(st, kind); }));
    Sampled(benchmark::RegisterBenchmark(
        StrFormat("table1/parse/%s", DatasetName(kind)).c_str(),
        [kind](benchmark::State& st) { BenchParse(st, kind); }));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
