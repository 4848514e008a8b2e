// Execution-lowering benchmark: the table engine vs the lowered opcode
// engine (lower/ops_engine) on the Figure 3 corpus. Every corpus query
// lowers fully: the predicate queries (q01, q04, q16, q17) run their
// selector clusters on choice frames, so every query has an ops point.
//
// Two input shapes per query:
//
//   lower_xml/<q>/xmark_<M>MB/engine:{table,ops,ops_nosimd}
//       text XML streamed through the SAX parser per iteration — the
//       end-to-end serving shape. ops_nosimd disables the SIMD char-class
//       scanners (xml/char_class.h), isolating the lexer fast path's
//       contribution from the engine swap.
//   lower_pretok/<q>/xmark_<M>MB/engine:{table,ops}
//       a pre-tokenized event cache — tokenization paid once outside the
//       loop, so the delta is the engine core alone (cell building +
//       thunk forcing vs opcode programs + arena segments).
//
// Environment knobs:
//   XQMFT_BENCH_LOWER_SIZE_MB   XMark scale (default 4)
//   XQMFT_BENCH_LOWER_QUERIES   comma list of query ids (default all
//                               lowerable corpus queries)
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "lower/lower.h"
#include "stream/engine.h"
#include "util/strings.h"
#include "xml/char_class.h"
#include "xml/events.h"
#include "xml/pretok.h"

namespace xqmft {
namespace {

std::vector<std::string> QueryList() {
  const char* env = std::getenv("XQMFT_BENCH_LOWER_QUERIES");
  std::string spec =
      env != nullptr
          ? env
          : "q01,q02,q04,q13,q16,q17,double,fourstar,deepdup";
  std::vector<std::string> out;
  for (const std::string& part : SplitString(spec, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

Result<std::string> EnsurePretok(const std::string& xml_path) {
  std::string ptk = xml_path + ".ptk";
  if (PretokCacheValid(ptk, xml_path)) return ptk;
  XQMFT_RETURN_NOT_OK(PretokenizeXmlFile(xml_path, ptk));
  return ptk;
}

struct LowerConfig {
  const BenchQuery* query;
  std::string path;     ///< XML file, or pretok cache when `pretok`
  bool pretok;
  EngineChoice engine;
  bool simd;            ///< SIMD scanners on (only meaningful for XML)
};

void BenchLower(benchmark::State& state, const LowerConfig& cfg) {
  Result<std::shared_ptr<const CompiledPlan>> compiled =
      CompiledPlan::Compile(cfg.query->text);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return;
  }
  // The compiled transducer as a FromMft plan: whole_document, so every
  // run streams unprojected and the engine cores see the same events.
  PipelineOptions options = compiled.value()->options();
  options.stream.engine = cfg.engine;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::FromMft(compiled.value()->mft(), options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }

  const bool simd_was = SimdScanEnabled();
  SetSimdScanEnabled(cfg.simd);
  StreamStats stats;
  for (auto _ : state) {
    CountingSink sink;
    Status st;
    if (cfg.pretok) {
      Result<std::unique_ptr<PretokSource>> events =
          PretokSource::OpenFile(cfg.path);
      if (!events.ok()) {
        state.SkipWithError(events.status().ToString().c_str());
        SetSimdScanEnabled(simd_was);
        return;
      }
      st = plan.value()->StreamEvents(events.value().get(), &sink, &stats);
    } else {
      st = plan.value()->StreamFile(cfg.path, &sink, &stats);
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      SetSimdScanEnabled(simd_was);
      return;
    }
  }
  SetSimdScanEnabled(simd_was);

  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["out_events"] = static_cast<double>(stats.output_events);
  state.counters["bytes_in"] = static_cast<double>(stats.bytes_in);
  state.counters["cells_arena"] = static_cast<double>(stats.cells_arena);
  state.counters["cells_refcounted"] =
      static_cast<double>(stats.cells_created);
  state.counters["ops_engine"] = stats.used_ops_engine ? 1.0 : 0.0;
  state.SetBytesProcessed(
      static_cast<int64_t>(stats.bytes_in * state.iterations()));
}

void RegisterAll() {
  std::size_t size_bytes = EnvMb("XQMFT_BENCH_LOWER_SIZE_MB", 4);
  Result<std::string> xml = EnsureDataset(DatasetKind::kXmark, size_bytes);
  if (!xml.ok()) {
    std::fprintf(stderr, "bench_lower: %s\n", xml.status().ToString().c_str());
    return;
  }
  Result<std::string> ptk = EnsurePretok(xml.value());
  if (!ptk.ok()) {
    std::fprintf(stderr, "bench_lower: %s\n", ptk.status().ToString().c_str());
    return;
  }
  std::size_t mb = size_bytes >> 20;

  struct Mode {
    const char* tag;
    EngineChoice engine;
    bool simd;
  };
  const Mode kXmlModes[] = {{"table", EngineChoice::kTable, true},
                            {"ops", EngineChoice::kOps, true},
                            {"ops_nosimd", EngineChoice::kOps, false}};
  const Mode kPretokModes[] = {{"table", EngineChoice::kTable, true},
                               {"ops", EngineChoice::kOps, true}};

  for (const std::string& id : QueryList()) {
    const BenchQuery& bq = QueryById(id);
    for (const Mode& m : kXmlModes) {
      LowerConfig cfg{&bq, xml.value(), /*pretok=*/false, m.engine, m.simd};
      benchmark::RegisterBenchmark(
          StrFormat("lower_xml/%s/xmark_%zuMB/engine:%s", bq.id, mb, m.tag)
              .c_str(),
          [cfg](benchmark::State& st) { BenchLower(st, cfg); })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
    for (const Mode& m : kPretokModes) {
      LowerConfig cfg{&bq, ptk.value(), /*pretok=*/true, m.engine, m.simd};
      benchmark::RegisterBenchmark(
          StrFormat("lower_pretok/%s/xmark_%zuMB/engine:%s", bq.id, mb,
                    m.tag)
              .c_str(),
          [cfg](benchmark::State& st) { BenchLower(st, cfg); })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
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
