#include "bench_common/fig4.h"

#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <memory>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "bench_common/samples.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "gcx/gcx_engine.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {

namespace {

struct Fig4Dataset {
  DatasetKind kind;
  std::size_t bytes;
  std::string display;
};

std::vector<Fig4Dataset> DatasetsFor(bool include_table1) {
  std::vector<Fig4Dataset> out;
  for (std::size_t bytes : EnvMbList("XQMFT_BENCH_SIZES_MB", "1,4,16")) {
    out.push_back({DatasetKind::kXmark, bytes,
                   StrFormat("xmark_%zuMB", bytes >> 20)});
  }
  if (include_table1) {
    std::size_t fixed = EnvMb("XQMFT_BENCH_T1_MB", 4);
    out.push_back({DatasetKind::kTreebank, fixed,
                   StrFormat("treebank_%zuMB", fixed >> 20)});
    out.push_back({DatasetKind::kMedline, fixed,
                   StrFormat("medline_%zuMB", fixed >> 20)});
    out.push_back({DatasetKind::kProtein, fixed,
                   StrFormat("protein_%zuMB", fixed >> 20)});
  }
  return out;
}

void BenchMft(benchmark::State& state, const BenchQuery& bq,
              const Fig4Dataset& ds, bool optimize) {
  Result<std::string> path = EnsureDataset(ds.kind, ds.bytes);
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  PipelineOptions options;
  options.optimize = optimize;
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(bq.text, options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  StreamStats stats;
  std::size_t out_events = 0;
  for (auto _ : state) {
    CountingSink sink;
    Status st = plan.value()->StreamFile(path.value(), &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    out_events = stats.output_events;
  }
  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["out_events"] = static_cast<double>(out_events);
  state.counters["bytes_in"] = static_cast<double>(stats.bytes_in);
  // Allocation-rate counters: slab reuse shows up here as flat node churn
  // per input byte, independently of wall-time noise.
  state.counters["exprs_created"] = static_cast<double>(stats.exprs_created);
  state.counters["cells_created"] = static_cast<double>(stats.cells_created);
  state.SetBytesProcessed(
      static_cast<int64_t>(stats.bytes_in * state.iterations()));
}

// Size of a file on disk (the XML byte denominator for throughput columns).
Result<std::size_t> FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::InvalidArgument("cannot stat " + path);
  }
  return static_cast<std::size_t>(st.st_size);
}

// Tokenizes the dataset once next to its XML file; cached across series.
// The cache is only trusted while its recorded source identity matches the
// XML's current bytes — datasets live in a persistent XQMFT_DATA_DIR, so a
// regenerated document must not be benchmarked against a stale token stream.
Result<std::string> EnsurePretok(const std::string& xml_path) {
  std::string ptk = xml_path + ".ptk";
  if (PretokCacheValid(ptk, xml_path)) return ptk;
  XQMFT_RETURN_NOT_OK(PretokenizeXmlFile(xml_path, ptk));
  return ptk;
}

// The ROADMAP's binary-event-source series: the engine consumes the
// pre-tokenized cache with zero scanning — the upper bound a faster lexer
// converges toward.
void BenchMftPretok(benchmark::State& state, const BenchQuery& bq,
                    const Fig4Dataset& ds) {
  Result<std::string> path = EnsureDataset(ds.kind, ds.bytes);
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  Result<std::string> ptk = EnsurePretok(path.value());
  if (!ptk.ok()) {
    state.SkipWithError(ptk.status().ToString().c_str());
    return;
  }
  // Throughput is reported against the XML bytes this pass replaced, so the
  // MB/s column compares like for like with the mft/gcx series (the pretok
  // file itself is smaller).
  Result<std::size_t> xml_bytes = FileBytes(path.value());
  if (!xml_bytes.ok()) {
    state.SkipWithError(xml_bytes.status().ToString().c_str());
    return;
  }
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(bq.text);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  StreamStats stats;
  std::size_t out_events = 0;
  for (auto _ : state) {
    Result<std::unique_ptr<PretokSource>> src =
        PretokSource::OpenFile(ptk.value());
    if (!src.ok()) {
      state.SkipWithError(src.status().ToString().c_str());
      return;
    }
    CountingSink sink;
    Status st = plan.value()->StreamEvents(src.value().get(), &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    out_events = stats.output_events;
  }
  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["out_events"] = static_cast<double>(out_events);
  state.counters["bytes_in"] = static_cast<double>(xml_bytes.value());
  state.counters["pretok_bytes_in"] = static_cast<double>(stats.bytes_in);
  state.counters["exprs_created"] = static_cast<double>(stats.exprs_created);
  state.counters["cells_created"] = static_cast<double>(stats.cells_created);
  state.SetBytesProcessed(
      static_cast<int64_t>(xml_bytes.value() * state.iterations()));
}

// The ROADMAP's parallel-sharding series: the cell's document served as a
// small document set (XQMFT_BENCH_FIG4_PAR_ITEMS copies, default 4) fanned
// across worker threads (XQMFT_BENCH_FIG4_PAR_THREADS, default 4) — the
// serving shape the sharding layer exists for. The knobs are deliberately
// distinct from bench_parallel's XQMFT_BENCH_PAR_* so that tuning one
// binary cannot silently reshape the other's workload. One
// measurement covers all items and bytes-processed scales with them, so the
// throughput column compares aggregate parallel MB/s directly against
// mft_opt's single-engine MB/s.
void BenchMftPar(benchmark::State& state, const BenchQuery& bq,
                 const Fig4Dataset& ds) {
  Result<std::string> path = EnsureDataset(ds.kind, ds.bytes);
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  std::size_t items = EnvCount("XQMFT_BENCH_FIG4_PAR_ITEMS", 4);
  RunOptions par;
  par.threads = EnvCount("XQMFT_BENCH_FIG4_PAR_THREADS", 4);
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::Compile(bq.text);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  std::vector<ParallelInput> inputs(items,
                                    ParallelInput::XmlFile(path.value()));
  std::vector<RunResult> results;
  std::size_t bytes_in = 0, out_events = 0, peak = 0;
  for (auto _ : state) {
    CountingSink sink;
    Status st = Run({plan.value().get()}, inputs, {&sink}, par, &results);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    bytes_in = 0;
    out_events = 0;
    peak = 0;
    for (const StreamStats& s : results.front().per_input) {
      bytes_in += s.bytes_in;
      out_events += s.output_events;
      if (s.peak_bytes > peak) peak = s.peak_bytes;
    }
  }
  // Peak is the max *engine-tracked* peak over the items (per-engine peaks
  // need not coincide). It deliberately excludes the merge layer's staged
  // output: completed items park their whole output in EventBuffers until
  // the in-order flush reaches them, so real residency adds up to the
  // unflushed items' total output size on top of the engine peaks.
  state.counters["peak_mem_B"] = static_cast<double>(peak);
  state.counters["out_events"] = static_cast<double>(out_events);
  state.counters["bytes_in"] = static_cast<double>(bytes_in);
  state.counters["threads"] = static_cast<double>(par.threads);
  state.counters["items"] = static_cast<double>(items);
  state.SetBytesProcessed(
      static_cast<int64_t>(bytes_in * state.iterations()));
}

void BenchGcx(benchmark::State& state, const BenchQuery& bq,
              const Fig4Dataset& ds) {
  Result<std::string> path = EnsureDataset(ds.kind, ds.bytes);
  if (!path.ok()) {
    state.SkipWithError(path.status().ToString().c_str());
    return;
  }
  auto query = ParseQuery(bq.text);
  if (!query.ok()) {
    state.SkipWithError(query.status().ToString().c_str());
    return;
  }
  Result<std::unique_ptr<GcxQuery>> gq = GcxQuery::Compile(*query.value());
  if (!gq.ok()) {
    // Figure 4(c): GCX cannot run Q4 (following-sibling); report N/A.
    state.SkipWithError(("N/A: " + gq.status().ToString()).c_str());
    return;
  }
  GcxOptions options;
  options.max_buffer_bytes = EnvMb("XQMFT_BENCH_GCX_CAP_MB", 24);
  GcxStats stats;
  for (auto _ : state) {
    auto src = MmapSource::Open(path.value());
    if (!src.ok()) {
      state.SkipWithError(src.status().ToString().c_str());
      return;
    }
    CountingSink sink;
    Status st = gq.value()->Run(src.value().get(), &sink, options, &stats);
    if (!st.ok()) {
      // The paper marks GCX failures (e.g. the doubling query beyond its
      // buffer budget) as missing data points.
      state.SkipWithError(("FAIL: " + st.ToString()).c_str());
      return;
    }
  }
  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["out_events"] = static_cast<double>(stats.output_events);
  state.counters["bytes_in"] = static_cast<double>(stats.bytes_in);
  state.SetBytesProcessed(
      static_cast<int64_t>(stats.bytes_in * state.iterations()));
}

}  // namespace

void RegisterFig4Benchmarks(const std::string& query_id,
                            bool include_table1_datasets) {
  const BenchQuery& bq = QueryById(query_id);
  std::size_t noopt_cap = EnvMb("XQMFT_BENCH_NOOPT_CAP_MB", 4);
  for (const Fig4Dataset& ds : DatasetsFor(include_table1_datasets)) {
    auto add = [&](const char* series, auto body) {
      Sampled(benchmark::RegisterBenchmark(
          StrFormat("%s/%s/%s", bq.id, series, ds.display.c_str()).c_str(),
          body));
    };
    if (ds.bytes <= noopt_cap) {
      add("mft_noopt",
          [bq, ds](benchmark::State& st) { BenchMft(st, bq, ds, false); });
    }
    add("mft_opt",
        [bq, ds](benchmark::State& st) { BenchMft(st, bq, ds, true); });
    add("mft_pretok",
        [bq, ds](benchmark::State& st) { BenchMftPretok(st, bq, ds); });
    add("mft_par", [bq, ds](benchmark::State& st) { BenchMftPar(st, bq, ds); });
    add("gcx", [bq, ds](benchmark::State& st) { BenchGcx(st, bq, ds); });
  }
}

}  // namespace xqmft
