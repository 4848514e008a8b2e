// Compile-amortization curves for the serving layer (src/service/).
//
// The paper's serving pitch: compile the query once, stream arbitrarily
// many documents. These series measure exactly that margin:
//
//   compile/<q>
//       pure compile cost (parse + translate + optimize + dispatch) — the
//       price a cache hit avoids. Reported as the compile_ms counter too.
//   streammany/<q>/xmark_<M>MBx<K>
//       pure stream cost: a pre-built CompiledPlan serving the K-document
//       batch directly (no cache in the path). The floor the service
//       converges to.
//   service_warm/<q>/xmark_<M>MBx<K>
//       the full QueryService request path with a warm cache: every
//       iteration is one request for K documents served from the cached
//       plan. The acceptance point: within noise of streammany for K >= 8
//       (the cache lookup is one mutex + map probe per request).
//   service_cold/<q>/xmark_<M>MBx<K>
//       the cache cleared before every request: each iteration pays
//       compile + stream — the gap to service_warm is the amortized cost,
//       reported per-iteration in the compile_ms counter.
//   service_mix/<Q>q/xmark_<M>MBx<K>
//       a Q-query round-robin over one warm cache (K documents per
//       request): the multi-tenant shape; compiles stay at Q however many
//       iterations run.
//
// Environment knobs:
//   XQMFT_BENCH_SVC_SIZE_MB   per-document XMark size (default 1)
//   XQMFT_BENCH_SVC_ITEMS     documents per request (default 8)
//   XQMFT_BENCH_SVC_QUERY     query id (default q01)
//   XQMFT_BENCH_SVC_THREADS   worker threads per request (default 1)
//   XQMFT_BENCH_SVC_QUERIES   queries in the mix series (default 4)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common/env.h"
#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "service/query_service.h"
#include "util/strings.h"
#include "xml/events.h"

namespace xqmft {
namespace {

struct SvcConfig {
  std::string query_id;
  std::string xml_path;
  std::size_t items;
  std::size_t threads;
};

void ReportStreamCounters(benchmark::State& state, const StreamStats& total) {
  state.counters["peak_mem_B"] = static_cast<double>(total.peak_bytes);
  state.counters["out_events"] = static_cast<double>(total.output_events);
  state.counters["bytes_in"] = static_cast<double>(total.bytes_in);
  state.SetBytesProcessed(
      static_cast<int64_t>(total.bytes_in * state.iterations()));
}

void BenchCompile(benchmark::State& state, const std::string& query_id) {
  const BenchQuery& bq = QueryById(query_id);
  double total_ms = 0.0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto plan = CompiledPlan::Compile(bq.text);
    total_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(plan.value().get());
  }
  // Compile *is* the measurement here: surface it in the same column the
  // service series report so bench_runner gates them uniformly.
  state.counters["compile_ms"] =
      total_ms / static_cast<double>(state.iterations());
}

ServiceRequest RequestFor(const SvcConfig& cfg, const std::string& query) {
  ServiceRequest request;
  request.query = query;
  request.inputs.assign(cfg.items, ParallelInput::XmlFile(cfg.xml_path));
  request.threads = cfg.threads;
  return request;
}

void BenchStreamMany(benchmark::State& state, const SvcConfig& cfg) {
  const BenchQuery& bq = QueryById(cfg.query_id);
  auto plan = CompiledPlan::Compile(bq.text);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  std::vector<ParallelInput> inputs(cfg.items,
                                    ParallelInput::XmlFile(cfg.xml_path));
  ParallelOptions par;
  par.threads = cfg.threads;
  std::vector<StreamStats> stats;
  for (auto _ : state) {
    CountingSink sink;
    Status st = plan.value()->StreamMany(inputs, &sink, par, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  ReportStreamCounters(state, AggregateStreamStats(stats));
  state.counters["compile_ms"] = 0.0;
}

void BenchService(benchmark::State& state, const SvcConfig& cfg, bool warm) {
  const BenchQuery& bq = QueryById(cfg.query_id);
  QueryService service;
  ServiceRequest request = RequestFor(cfg, bq.text);
  if (warm) {
    // Prime the cache so every measured iteration is a hit.
    CountingSink sink;
    Status st = service.Execute(request, &sink);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  ServiceRequestStats stats;
  double compile_ms = 0.0;
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      service.cache()->Clear();
      state.ResumeTiming();
    }
    CountingSink sink;
    Status st = service.Execute(request, &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    compile_ms += stats.compile_ms;
  }
  ReportStreamCounters(state, stats.total);
  state.counters["compile_ms"] =
      compile_ms / static_cast<double>(state.iterations());
  QueryCacheStats cache = service.cache()->stats();
  state.counters["cache_hits"] = static_cast<double>(cache.hits);
  state.counters["cache_compiles"] = static_cast<double>(cache.compiles);
}

void BenchServiceMix(benchmark::State& state, const SvcConfig& cfg,
                     std::size_t query_count) {
  const std::vector<BenchQuery>& corpus = Figure3Queries();
  if (query_count > corpus.size()) query_count = corpus.size();
  QueryService service;
  std::vector<ServiceRequest> requests;
  for (std::size_t q = 0; q < query_count; ++q) {
    requests.push_back(RequestFor(cfg, corpus[q].text));
  }
  // Warm every query once; the warm-up cycle also yields the deterministic
  // counters (one full pass over the mix), so the reported numbers do not
  // depend on which query the timed loop happened to end on.
  ServiceRequestStats stats;
  StreamStats cycle;
  for (const ServiceRequest& request : requests) {
    CountingSink sink;
    Status st = service.Execute(request, &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    if (stats.total.peak_bytes > cycle.peak_bytes) {
      cycle.peak_bytes = stats.total.peak_bytes;
    }
    cycle.bytes_in += stats.total.bytes_in;
    cycle.output_events += stats.total.output_events;
  }
  std::size_t next = 0;
  double compile_ms = 0.0;
  for (auto _ : state) {
    CountingSink sink;
    Status st = service.Execute(requests[next], &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    compile_ms += stats.compile_ms;
    next = (next + 1) % requests.size();
  }
  state.counters["peak_mem_B"] = static_cast<double>(cycle.peak_bytes);
  state.counters["out_events"] =
      static_cast<double>(cycle.output_events) /
      static_cast<double>(requests.size());
  state.counters["bytes_in"] = static_cast<double>(cycle.bytes_in) /
                               static_cast<double>(requests.size());
  state.SetBytesProcessed(static_cast<int64_t>(
      cycle.bytes_in / requests.size() * state.iterations()));
  state.counters["compile_ms"] =
      compile_ms / static_cast<double>(state.iterations());
  state.counters["cache_compiles"] =
      static_cast<double>(service.cache()->stats().compiles);
}

void RegisterAll() {
  std::size_t size_bytes = EnvMb("XQMFT_BENCH_SVC_SIZE_MB", 1);
  std::size_t items = EnvCount("XQMFT_BENCH_SVC_ITEMS", 8);
  std::size_t threads = EnvCount("XQMFT_BENCH_SVC_THREADS", 1);
  std::size_t mix = EnvCount("XQMFT_BENCH_SVC_QUERIES", 4);
  const char* qenv = std::getenv("XQMFT_BENCH_SVC_QUERY");
  std::string query_id = qenv != nullptr ? qenv : "q01";

  Result<std::string> path = EnsureDataset(DatasetKind::kXmark, size_bytes);
  if (!path.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 path.status().ToString().c_str());
    return;
  }
  std::size_t mb = size_bytes >> 20;
  SvcConfig cfg{query_id, path.value(), items, threads};

  benchmark::RegisterBenchmark(
      StrFormat("compile/%s", query_id.c_str()).c_str(),
      [query_id](benchmark::State& st) { BenchCompile(st, query_id); })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      StrFormat("streammany/%s/xmark_%zuMBx%zu", query_id.c_str(), mb, items)
          .c_str(),
      [cfg](benchmark::State& st) { BenchStreamMany(st, cfg); })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      StrFormat("service_warm/%s/xmark_%zuMBx%zu", query_id.c_str(), mb,
                items)
          .c_str(),
      [cfg](benchmark::State& st) { BenchService(st, cfg, /*warm=*/true); })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      StrFormat("service_cold/%s/xmark_%zuMBx%zu", query_id.c_str(), mb,
                items)
          .c_str(),
      [cfg](benchmark::State& st) { BenchService(st, cfg, /*warm=*/false); })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      StrFormat("service_mix/%zuq/xmark_%zuMBx%zu", mix, mb, items).c_str(),
      [cfg, mix](benchmark::State& st) { BenchServiceMix(st, cfg, mix); })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
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
