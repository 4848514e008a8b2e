// Theorem 1: the translation from MinXQuery to MFTs runs in time O(|P|).
//
// This bench builds families of programs of growing size — deeply nested
// for-loops, wide element constructors, long paths, and one step with many
// sibling predicates — and measures translation time and the size ratio
// |M_P| / |P|, which stays bounded for a linear-time construction.
//
// The wide-predicate family is also timed through the whole compile
// (parse, translate, optimize, lower: CompiledPlan::Compile), whose cost
// grows faster than its rule count on it: its rows are where a
// superlinear stage shows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "translate/translate.h"
#include "util/strings.h"
#include "xquery/ast.h"

using namespace xqmft;

namespace {

// Nested for-loops: for $v1 in $input/a return <r>{for $v2 in $v1/a ...}.
std::string NestedForQuery(int depth) {
  std::string inner = "$v" + std::to_string(depth) + "/text()";
  for (int i = depth; i >= 1; --i) {
    std::string var = "$v" + std::to_string(i);
    std::string outer_var = i == 1 ? "$input" : "$v" + std::to_string(i - 1);
    inner = "for " + var + " in " + outer_var + "/a return <r>{" + inner +
            "}</r>";
  }
  return "<out>{" + inner + "}</out>";
}

// Wide constructor: <out><e>1</e><e>2</e>...</out>.
std::string WideQuery(int width) {
  std::string q = "<out>";
  for (int i = 0; i < width; ++i) {
    q += "<e" + std::to_string(i) + ">x</e" + std::to_string(i) + ">";
  }
  q += "</out>";
  return q;
}

// Long path: <out>{$input/a/a/.../a}</out>.
std::string LongPathQuery(int steps) {
  std::string q = "<out>{$input";
  for (int i = 0; i < steps; ++i) q += "/a";
  q += "}</out>";
  return q;
}

// Wide predicate: <out>{$input/x[./x][./x]...[./x]}</out>, n predicates on
// one step.
std::string WidePredicateQuery(int predicates) {
  std::string q = "<out>{$input/x";
  for (int i = 0; i < predicates; ++i) q += "[./x]";
  q += "}</out>";
  return q;
}

void PrintRatioTable() {
  std::printf("\nTheorem 1: |M_P| / |P| stays bounded (linear translation)\n");
  std::printf("%-12s %8s %8s %8s %8s\n", "family", "n", "|P|", "|M_P|",
              "ratio");
  struct Family {
    const char* name;
    std::string (*gen)(int);
    std::vector<int> ns;
  } families[] = {
      {"nested-for", NestedForQuery, {2, 4, 8, 16}},
      {"wide", WideQuery, {8, 16, 32, 64}},
      {"long-path", LongPathQuery, {4, 8, 16, 32}},
      {"wide-pred", WidePredicateQuery, {125, 250, 500, 1000}},
  };
  for (const Family& fam : families) {
    for (int n : fam.ns) {
      auto q = ParseQuery(fam.gen(n));
      if (!q.ok()) continue;
      auto m = TranslateQuery(*q.value());
      if (!m.ok()) continue;
      std::size_t qs = QuerySize(*q.value());
      std::size_t ms = m.value().Size();
      std::printf("%-12s %8d %8zu %8zu %8.1f\n", fam.name, n, qs, ms,
                  static_cast<double>(ms) / static_cast<double>(qs));
    }
  }
  std::printf("\n");
}

void BenchTranslate(benchmark::State& state, std::string (*gen)(int)) {
  int n = static_cast<int>(state.range(0));
  std::string text = gen(n);
  auto q = ParseQuery(text);
  if (!q.ok()) {
    state.SkipWithError(q.status().ToString().c_str());
    return;
  }
  std::size_t msize = 0;
  for (auto _ : state) {
    auto m = TranslateQuery(*q.value());
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    msize = m.value().Size();
    benchmark::DoNotOptimize(msize);
  }
  state.counters["query_size"] = static_cast<double>(QuerySize(*q.value()));
  state.counters["mft_size"] = static_cast<double>(msize);
}

// The whole compile of one query text: parse, translate, optimize, and the
// execution lowering.
void BenchCompile(benchmark::State& state, std::string (*gen)(int)) {
  const std::string text = gen(static_cast<int>(state.range(0)));
  std::size_t rules = 0;
  for (auto _ : state) {
    auto plan = CompiledPlan::Compile(text);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      return;
    }
    rules = plan.value()->mft().NumRules();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
}

}  // namespace

int main(int argc, char** argv) {
  PrintRatioTable();
  for (int n : {2, 4, 8, 16}) {
    benchmark::RegisterBenchmark("translate/nested_for",
                                 [](benchmark::State& st) {
                                   BenchTranslate(st, NestedForQuery);
                                 })
        ->Arg(n)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int n : {16, 64, 256}) {
    benchmark::RegisterBenchmark(
        "translate/wide",
        [](benchmark::State& st) { BenchTranslate(st, WideQuery); })
        ->Arg(n)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int n : {8, 32, 128}) {
    benchmark::RegisterBenchmark(
        "translate/long_path",
        [](benchmark::State& st) { BenchTranslate(st, LongPathQuery); })
        ->Arg(n)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int n : {125, 250, 500, 1000}) {
    benchmark::RegisterBenchmark(
        "translate/wide_predicate",
        [](benchmark::State& st) { BenchTranslate(st, WidePredicateQuery); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        "compile/wide_predicate",
        [](benchmark::State& st) { BenchCompile(st, WidePredicateQuery); })
        ->Arg(n)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
