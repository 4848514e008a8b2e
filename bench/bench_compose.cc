// Lemma 2 ablation: stay-move composition vs the classical construction.
//
// Section 4.2 proves TT composition in O(|Sigma||M1||M2|) using stay moves
// and shows the classical Rounds/Baker substitution is exponential in |M1|
// (the 4-b's example). This bench generalizes that example: M1_L rewrites
// every `a` into a chain of L `b`s, M2 doubles every `b`; the classical
// composed rule holds a complete binary tree of height L.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "compose/compose.h"
#include "compose/convert.h"
#include "compose/mtt.h"
#include "core/pipeline.h"
#include "util/strings.h"
#include "xml/events.h"

using namespace xqmft;

namespace {

Mtt ChainTt(int l) {
  Mtt m;
  StateId q = m.AddState("q0", 0);
  m.set_initial_state(q);
  BExpr chain = BExpr::Call(q, InputVar::kX1);
  for (int i = 0; i < l; ++i) {
    chain = BExpr::Label(Symbol::Element("b"), std::move(chain), BExpr::Eps());
  }
  m.SetSymbolRule(q, Symbol::Element("a"), std::move(chain));
  m.SetDefaultRule(q, BExpr::Eps());
  m.SetEpsilonRule(q, BExpr::Eps());
  return m;
}

Mtt Doubler() {
  Mtt m;
  StateId p = m.AddState("p0", 0);
  m.set_initial_state(p);
  m.SetSymbolRule(p, Symbol::Element("b"),
                  BExpr::Label(Symbol::Element("c"),
                               BExpr::Call(p, InputVar::kX1),
                               BExpr::Call(p, InputVar::kX1)));
  m.SetDefaultRule(p, BExpr::Eps());
  m.SetEpsilonRule(p, BExpr::Eps());
  return m;
}

void PrintSizeTable() {
  std::printf("\nLemma 2: composed transducer size |M| vs chain length L "
              "(M1_L: a -> b^L; M2: b -> c(.,.))\n");
  std::printf("%4s %12s %14s %14s\n", "L", "|M1|", "stay-move |M|",
              "classical |M|");
  Mtt m2 = Doubler();
  for (int l = 2; l <= 16; l += 2) {
    Mtt m1 = ChainTt(l);
    Result<Mtt> stay = ComposeTtTt(m1, m2);
    Result<Mtt> naive = NaiveComposeTtTt(m1, m2, 40'000'000);
    std::printf("%4d %12zu %14zu %14s\n", l, m1.Size(),
                stay.ok() ? stay.value().Size() : 0,
                naive.ok() ? std::to_string(naive.value().Size()).c_str()
                           : "overflow");
  }
  std::printf("\n");
}

void BenchStay(benchmark::State& state) {
  int l = static_cast<int>(state.range(0));
  Mtt m1 = ChainTt(l);
  Mtt m2 = Doubler();
  std::size_t size = 0;
  for (auto _ : state) {
    Result<Mtt> c = ComposeTtTt(m1, m2);
    if (!c.ok()) {
      state.SkipWithError(c.status().ToString().c_str());
      return;
    }
    size = c.value().Size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["composed_size"] = static_cast<double>(size);
}

void BenchNaive(benchmark::State& state) {
  int l = static_cast<int>(state.range(0));
  Mtt m1 = ChainTt(l);
  Mtt m2 = Doubler();
  std::size_t size = 0;
  for (auto _ : state) {
    Result<Mtt> c = NaiveComposeTtTt(m1, m2, 100'000'000);
    if (!c.ok()) {
      state.SkipWithError(c.status().ToString().c_str());
      return;
    }
    size = c.value().Size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["composed_size"] = static_cast<double>(size);
}

// Streams an a-chain nested `depth` deep through the stay-move composition
// (converted back to an MFT), reporting the engine's allocation-rate
// counters alongside wall time: thunk/cell churn per output node is the
// composition's real runtime cost, and slab reuse keeps it visible in the
// JSON even when wall time is noisy. Output grows ~64x per nesting level
// (the doubler duplicates the 6-chain's continuation), so small depths
// already stress the engine.
void BenchStreamComposed(benchmark::State& state) {
  const int chain = 6;
  Mtt composed;
  {
    Result<Mtt> c = ComposeTtTt(ChainTt(chain), Doubler());
    if (!c.ok()) {
      state.SkipWithError(c.status().ToString().c_str());
      return;
    }
    composed = std::move(c).value();
  }
  Result<std::shared_ptr<const CompiledPlan>> plan =
      CompiledPlan::FromMft(MttEvalToMft(composed));
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  int depth = static_cast<int>(state.range(0));
  std::string xml;
  for (int i = 0; i < depth; ++i) xml += "<a>";
  for (int i = 0; i < depth; ++i) xml += "</a>";
  StreamStats stats;
  for (auto _ : state) {
    CountingSink sink;
    Status st = plan.value()->StreamString(xml, &sink, &stats);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(sink.elements());
  }
  state.counters["exprs_created"] = static_cast<double>(stats.exprs_created);
  state.counters["cells_created"] = static_cast<double>(stats.cells_created);
  state.counters["peak_mem_B"] = static_cast<double>(stats.peak_bytes);
  state.counters["out_events"] = static_cast<double>(stats.output_events);
}

}  // namespace

int main(int argc, char** argv) {
  PrintSizeTable();
  for (int l : {4, 8, 12, 16, 20}) {
    benchmark::RegisterBenchmark("compose/stay_move", BenchStay)
        ->Arg(l)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int l : {4, 8, 12, 16, 20}) {
    benchmark::RegisterBenchmark("compose/classical", BenchNaive)
        ->Arg(l)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int depth : {2, 3}) {
    benchmark::RegisterBenchmark("compose/stream_composed",
                                 BenchStreamComposed)
        ->Arg(depth)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
