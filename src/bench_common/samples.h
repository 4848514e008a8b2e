// Sampling rule of the paper-artifact benchmarks (Figure 4, Table 1, the
// optimizer ablation): each cell takes kRepetitions samples of exactly one
// full document pass, and reports their median with the quartiles q1 and
// q3 next to Google Benchmark's mean and stddev. The count is fixed here so
// that every run of a binary reports the same statistic.
#ifndef XQMFT_BENCH_COMMON_SAMPLES_H_
#define XQMFT_BENCH_COMMON_SAMPLES_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace xqmft {

constexpr int kRepetitions = 5;

/// The `q`-quantile of `v`, interpolated linearly between order statistics.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double FirstQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.25);
}

inline double ThirdQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.75);
}

/// Applies the sampling rule to a registered cell.
inline benchmark::internal::Benchmark* Sampled(
    benchmark::internal::Benchmark* cell) {
  return cell->Unit(benchmark::kMillisecond)
      ->Iterations(1)
      ->Repetitions(kRepetitions)
      ->ComputeStatistics("q1", FirstQuartile)
      ->ComputeStatistics("q3", ThirdQuartile)
      ->ReportAggregatesOnly(true);
}

}  // namespace xqmft

#endif  // XQMFT_BENCH_COMMON_SAMPLES_H_
