// Shared driver for the Figure 4 benchmarks.
//
// Each Figure 4 sub-figure plots elapsed time and maximum memory for three
// engines — MFT (no opt), MFT (opt), GCX — over growing inputs. One bench
// binary per sub-figure calls RegisterFig4Benchmarks with its query id; the
// driver registers one google-benchmark per (engine, dataset, size) cell,
// reporting peak tracked memory and output events as counters.
//
// Environment knobs:
//   XQMFT_BENCH_SIZES_MB   comma-separated XMark sizes (default "1,4,16")
//   XQMFT_BENCH_NOOPT_CAP_MB  largest size run without optimization
//                             (default 4: the unoptimized transducer
//                             buffers the whole input, like the paper's
//                             out-of-memory no-opt points)
//   XQMFT_BENCH_GCX_CAP_MB    GCX buffer cap (default 24), the scaled
//                             analogue of GCX's reported failure on the
//                             doubling query above 200 MB
//   XQMFT_BENCH_FIG4_PAR_ITEMS / _THREADS   document-set size and worker
//                             count of the mft_par series (default 4 / 4)
// An unset, zero, negative or non-numeric knob takes its default
// (bench_common/env.h).
#ifndef XQMFT_BENCH_COMMON_FIG4_H_
#define XQMFT_BENCH_COMMON_FIG4_H_

#include <string>
#include <vector>

namespace xqmft {

/// Sizes (bytes) for the XMark sweep.
std::vector<std::size_t> BenchSizesBytes();

/// Registers all series of one Figure 4 sub-figure. For the corner-case
/// queries (double/fourstar/deepdup, Figures 4(g-i)) the paper also runs
/// TreeBank/Medline/Protein inputs; pass include_table1_datasets = true.
void RegisterFig4Benchmarks(const std::string& query_id,
                            bool include_table1_datasets);

}  // namespace xqmft

#endif  // XQMFT_BENCH_COMMON_FIG4_H_
