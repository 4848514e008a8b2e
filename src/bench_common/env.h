// Integer knobs the benchmark binaries read from the environment
// (XQMFT_BENCH_*): dataset sizes, item counts, thread counts. A knob that is
// unset, non-numeric, zero or negative takes its default, so a typo shrinks
// nothing to zero and cannot ask for an absurd allocation.
#ifndef XQMFT_BENCH_COMMON_ENV_H_
#define XQMFT_BENCH_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace xqmft {

/// A positive count from `name`, or `def`.
inline std::size_t EnvCount(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<std::size_t>(n) : def;
}

/// A size given in MiB by `name` (default `def_mb`), returned in bytes. A
/// value whose byte count would overflow also takes the default.
inline std::size_t EnvMb(const char* name, std::size_t def_mb) {
  std::size_t mb = EnvCount(name, def_mb);
  if (mb > (SIZE_MAX >> 20)) mb = def_mb;
  return mb << 20;
}

}  // namespace xqmft

#endif  // XQMFT_BENCH_COMMON_ENV_H_
