// Integer knobs the benchmark binaries read from the environment
// (XQMFT_BENCH_*): dataset sizes, item counts, thread counts. A knob that is
// unset, non-numeric, zero or negative takes its default, so a typo shrinks
// nothing to zero and cannot ask for an absurd allocation.
#ifndef XQMFT_BENCH_COMMON_ENV_H_
#define XQMFT_BENCH_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace xqmft {

/// A positive count from `name`, or `def`.
inline std::size_t EnvCount(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<std::size_t>(n) : def;
}

/// `mb` MiB in bytes, or 0 when `mb` is not positive or its byte count
/// would overflow.
inline std::size_t MbToBytes(long long mb) {
  if (mb <= 0 || static_cast<unsigned long long>(mb) > (SIZE_MAX >> 20)) {
    return 0;
  }
  return static_cast<std::size_t>(mb) << 20;
}

/// A size given in MiB by `name` (default `def_mb`), returned in bytes. A
/// value whose byte count would overflow also takes the default.
inline std::size_t EnvMb(const char* name, std::size_t def_mb) {
  const char* v = std::getenv(name);
  std::size_t bytes =
      v != nullptr ? MbToBytes(std::strtoll(v, nullptr, 10)) : 0;
  return bytes != 0 ? bytes : def_mb << 20;
}

/// A comma-separated list of MiB sizes from `name`, returned in bytes.
/// Entries that EnvMb would reject are dropped; when the knob is unset or
/// has no valid entry, `def_spec` is parsed instead.
inline std::vector<std::size_t> EnvMbList(const char* name,
                                          const char* def_spec) {
  const char* env = std::getenv(name);
  std::vector<std::size_t> out;
  for (const char* spec : {env, def_spec}) {
    for (const char* p = spec; p != nullptr; p = std::strchr(p, ',')) {
      if (*p == ',') ++p;
      std::size_t bytes = MbToBytes(std::strtoll(p, nullptr, 10));
      if (bytes != 0) out.push_back(bytes);
    }
    if (!out.empty()) break;
  }
  return out;
}

}  // namespace xqmft

#endif  // XQMFT_BENCH_COMMON_ENV_H_
