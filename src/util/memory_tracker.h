// Live-byte accounting for the streaming engines.
//
// The paper's Figure 4 reports maximum memory use per engine. Process RSS is
// too coarse at the scaled-down document sizes used in this reproduction, so
// each engine charges its dynamically sized structures (input cells, thunks,
// buffered subtrees) to a MemoryTracker and the benches report the peak.
#ifndef XQMFT_UTIL_MEMORY_TRACKER_H_
#define XQMFT_UTIL_MEMORY_TRACKER_H_

#include <cstddef>
#include <cstdint>

namespace xqmft {

/// \brief Tracks current and peak tracked bytes. Not thread-safe (the engines
/// are single-threaded).
class MemoryTracker {
 public:
  void Charge(std::size_t bytes) {
    current_ += bytes;
    if (current_ > peak_) peak_ = current_;
  }
  void Release(std::size_t bytes) {
    current_ -= bytes < current_ ? bytes : current_;
  }

  std::size_t current_bytes() const { return current_; }
  std::size_t peak_bytes() const { return peak_; }

  void Reset() { current_ = 0; peak_ = 0; }

 private:
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace xqmft

#endif  // XQMFT_UTIL_MEMORY_TRACKER_H_
