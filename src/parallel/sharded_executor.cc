#include "parallel/sharded_executor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace xqmft {

namespace {

// Worker counts above the hardware's are allowed up to this many, so a
// small host can still overlap blocking items; beyond it a pool only adds
// threads. A constant, not a knob: output never depends on the count.
constexpr std::size_t kMinWorkerCap = 64;

// Resolved worker count (>= 1): 0 means one per hardware thread, and every
// count is clamped to the items and to max(hardware threads, 64), so no
// request can start more threads than that, whatever it asks for. The
// hardware count costs a few microseconds to read, so a count within the
// constant cap does not ask for it.
std::size_t ResolveThreads(std::size_t threads, std::size_t item_count) {
  if (threads == 0 || threads > kMinWorkerCap) {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t hw_threads = hw == 0 ? 1 : hw;
    threads = threads == 0
                  ? hw_threads
                  : std::min(threads, std::max(hw_threads, kMinWorkerCap));
  }
  threads = std::min(threads, item_count);
  return threads == 0 ? 1 : threads;
}

}  // namespace

void ShardedExecutor::ForEach(std::size_t item_count, std::size_t threads,
                              const std::function<bool(std::size_t)>& work) {
  if (item_count == 0) return;
  threads = ResolveThreads(threads, item_count);
  // The work queue: a shared atomic cursor. Workers steal the next
  // unclaimed index as they finish, so slow items never gate fast ones
  // (dynamic load balancing at item granularity).
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  auto worker = [&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= item_count) return;
      if (!work(i)) stop.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker N-1
  for (std::thread& t : pool) t.join();
}

}  // namespace xqmft
