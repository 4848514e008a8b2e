#include "parallel/sharded_executor.h"

#include <atomic>
#include <thread>
#include <vector>

#include "parallel/merge_sink.h"

namespace xqmft {

namespace {

// Resolved worker count (>= 1): 0 means one per hardware thread, and the
// count is clamped to the items.
std::size_t ResolveThreads(std::size_t threads, std::size_t item_count) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  if (threads > item_count) threads = item_count;
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

Status ShardedExecutor::Run(std::size_t item_count, const ItemFn& item,
                            OutputSink* downstream, std::size_t threads) {
  // Output is staged per item at every thread count, so a failing item's
  // partial output never reaches the downstream sink, and the first
  // failure stops further items from starting.
  OrderedMerge merge(downstream, item_count);
  ForEach(item_count, threads, [&](std::size_t i) {
    EventBuffer buffer;
    Status st = item(i, &buffer);
    const bool ok = st.ok();
    merge.Commit(i, std::move(buffer), std::move(st));
    return ok;
  });
  return merge.Finish();
}

}  // namespace xqmft
