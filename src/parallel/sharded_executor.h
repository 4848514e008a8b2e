// The worker pool of document-set parallelism: fan independent items (the
// documents of a Run) across N worker threads.
//
// Engine runs share no mutable state (each has its own run-local
// SymbolTable copy, slab arenas and EventSource), so items need no
// synchronization beyond the work queue: each worker runs its own engines
// against its own event source and records output into private
// EventBuffers.
//
// The pool is engine-agnostic and does no merging itself. Its caller pairs
// it with one OrderedMerge per output stream (parallel/merge_sink.h), as
// Run does per plan; that merge is what makes the output byte-identical to
// a serial run for any thread count. The test suite stresses the pair with
// injected delays and mid-item errors without standing up real engines.
#ifndef XQMFT_PARALLEL_SHARDED_EXECUTOR_H_
#define XQMFT_PARALLEL_SHARDED_EXECUTOR_H_

#include <cstddef>
#include <functional>

namespace xqmft {

/// \brief Runs indexed work items across worker threads.
class ShardedExecutor {
 public:
  /// Calls `work(i)` at most once for each i in [0, item_count), claiming
  /// indices in increasing order across `threads` workers (0 = one per
  /// hardware thread; clamped to the item count and to the larger of the
  /// hardware thread count and 64). Once a call returns false no worker
  /// claims another index. One worker runs the items in order on the
  /// calling thread and starts no thread; with more, the calling thread is
  /// worker N-1. Blocks until every claimed item returned.
  static void ForEach(std::size_t item_count, std::size_t threads,
                      const std::function<bool(std::size_t)>& work);
};

}  // namespace xqmft

#endif  // XQMFT_PARALLEL_SHARDED_EXECUTOR_H_
