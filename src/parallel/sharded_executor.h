// Parallel sharded execution: fan a workload of independent items across N
// worker threads, merging outputs at the sink boundary in input order.
//
// PR 2 (per-run SymbolTable copies, per-engine slab arenas) and PR 3 (the
// EventSource boundary) removed every piece of shared mutable state between
// engine runs, so shards need no synchronization beyond the work queue and
// the ordered merge: each worker runs its own engine against its own event
// source and records output into a private EventBuffer.
//
// The executor itself is engine-agnostic — an item is any
// Status(index, OutputSink*) callable — which is also what lets the test
// suite stress the ordered merge with injected delays and mid-shard errors
// without standing up real engines.
//
// Determinism contract: for items that all succeed, the downstream sink
// receives exactly the concatenation, in input order, of what each item
// wrote to its per-item sink — byte-identical to running the items serially
// into the downstream sink, for any thread count. On failure the run's
// Status is the lowest-index failed item's error, the sink holds an
// in-order prefix of successful items, and remaining items may be skipped.
#ifndef XQMFT_PARALLEL_SHARDED_EXECUTOR_H_
#define XQMFT_PARALLEL_SHARDED_EXECUTOR_H_

#include <cstddef>
#include <functional>

#include "util/status.h"
#include "xml/events.h"

namespace xqmft {

/// \brief Runs indexed work items across worker threads with ordered merge.
class ShardedExecutor {
 public:
  /// One work item: stream item `index`'s output into `sink`. Called at
  /// most once per index, possibly concurrently with other indices, never
  /// concurrently for one index. Item state must not be shared mutably
  /// across indices.
  using ItemFn = std::function<Status(std::size_t index, OutputSink* sink)>;

  /// Executes items [0, item_count) across `threads` workers (0 = one per
  /// hardware thread; clamped to the item count and to the larger of the
  /// hardware thread count and 64) and merges their output
  /// into `downstream` in index order. Blocks until done.
  static Status Run(std::size_t item_count, const ItemFn& item,
                    OutputSink* downstream, std::size_t threads);

  /// The worker pool under Run, for callers that merge themselves (one
  /// OrderedMerge per output stream): calls `work(i)` at most once for each
  /// i in [0, item_count), claiming indices in increasing order across
  /// `threads` workers. Once a call returns false no worker claims another
  /// index. One worker runs the items in order on the calling thread and
  /// starts no thread; with more, the calling thread is worker N-1.
  static void ForEach(std::size_t item_count, std::size_t threads,
                      const std::function<bool(std::size_t)>& work);
};

}  // namespace xqmft

#endif  // XQMFT_PARALLEL_SHARDED_EXECUTOR_H_
