// Deterministic ordered merge of per-shard output streams.
//
// Parallel shard workers finish in whatever order the scheduler produces,
// but the system's determinism contract is that output reaches the
// downstream sink in *input order*, byte-identical to a serial run. Each
// worker therefore records its shard's output events into an EventBuffer (a
// compact framed byte log, not a sink-specific serialization, so any
// OutputSink — StringSink, DagSink, CountingSink — can sit downstream), and
// an OrderedMerge replays committed buffers strictly by shard index.
//
// Error contract: the first (lowest shard index) non-OK commit becomes the
// whole run's Status; the downstream sink receives exactly the in-order
// output of the successful shards before it and nothing after. Commit never
// blocks on other shards, so a failing worker cannot deadlock the merge.
#ifndef XQMFT_PARALLEL_MERGE_SINK_H_
#define XQMFT_PARALLEL_MERGE_SINK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/events.h"

namespace xqmft {

/// \brief OutputSink that records events into a flat framed byte log.
///
/// Frame: 1 opcode byte (start/end/text), LEB128 payload length, payload
/// bytes — the same varint coding as the pretok format, so a shard's output
/// costs one contiguous string however many events it holds.
class EventBuffer : public OutputSink {
 public:
  void StartElement(std::string_view name) override { Put(kStart, name); }
  void EndElement(std::string_view name) override { Put(kEnd, name); }
  void Text(std::string_view content) override { Put(kText, content); }

  /// Replays every recorded event, in order, into `sink`.
  void Replay(OutputSink* sink) const;

  bool empty() const { return log_.empty(); }
  void clear() { log_.clear(); }

 private:
  enum Op : char { kStart = 1, kEnd = 2, kText = 3 };

  void Put(Op op, std::string_view payload);

  std::string log_;
};

/// \brief Reorders shard outputs back into input order.
///
/// One slot per shard. Workers call Commit(index, ...) exactly once, from
/// any thread, in any order; the merge flushes the longest committed prefix
/// to the downstream sink under its lock. Finish() (call after all workers
/// stopped) returns the run's overall Status.
class OrderedMerge {
 public:
  OrderedMerge(OutputSink* downstream, std::size_t shard_count);

  /// Hands over shard `index`'s output and completion status. Thread-safe.
  void Commit(std::size_t index, EventBuffer buffer, Status status);

  /// The lowest shard index committed with a failure so far (the shard
  /// count while none has). The merge never flushes a shard above it, so a
  /// worker may skip those (committing any error in their place).
  std::size_t first_failed() const;

  /// Overall run status: OK iff every shard committed OK; otherwise the
  /// error of the lowest-index failed shard. Uncommitted slots are only
  /// legal after an error (workers cancelled); with no error they are an
  /// executor bug and abort.
  Status Finish();

 private:
  struct Slot {
    bool committed = false;
    EventBuffer buffer;
    Status status;
  };

  mutable std::mutex mu_;
  OutputSink* downstream_;
  std::vector<Slot> slots_;
  std::size_t next_ = 0;   // first slot not yet flushed downstream
  std::size_t first_failed_;  // lowest failed slot; slots_.size() if none
};

}  // namespace xqmft

#endif  // XQMFT_PARALLEL_MERGE_SINK_H_
