// The job queue between admission and the worker pool, and the retry hint
// the admission path sheds load with.
//
// Scheduler is a FIFO: each worker dequeues one admitted request and runs
// it alone. A request over several documents is still one Run (one pass per
// document, spread over its threads), so the queue has no grouping of its
// own to do.
//
// RetryHint is the admission path's load-shedding companion: an EWMA of
// observed per-request service time turns the static retry_after_ms hint
// into one proportional to the work actually queued in front of the
// rejected client (hint = max(floor, queue depth × EWMA)) — deeper queue,
// larger hint, monotonically.
//
// Threading: Enqueue and queued() are called from the server's event-loop
// thread; Dequeue from worker threads; Stop from shutdown.
// RetryHint::Record comes from workers while HintMs is read on the event
// loop. Everything is internally synchronized.
#ifndef XQMFT_NET_SCHEDULER_H_
#define XQMFT_NET_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "service/json.h"
#include "util/cancel.h"

namespace xqmft {

/// One admitted request, shared between the connection (for
/// cancel-on-disconnect), the scheduler queue, and the worker running it.
struct NetJob {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  JsonValue json;
  CancelToken token;
};

/// \brief Load-proportional retry_after_ms hints for overload rejections.
///
/// With no completed requests observed yet the hint is the configured
/// static floor (so cold-start shedding keeps the configured value);
/// afterwards it is max(floor, ceil(depth × EWMA of per-request service
/// ms)) — monotone in the queue depth by construction.
class RetryHint {
 public:
  explicit RetryHint(std::uint64_t floor_ms) : floor_ms_(floor_ms) {}

  /// Records one completed request's service time (ms of worker time).
  void Record(double service_ms);

  /// The backoff hint for a client rejected while `queue_depth` jobs wait.
  std::uint64_t HintMs(std::size_t queue_depth) const;

  /// Current EWMA (0 before the first sample) — observability and tests.
  double ewma_ms() const;

 private:
  const std::uint64_t floor_ms_;
  mutable std::mutex mu_;
  double ewma_ms_ = 0.0;
  bool has_sample_ = false;
};

/// \brief The FIFO job queue the workers drain.
class Scheduler {
 public:
  /// Adds an admitted job (admission control — the queue-depth bound — is
  /// the caller's, via queued()).
  void Enqueue(std::shared_ptr<NetJob> job);

  /// Blocks until work or shutdown; returns the oldest job, or null once
  /// stopped and drained. Jobs queued before Stop() are still returned.
  std::shared_ptr<NetJob> Dequeue();

  /// Wakes every waiter; Dequeue keeps returning jobs until the queue is
  /// drained, then null.
  void Stop();

  /// Jobs waiting (admitted, not yet taken by a worker) — the admission
  /// bound and the depth behind RetryHint.
  std::size_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<NetJob>> queue_;
  bool stopped_ = false;
  std::atomic<std::size_t> queued_{0};
};

}  // namespace xqmft

#endif  // XQMFT_NET_SCHEDULER_H_
