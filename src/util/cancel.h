// Cooperative cancellation for streaming runs.
//
// A CancelToken carries two independent abort signals — an explicit cancel
// flag (client disconnect, operator abort) and an optional monotonic-clock
// deadline — behind one cheap Check() the engines poll between input events.
// Cancellation is cooperative: nothing is interrupted mid-event; the engine
// observes the token at its next check boundary, records the resulting
// status as its sticky run error, and stops without emitting further output
// (see the cancelled-run contract on stream/engine.h).
//
// Thread-safety: Cancel() / SetDeadline*() may race with Check() from
// another thread (the serving layer cancels from its event loop while a
// worker streams). All state is atomic; the token itself must outlive every
// run holding a pointer to it.
#ifndef XQMFT_UTIL_CANCEL_H_
#define XQMFT_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/status.h"

namespace xqmft {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation: every Check() from now on returns kCancelled.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms the deadline at an absolute steady_clock instant. Later of two
  /// arms wins (the token is per-request; re-arming is a caller bug, but a
  /// harmless one).
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
    has_deadline_.store(true, std::memory_order_release);
  }

  /// Arms the deadline `ms` milliseconds after `base` (defaulting to now) —
  /// serving layers pass the request's admission instant as `base` so queue
  /// wait counts against the budget. A budget past the clock's range
  /// saturates at its maximum (never trips) instead of wrapping into the
  /// past.
  void SetDeadlineAfterMs(std::uint64_t ms,
                          std::chrono::steady_clock::time_point base =
                              std::chrono::steady_clock::now()) {
    using Clock = std::chrono::steady_clock;
    const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - base);
    SetDeadline(ms >= static_cast<std::uint64_t>(headroom.count())
                    ? Clock::time_point::max()
                    : base + std::chrono::milliseconds(ms));
  }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }

  /// Milliseconds of deadline budget left: the distance to the armed
  /// deadline (0 once it passed, and 0 after Cancel() — a cancelled request
  /// has no budget), or kNoDeadline when no deadline is armed.
  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};
  std::uint64_t RemainingMs() const {
    if (cancelled_.load(std::memory_order_relaxed)) return 0;
    if (!has_deadline_.load(std::memory_order_acquire)) return kNoDeadline;
    const auto now =
        std::chrono::steady_clock::now().time_since_epoch().count();
    const auto deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (now >= deadline) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::duration(deadline - now))
            .count());
  }

  /// OK while the run may continue; kCancelled after Cancel(), or
  /// kDeadlineExceeded once the armed deadline passes. Reads the clock only
  /// when a deadline is armed.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("request cancelled");
    }
    if (has_deadline_.load(std::memory_order_acquire)) {
      const auto now =
          std::chrono::steady_clock::now().time_since_epoch().count();
      if (now >= deadline_ns_.load(std::memory_order_relaxed)) {
        return Status::DeadlineExceeded("deadline exceeded");
      }
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::chrono::steady_clock::rep> deadline_ns_{0};
};

}  // namespace xqmft

#endif  // XQMFT_UTIL_CANCEL_H_
