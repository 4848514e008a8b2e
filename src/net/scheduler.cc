#include "net/scheduler.h"

#include <cmath>
#include <utility>

namespace xqmft {

void RetryHint::Record(double service_ms) {
  if (service_ms < 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_sample_) {
    ewma_ms_ = service_ms;
    has_sample_ = true;
    return;
  }
  constexpr double kAlpha = 0.2;
  ewma_ms_ = kAlpha * service_ms + (1.0 - kAlpha) * ewma_ms_;
}

std::uint64_t RetryHint::HintMs(std::size_t queue_depth) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_sample_) return floor_ms_;
  const double hint = std::ceil(ewma_ms_ * static_cast<double>(queue_depth));
  if (hint <= static_cast<double>(floor_ms_)) return floor_ms_;
  return static_cast<std::uint64_t>(hint);
}

double RetryHint::ewma_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_sample_ ? ewma_ms_ : 0.0;
}

void Scheduler::Enqueue(std::shared_ptr<NetJob> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
}

std::shared_ptr<NetJob> Scheduler::Dequeue() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return stopped_ || !queue_.empty(); });
  if (queue_.empty()) return nullptr;  // stopped and drained
  std::shared_ptr<NetJob> job = std::move(queue_.front());
  queue_.pop_front();
  queued_.store(queue_.size(), std::memory_order_relaxed);
  return job;
}

void Scheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

}  // namespace xqmft
