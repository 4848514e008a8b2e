#include "parallel/merge_sink.h"

#include "util/varint.h"

namespace xqmft {

void EventBuffer::Put(Op op, std::string_view payload) {
  log_.push_back(static_cast<char>(op));
  PutVarint(&log_, payload.size());
  log_.append(payload.data(), payload.size());
}

void EventBuffer::Replay(OutputSink* sink) const {
  std::size_t pos = 0;
  while (pos < log_.size()) {
    char op = log_[pos++];
    std::uint64_t len = 0;
    XQMFT_CHECK(ReadVarint(log_, &pos, &len));
    XQMFT_CHECK(log_.size() - pos >= len);
    std::string_view payload(log_.data() + pos, len);
    pos += len;
    switch (op) {
      case kStart:
        sink->StartElement(payload);
        break;
      case kEnd:
        sink->EndElement(payload);
        break;
      case kText:
        sink->Text(payload);
        break;
      default:
        XQMFT_CHECK(false && "corrupt EventBuffer frame");
    }
  }
}

OrderedMerge::OrderedMerge(OutputSink* downstream, std::size_t shard_count)
    : downstream_(downstream),
      slots_(shard_count),
      first_failed_(shard_count) {}

void OrderedMerge::Commit(std::size_t index, EventBuffer buffer,
                          Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  XQMFT_CHECK(index < slots_.size());
  Slot& slot = slots_[index];
  XQMFT_CHECK(!slot.committed);
  slot.committed = true;
  slot.buffer = std::move(buffer);
  slot.status = std::move(status);
  if (!slot.status.ok() && index < first_failed_) first_failed_ = index;
  // Flush the committed prefix. Stop permanently at the first failed slot:
  // downstream only ever sees the in-order output of an OK prefix.
  while (next_ < slots_.size() && slots_[next_].committed &&
         slots_[next_].status.ok()) {
    slots_[next_].buffer.Replay(downstream_);
    slots_[next_].buffer.clear();
    ++next_;
  }
}

std::size_t OrderedMerge::first_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failed_;
}

Status OrderedMerge::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (first_failed_ < slots_.size()) return slots_[first_failed_].status;
  // A hole with no error means a worker vanished without committing — an
  // executor invariant violation, not a data condition.
  for (const Slot& slot : slots_) XQMFT_CHECK(slot.committed);
  return Status::OK();
}

}  // namespace xqmft
