// Shared event-trace scaffolding for the parser and pretok suites. The
// differential tests in xml_test.cc and pretok_test.cc must compare the
// *same* notion of an event trace, so it lives here once: an owned-string
// event record (independent of view lifetimes), Trace() over any
// EventSource or raw bytes, a Read()-only source that forces the refill
// path, and the subtree-skip differential (SkipLog) that compares a
// source's SkipSubtree against EventSource's pull-and-drop default.

#ifndef XQMFT_TESTS_EVENT_TRACE_UTIL_H_
#define XQMFT_TESTS_EVENT_TRACE_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

// One event with owned strings: the trace a parse produces, independent of
// view lifetimes.
struct TracedEvent {
  XmlEventType type;
  std::string name;
  std::string text;

  bool operator==(const TracedEvent& o) const {
    return type == o.type && name == o.name && text == o.text;
  }
};

inline Result<std::vector<TracedEvent>> Trace(EventSource* src) {
  std::vector<TracedEvent> out;
  XmlEvent ev;
  do {
    XQMFT_RETURN_NOT_OK(src->Next(&ev));
    out.push_back({ev.type, std::string(ev.name), std::string(ev.text)});
  } while (ev.type != XmlEventType::kEndOfDocument);
  return out;
}

inline Result<std::vector<TracedEvent>> Trace(ByteSource* src) {
  SaxParser parser(src);
  return Trace(static_cast<EventSource*>(&parser));
}

// Read()-only source that hands out at most `chunk` bytes per call and never
// exposes Contents(), so the parser refills — with chunk = 1 every scan
// state crosses a window boundary.
class ChunkedSource : public ByteSource {
 public:
  ChunkedSource(std::string_view s, std::size_t chunk)
      : s_(s), chunk_(chunk) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t take = std::min({n, chunk_, s_.size() - pos_});
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string_view s_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

// Forwards everything but SkipSubtree, so a skip through it takes the
// EventSource pull-and-drop default: the oracle every SkipSubtree override
// must match.
class PullOnlySource : public EventSource {
 public:
  explicit PullOnlySource(EventSource* inner) : inner_(inner) {}
  Status Next(XmlEvent* event) override { return inner_->Next(event); }
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }

 private:
  EventSource* inner_;
};

// Pulls `src` to the end (or its first error), calling SkipSubtree on every
// start event `skip(index, name)` selects (`index` counts the starts pulled
// so far), and logs every event, every completed skip with its event count,
// the final Status and bytes_consumed(). Two sources behave alike under skipping
// iff their logs are equal.
inline std::string SkipLog(
    EventSource* src,
    const std::function<bool(std::size_t, std::string_view)>& skip) {
  std::string log;
  XmlEvent ev;
  std::size_t starts = 0;
  Status st;
  while (true) {
    st = src->Next(&ev);
    if (!st.ok() || ev.type == XmlEventType::kEndOfDocument) break;
    switch (ev.type) {
      case XmlEventType::kStartElement:
        log += "<" + std::string(ev.name) + ">";
        break;
      case XmlEventType::kEndElement:
        log += "</" + std::string(ev.name) + ">";
        break;
      default:
        log += "[" + std::string(ev.text) + "]";
        break;
    }
    if (ev.type == XmlEventType::kStartElement && skip(starts++, ev.name)) {
      std::uint64_t events = 0;
      st = src->SkipSubtree(&events);
      // The count is only defined for a completed skip.
      if (!st.ok()) break;
      log += "{skip " + std::to_string(events) + "}";
    }
  }
  return log + " | " + st.ToString() + " @" +
         std::to_string(src->bytes_consumed());
}

// An input held in a heap buffer of exactly its size (std::string's
// terminating NUL would hide a one-byte overread from ASan).
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view s)
      : data_(new char[s.size() == 0 ? 1 : s.size()]), size_(s.size()) {
    std::memcpy(data_.get(), s.data(), s.size());
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t size_;
};

}  // namespace xqmft

#endif  // XQMFT_TESTS_EVENT_TRACE_UTIL_H_
