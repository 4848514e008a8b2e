// Fault injection at the event-stream boundary.
//
// FaultInjectingSource wraps any EventSource and misbehaves on cue at a
// chosen event index: truncating the stream (premature end-of-document, the
// shape of a dropped connection mid-transfer), failing it (an I/O error
// surfacing from the source), or stalling it (a slow producer, which is how
// tests hold a worker busy to fill admission queues and trip deadlines
// deterministically). The stress suite drives a server through every kind
// and asserts the blast radius stays one request wide.
//
// This lives in service/ rather than a test helper because the wire layer
// exposes it (behind an opt-in flag) as the request-level "fault" field —
// the fault-injection harness the serving stack is tested with end to end.
#ifndef XQMFT_SERVICE_FAULT_H_
#define XQMFT_SERVICE_FAULT_H_

#include <cstdint>
#include <string_view>

#include "util/status.h"
#include "xml/event_source.h"

namespace xqmft {

/// \brief What to inject, and where in the event stream.
struct FaultSpec {
  enum class Kind {
    kNone,      ///< pass-through
    kTruncate,  ///< events [at_event, ...) become end-of-document
    kError,     ///< event at_event becomes an InvalidArgument error
    kStall,     ///< sleep stall_ms once, before event at_event, then resume
  };
  Kind kind = Kind::kNone;
  /// Zero-based index of the first affected event.
  std::uint64_t at_event = 0;
  /// kStall only: how long the one-shot stall lasts.
  std::uint64_t stall_ms = 0;
};

/// Parses a wire-protocol kind string ("truncate", "error", "stall", "none");
/// returns false on an unknown name.
bool ParseFaultKind(std::string_view name, FaultSpec::Kind* kind);

/// \brief EventSource decorator applying a FaultSpec to a wrapped source.
///
/// The wrapped source must outlive this one. A kNone spec is a transparent
/// pass-through, so callers can wrap unconditionally. SkipSubtree is the
/// EventSource pull-and-drop default, so `at_event` counts every event of
/// the input whether or not a projection skips it.
class FaultInjectingSource : public EventSource {
 public:
  FaultInjectingSource(EventSource* inner, FaultSpec spec)
      : inner_(inner), spec_(spec) {}

  Status Next(XmlEvent* event) override;
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }

  /// Events handed out so far (injected end-of-documents included).
  std::uint64_t events_produced() const { return produced_; }

 private:
  EventSource* inner_;
  FaultSpec spec_;
  std::uint64_t produced_ = 0;
  bool stalled_ = false;
};

}  // namespace xqmft

#endif  // XQMFT_SERVICE_FAULT_H_
