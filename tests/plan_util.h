// Transducer-level streaming for the test suites: an Mft (hand-written, or
// the transducer of a compiled plan) streamed as a FromMft plan. Such a
// plan is whole_document, so the run is unprojected — the engine-core and
// "projection off" reference of the differential tests — and it goes
// through the same plan-level pass as every other run.

#ifndef XQMFT_TESTS_PLAN_UTIL_H_
#define XQMFT_TESTS_PLAN_UTIL_H_

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "mft/mft.h"
#include "stream/engine.h"
#include "util/cancel.h"
#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"

namespace xqmft {

// Streams `events` through `mft` under `options` (a FromMft plan's baked
// options), with `cancel` as the run's token.
inline Status StreamMftEvents(const Mft& mft, EventSource* events,
                              OutputSink* sink, StreamOptions options = {},
                              StreamStats* stats = nullptr,
                              const CancelToken* cancel = nullptr) {
  PipelineOptions po;
  po.stream = options;
  XQMFT_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledPlan> plan,
                         CompiledPlan::FromMft(mft, po));
  return plan->StreamEvents(events, sink, stats, cancel);
}

// StreamMftEvents over an in-memory document.
inline Status StreamMftString(const Mft& mft, const std::string& xml,
                              OutputSink* sink, StreamOptions options = {},
                              StreamStats* stats = nullptr,
                              const CancelToken* cancel = nullptr) {
  StringSource source(xml);
  SaxParser parser(&source);
  return StreamMftEvents(mft, &parser, sink, options, stats, cancel);
}

}  // namespace xqmft

#endif  // XQMFT_TESTS_PLAN_UTIL_H_
