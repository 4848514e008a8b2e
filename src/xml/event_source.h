// Abstract producer of XML stream events.
//
// The streaming engine consumes events, not bytes: anything that can produce
// the kStartElement/kText/kEndElement/kEndOfDocument sequence can drive it.
// Implementations: SaxParser (text XML, xml/sax_parser.h) and PretokSource
// (the pre-tokenized binary event format, xml/pretok.h).
//
// Subtree skipping. A consumer that decides, at a start event, that nothing
// below it matters (the source projection, multiquery/union_projection.h)
// calls SkipSubtree() instead of pulling the subtree event by event. The
// base implementation pulls and drops; SaxParser steps over the bytes
// without building events and PretokSource walks records without decoding
// them. Every implementation reports exactly the errors a full pull of the
// same subtree would, with the same Status.
#ifndef XQMFT_XML_EVENT_SOURCE_H_
#define XQMFT_XML_EVENT_SOURCE_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"
#include "xml/events.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Pull interface over an event stream.
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Produces the next event. After kEndOfDocument, keeps returning it.
  /// Views in `*event` are valid until the next call (events.h contract).
  virtual Status Next(XmlEvent* event) = 0;

  /// Consumes the rest of the subtree whose kStartElement the last Next()
  /// returned, through its matching end, and adds to `*events` the number
  /// of events a full pull would have produced (the end included). Call
  /// only directly after a kStartElement. An input that ends inside the
  /// subtree without an error (a truncating decorator) stops the skip; the
  /// next Next() then returns kEndOfDocument.
  virtual Status SkipSubtree(std::uint64_t* events) {
    XmlEvent event;
    std::size_t depth = 1;
    while (depth > 0) {
      XQMFT_RETURN_NOT_OK(Next(&event));
      if (event.type == XmlEventType::kEndOfDocument) break;
      if (event.type == XmlEventType::kStartElement) ++depth;
      if (event.type == XmlEventType::kEndElement) --depth;
      ++*events;
    }
    return Status::OK();
  }

  /// Bytes of underlying input consumed so far (text XML bytes for the
  /// parser, pretok file bytes for a pre-tokenized source).
  virtual std::size_t bytes_consumed() const = 0;

  /// Re-points the source at the consumer's symbol table so event ids share
  /// its id space (the engine binds its per-run table copy before pulling).
  /// Must be called before the first Next().
  virtual void BindSymbols(SymbolTable* symbols) = 0;
};

}  // namespace xqmft

#endif  // XQMFT_XML_EVENT_SOURCE_H_
