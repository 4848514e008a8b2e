// XML stream events and output sinks.
//
// The streaming pipeline is event-based end to end: an event source (the SAX
// parser, or a pre-tokenized reader) produces events, the streaming MFT
// engine consumes them and pushes output events into an OutputSink.
//
// Element names travel as interned SymbolIds (xml/symbol_table.h): the parser
// interns each start-tag name once and every downstream layer — cells, rule
// dispatch, output thunks — works with the dense id.
//
// Events are zero-copy: `name` and `text` are std::string_view fields that
// alias storage owned by the producer — the symbol table for names (stable
// for the table's lifetime) and the parse buffer or the producer's spill
// arena for text. The views are valid only until the producer's next Next()
// call; a consumer that buffers an event beyond that point must copy the
// bytes it needs (CellBuilder copies text into cells, the DOM builder copies
// labels into Trees). Text *content* is never interned: it is unbounded
// data, not part of the transducer alphabet.
#ifndef XQMFT_XML_EVENTS_H_
#define XQMFT_XML_EVENTS_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "util/strings.h"
#include "xml/symbol_table.h"

namespace xqmft {

enum class XmlEventType {
  kStartElement,
  kEndElement,
  kText,
  kEndOfDocument,
};

/// \brief One parsing event. All views are valid until the producer's next
/// Next() call (see the header comment for the lifetime contract).
struct XmlEvent {
  XmlEventType type = XmlEventType::kEndOfDocument;
  /// Interned element name (start/end); kInvalidSymbol for hand-built events
  /// that only set `name` (CellBuilder interns those lazily).
  SymbolId symbol = kInvalidSymbol;
  std::string_view name;  ///< element name (start/end)
  std::string_view text;  ///< character data (kText)
};

/// \brief Receiver of output XML events. Names and content arrive as views;
/// the emitting engine resolves interned ids to views exactly once, here at
/// the boundary. Views are valid only for the duration of the call.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual void StartElement(std::string_view name) = 0;
  virtual void EndElement(std::string_view name) = 0;
  virtual void Text(std::string_view content) = 0;
};

/// Accumulates serialized markup into a string (tests, examples).
class StringSink : public OutputSink {
 public:
  void StartElement(std::string_view name) override {
    out_ += '<';
    out_ += name;
    out_ += '>';
  }
  void EndElement(std::string_view name) override {
    out_ += "</";
    out_ += name;
    out_ += '>';
  }
  void Text(std::string_view content) override { out_ += XmlEscape(content); }

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Counts events and output bytes without buffering anything (benchmarks).
/// Byte accounting matches what StringSink/FileSink would serialize: both
/// tags of an element are charged at StartElement, and text is charged at
/// its escaped size, so on balanced streams bytes() == StringSink size.
class CountingSink : public OutputSink {
 public:
  void StartElement(std::string_view name) override {
    ++elements_;
    bytes_ += name.size() * 2 + 5;  // <name> plus </name>
  }
  void EndElement(std::string_view) override {}
  void Text(std::string_view content) override {
    ++texts_;
    bytes_ += XmlEscapedSize(content);
  }

  std::size_t elements() const { return elements_; }
  std::size_t texts() const { return texts_; }
  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t elements_ = 0;
  std::size_t texts_ = 0;
  std::size_t bytes_ = 0;
};

/// Writes markup to a stdio stream with an internal buffer.
class FileSink : public OutputSink {
 public:
  explicit FileSink(std::FILE* f) : f_(f) { buf_.reserve(kFlushAt * 2); }
  ~FileSink() override { Flush(); }

  void StartElement(std::string_view name) override {
    buf_ += '<';
    buf_ += name;
    buf_ += '>';
    MaybeFlush();
  }
  void EndElement(std::string_view name) override {
    buf_ += "</";
    buf_ += name;
    buf_ += '>';
    MaybeFlush();
  }
  void Text(std::string_view content) override {
    buf_ += XmlEscape(content);
    MaybeFlush();
  }

  void Flush() {
    if (!buf_.empty()) {
      std::fwrite(buf_.data(), 1, buf_.size(), f_);
      buf_.clear();
    }
  }

 private:
  static constexpr std::size_t kFlushAt = 1 << 16;
  void MaybeFlush() {
    if (buf_.size() >= kFlushAt) Flush();
  }
  std::FILE* f_;
  std::string buf_;
};

}  // namespace xqmft

#endif  // XQMFT_XML_EVENTS_H_
