// Streaming (pull) XML parser.
//
// The paper's engine sits behind Expat; this reproduction implements its own
// parser so the whole system is self-contained. Supported: elements,
// attributes, character data with entity references, CDATA, comments,
// processing instructions, DOCTYPE (skipped). Not supported (out of scope for
// the paper's workloads): namespaces-aware processing, DTD entity definitions.
//
// The lexer is bulk-scanning: the three dominant states — text until '<',
// name characters, attribute value until the quote — run memchr/char-class
// scans over the refill window instead of per-character pulls, and events are
// zero-copy (events.h): text views alias the window directly when a run is
// contiguous and entity-free, element names alias the symbol table (stable),
// and only the slow path — entities, CDATA splices, runs crossing a Refill()
// boundary — lands in a per-parser spill arena. Sources that expose their
// whole input as one region (StringSource, MmapSource) are scanned in place
// with no buffer copies at all.
//
// SkipSubtree (the EventSource hook the source projection calls on a
// rejected start) steps over a subtree's bytes without building events. A
// raw-pointer loop over the window handles plain text, start and end tags
// and attribute values with the same Scan* helpers; it compares each end
// tag byte for byte against a stack of name spans and accounts lines once
// per stretch. Anything else — a comment, CDATA, a PI or DOCTYPE, an entity
// reference, a construct crossing a refill boundary, any irregularity —
// goes to a checked slow path at the start of that construct, which lexes
// it with the same helpers Next() uses. So skip mode accepts and rejects
// exactly what a full pull does, with the same Status message and
// position; it only never interns names or decodes values it drops.
#ifndef XQMFT_XML_SAX_PARSER_H_
#define XQMFT_XML_SAX_PARSER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/forest.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Abstract byte source for the parser.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  /// Reads up to `n` bytes into `buf`; returns bytes read, 0 at end of input.
  virtual std::size_t Read(char* buf, std::size_t n) = 0;
  /// If the whole input is available as one contiguous region that stays
  /// valid for the source's lifetime (in-memory string, mmap), exposes it
  /// and returns true; the parser then scans the region in place and never
  /// calls Read().
  virtual bool Contents(std::string_view* out) {
    (void)out;
    return false;
  }
};

/// In-memory byte source (does not own the string).
class StringSource : public ByteSource {
 public:
  explicit StringSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override;
  bool Contents(std::string_view* out) override {
    *out = s_;
    return true;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Buffered stdio file source; owns and closes the handle.
class FileSource : public ByteSource {
 public:
  /// Opens `path` for reading; returns an error Status if it cannot.
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path);
  ~FileSource() override;
  std::size_t Read(char* buf, std::size_t n) override;

 private:
  explicit FileSource(std::FILE* f) : f_(f) {}
  std::FILE* f_;
};

/// Memory-mapped file source: the parser scans the mapping in place, so file
/// input pays no stdio copy. Open() falls back to a FileSource on platforms
/// without mmap, on empty files, and on any mapping failure — callers always
/// get a working ByteSource for a readable file.
class MmapSource : public ByteSource {
 public:
  static Result<std::unique_ptr<ByteSource>> Open(const std::string& path);
  ~MmapSource() override;
  std::size_t Read(char* buf, std::size_t n) override;
  bool Contents(std::string_view* out) override {
    *out = std::string_view(static_cast<const char*>(map_), size_);
    return true;
  }

 private:
  MmapSource(void* map, std::size_t size) : map_(map), size_(size) {}
  void* map_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Empty: tokenization is fixed. Attributes always expand into leading
/// child elements with one text child (the paper's encoding, Section 2),
/// and whitespace-only text is always dropped. Kept for bench/xqbench,
/// which still spells it.
struct SaxOptions {};

/// \brief Pull parser: call Next() repeatedly until kEndOfDocument.
///
/// The parser validates tag nesting; a mismatched or unclosed tag yields an
/// InvalidArgument status.
class SaxParser : public EventSource {
 public:
  /// If `symbols` is null the parser owns a private table; pass a shared one
  /// to keep ids consistent with a consumer (the streaming engine passes the
  /// table its rule dispatch was compiled against).
  explicit SaxParser(ByteSource* source, SymbolTable* symbols = nullptr);
  /// Ignores the options; kept for bench/xqbench, which still passes them.
  SaxParser(ByteSource* source, SaxOptions) : SaxParser(source) {}

  /// Produces the next event. After kEndOfDocument, keeps returning it.
  /// Event views are valid until the next call (events.h contract).
  Status Next(XmlEvent* event) override;

  /// Number of bytes consumed so far.
  std::size_t bytes_consumed() const override { return bytes_consumed_; }

  /// Steps over the subtree of the start just returned (see the file
  /// comment), dropping its queued attribute and self-closing events.
  Status SkipSubtree(std::uint64_t* events) override;

  /// Re-points name interning at `symbols`; call before the first Next().
  void BindSymbols(SymbolTable* symbols) override { symbols_ = symbols; }

  /// 1-based line of the next unread byte.
  std::size_t line() const { return line_; }
  /// 1-based column (byte offset within the line) of the next unread byte.
  std::size_t column() const { return bytes_consumed_ - line_start_ + 1; }

  /// The table element names are interned into.
  const SymbolTable& symbols() const { return *symbols_; }

 private:
  // A synthetic event queued behind a start tag (attribute encoding,
  // self-closing end). Text payloads are (offset, length) into tag_spill_
  // so the arena can reallocate while the tag is still being lexed.
  struct PendingEvent {
    XmlEventType type;
    SymbolId symbol;
    std::uint32_t text_off;
    std::uint32_t text_len;
  };
  struct AttrRecord {
    SymbolId symbol;
    std::uint32_t value_off;
    std::uint32_t value_len;
  };

  int GetChar();
  int PeekChar();
  bool Refill();
  /// Consumes `n` bytes of the current window, tracking newlines in bulk.
  void Advance(std::size_t n);
  /// Consumes ASCII whitespace (across refills).
  void SkipWs();
  Status Fail(const std::string& msg) const;

  Status LexMarkup(XmlEvent* event);
  Status LexText(XmlEvent* event);
  /// Scans one XML name. The returned view aliases the window (fast path)
  /// or name_spill_ (name split across a refill); both are invalidated by
  /// the next LexName/Refill, so callers intern or compare immediately.
  Status LexName(std::string_view* out);
  Status LexAttrValue(std::uint32_t* off, std::uint32_t* len);
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status SkipDoctype();
  Status LexCdata(std::string_view* out);
  Status DecodeEntity(std::string* out);

  // Subtree skipping. `depth` counts open elements of the skipped subtree,
  // its root included; names of the elements below the root sit on
  // skip_stack_ (the root's is open_.back()).
  Status SkipConstructSlow(std::size_t* depth, std::uint64_t* events);
  void PushSkipName(std::string_view name);
  void PopSkipName();
  std::string_view SkipTopName() const;

  ByteSource* source_;
  SymbolTable owned_symbols_;     // used when no shared table is supplied
  SymbolTable* symbols_;

  // Scan window: the whole input (mapped sources) or buf_ (refilled).
  const char* data_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool mapped_ = false;
  std::vector<char> buf_;

  std::size_t bytes_consumed_ = 0;
  std::size_t line_ = 1;          // 1-based line of the next unread byte
  std::size_t line_start_ = 0;    // bytes_consumed_ at the start of line_
  bool eof_ = false;
  bool done_ = false;
  std::vector<SymbolId> open_;    // element stack for well-formedness
  bool last_start_closed_ = false;  // the last start tag was self-closing

  // Spill arenas (reused, no steady-state allocation): text/CDATA runs that
  // cross a refill or contain entities; names split across a refill;
  // attribute values (always spilled — they must survive until the tag's
  // synthetic events drain).
  std::string text_spill_;
  std::string name_spill_;
  std::string tag_spill_;
  std::vector<AttrRecord> attrs_scratch_;
  std::vector<PendingEvent> pending_;
  std::size_t pending_head_ = 0;

  // Names of open elements inside a skipped subtree: offsets into the
  // input for mapped sources (stable), into skip_names_ otherwise.
  struct NameSpan {
    std::size_t off;
    std::size_t len;
  };
  std::vector<NameSpan> skip_stack_;
  std::string skip_names_;
};

/// Parses a whole document (or forest of documents) into a DOM Forest.
Result<Forest> ParseXmlForest(std::string_view xml);

/// Parses a file into a DOM Forest (memory-mapped when the platform allows).
/// The options are ignored; the parameter is kept for bench/xqbench, which
/// still passes them.
Result<Forest> ParseXmlFile(const std::string& path, SaxOptions = {});

}  // namespace xqmft

#endif  // XQMFT_XML_SAX_PARSER_H_
