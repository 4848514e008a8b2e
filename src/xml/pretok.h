// Pre-tokenized binary event format ("pretok").
//
// The SAX lexer is the last per-byte cost of the streaming pipeline; for
// repeated runs over the same document (benchmark sweeps, a serving frontend
// streaming a hot corpus) even a bulk scanner re-pays tokenization on every
// pass. A pretok file stores the *event stream* instead of the markup, so a
// reader hands the engine events with zero scanning: symbol definitions are
// written once per distinct name, and every later record is an opcode plus
// varint ids/lengths.
//
// Format (all integers unsigned LEB128 varints):
//
//   header   "XQPTK2\n" (7 bytes)  flags (1 byte, fixed at 0x03: attributes
//                                  expanded, whitespace-only text dropped —
//                                  the one tokenization; any other value is
//                                  rejected), varint source_size, varint
//                                  source_hash
//                                  (byte count and FNV-1a 64 of the XML the
//                                  stream was tokenized from; both 0 when
//                                  the producer couldn't see the whole
//                                  input, e.g. stdin)
//   records  0x01 define   varint name_len, name bytes — declares the next
//                          dense file id (0, 1, 2, ... in file order)
//            0x02 start    varint file_id
//            0x03 end      (no payload: the reader keeps the open stack)
//            0x04 text     varint byte_len, content bytes (decoded: entity
//                          and CDATA processing already happened)
//            0x00 eod      end of document
//
// A PretokSource maps file ids onto a consumer's SymbolTable when the engine
// binds one (EventSource::BindSymbols), so rule ids and event ids share one
// id space exactly as with the live parser. Text views alias the file bytes
// directly — reading a pretok stream allocates nothing per event.
#ifndef XQMFT_XML_PRETOK_H_
#define XQMFT_XML_PRETOK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"
#include "xml/sax_parser.h"
#include "xml/symbol_table.h"

namespace xqmft {

/// \brief Serializes an event stream into the pretok byte format.
class PretokWriter {
 public:
  /// Writes the header into `*out`. `source_size`/`source_hash` identify the
  /// tokenized document (byte count + FNV-1a 64) so a consumer can reject a
  /// cache built from different input; pass 0/0 when the producer cannot
  /// see the whole source.
  explicit PretokWriter(std::string* out, std::uint64_t source_size = 0,
                        std::uint64_t source_hash = 0);

  /// Appends one event (feed through kEndOfDocument). Events only need
  /// `type`, `name`, and `text` — ids are assigned in the file's own dense
  /// space, so any producer's events serialize.
  Status Feed(const XmlEvent& event);

 private:
  void PutVarint(std::uint64_t v);

  std::string* out_;
  SymbolTable local_;  // file-id space; size growth marks first sight
};

/// \brief EventSource over a pretok byte region (zero-copy reads).
class PretokSource : public EventSource {
 public:
  /// Reads from `data`, which must outlive the source. The header is parsed
  /// eagerly; a bad magic or flags byte surfaces as the first Next() error.
  explicit PretokSource(std::string_view data);

  /// Opens a pretok file, memory-mapping it when the platform allows.
  static Result<std::unique_ptr<PretokSource>> OpenFile(
      const std::string& path);

  Status Next(XmlEvent* event) override;
  /// Walks the subtree's records without building events: define records
  /// still intern, start ids are still checked against the dictionary, text
  /// payloads are stepped over by length, and every truncation error is
  /// the one Next() would report.
  Status SkipSubtree(std::uint64_t* events) override;
  /// Bytes consumed of the whole stream, header included.
  std::size_t bytes_consumed() const override { return pos_; }
  void BindSymbols(SymbolTable* symbols) override { symbols_ = symbols; }

  /// Declared source identity (0/0 when the producer couldn't see the whole
  /// input); true header parse status without consuming any record.
  std::uint64_t source_size() const { return source_size_; }
  std::uint64_t source_hash() const { return source_hash_; }
  bool header_ok() const { return header_status_.ok(); }

 private:
  Status Fail(const std::string& msg) const;
  void ParseHeader();
  bool GetVarint(std::uint64_t* v);

  std::unique_ptr<ByteSource> backing_;  // keeps a mapping alive (OpenFile)
  std::string owned_;                    // fallback: whole file in memory
  std::string_view data_;
  std::size_t pos_ = 0;
  SymbolTable owned_symbols_;
  SymbolTable* symbols_;
  std::vector<SymbolId> remap_;  // file id -> consumer SymbolId
  std::vector<SymbolId> open_;   // element stack for end events
  Status header_status_;
  std::uint64_t source_size_ = 0;
  std::uint64_t source_hash_ = 0;
  bool done_ = false;
};

/// Parses `source` as XML and appends the pretok form to `*out`.
Status PretokenizeXml(ByteSource* source, std::string* out);
/// Ignores the options; kept for bench/xqbench, which still passes them.
inline Status PretokenizeXml(ByteSource* source, SaxOptions,
                             std::string* out) {
  return PretokenizeXml(source, out);
}

/// Writes already-serialized pretok bytes to `path`; on any short write the
/// partial file is removed, so a cache path either holds a complete stream
/// or does not exist.
Status WritePretokFile(const std::string& bytes, const std::string& path);

/// File-to-file convenience: tokenizes `xml_path` into `pretok_path`.
Status PretokenizeXmlFile(const std::string& xml_path,
                          const std::string& pretok_path);

/// True when `cache_path` holds a pretok stream tokenized from the *current
/// contents* of `input_path`: the header's declared source identity (size +
/// FNV-1a 64) is compared against the input bytes, so a document
/// regenerated, restored with an old mtime, or simply swapped for another
/// file never streams through the wrong token cache. A header with no
/// identity (stream-tokenized) falls back to requiring the cache's mtime to
/// be strictly newer than the input's. A missing input, or a cache that is
/// unreadable or fails the header check (bad magic or flags byte), returns
/// false, so callers re-tokenize and surface the real error.
bool PretokCacheValid(const std::string& cache_path,
                      const std::string& input_path);

/// True when the file at `path` starts with the pretok magic — the cheap
/// sniff callers use to tell an event cache from text XML (the CLI accepts
/// both as positional inputs). Kept next to the format so a version bump
/// cannot leave stale magic copies behind.
bool IsPretokFile(const std::string& path);

}  // namespace xqmft

#endif  // XQMFT_XML_PRETOK_H_
