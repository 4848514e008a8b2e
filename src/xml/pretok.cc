#include "xml/pretok.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>

#include "util/varint.h"

namespace xqmft {

namespace {

constexpr char kMagic[] = "XQPTK2\n";  // 7 bytes, no terminator written
constexpr std::size_t kMagicLen = 7;
// The flags byte of the one tokenization: bit0 attributes expanded, bit1
// whitespace-only text dropped.
constexpr unsigned char kFlags = 0x03;

std::uint64_t Fnv1a64(std::string_view bytes,
                      std::uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Record opcodes (the format table in pretok.h).
constexpr unsigned char kOpEod = 0x00;
constexpr unsigned char kOpDefine = 0x01;
constexpr unsigned char kOpStart = 0x02;
constexpr unsigned char kOpEnd = 0x03;
constexpr unsigned char kOpText = 0x04;

struct PretokHeader {
  std::uint64_t source_size = 0;  // declared source identity (0/0 = none)
  std::uint64_t source_hash = 0;
  std::size_t records_begin = 0;  // offset of the first record
};

// Parses the fixed header at the front of `data`; InvalidArgument on a bad
// magic, a flags byte other than kFlags, or truncation. This is the one
// tokenization check: a stream tokenized any other way would replay events
// the live parser never produces.
Result<PretokHeader> ParsePretokHeader(std::string_view data) {
  if (data.size() < kMagicLen + 1 ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("bad magic (not a pretok stream)");
  }
  const unsigned char flags = static_cast<unsigned char>(data[kMagicLen]);
  if (flags != kFlags) {
    return Status::InvalidArgument(StrFormat(
        "unsupported tokenization flags 0x%02x (expected 0x%02x); delete "
        "the cache to re-tokenize",
        flags, kFlags));
  }
  PretokHeader header;
  std::size_t pos = kMagicLen + 1;
  if (!ReadVarint(data, &pos, &header.source_size) ||
      !ReadVarint(data, &pos, &header.source_hash)) {
    return Status::InvalidArgument(
        "truncated header (missing source identity)");
  }
  header.records_begin = pos;
  return header;
}

}  // namespace

// --- Writer ------------------------------------------------------------------

PretokWriter::PretokWriter(std::string* out, std::uint64_t source_size,
                           std::uint64_t source_hash)
    : out_(out) {
  out_->append(kMagic, kMagicLen);
  out_->push_back(static_cast<char>(kFlags));
  PutVarint(source_size);
  PutVarint(source_hash);
}

void PretokWriter::PutVarint(std::uint64_t v) { xqmft::PutVarint(out_, v); }

Status PretokWriter::Feed(const XmlEvent& event) {
  switch (event.type) {
    case XmlEventType::kStartElement: {
      std::size_t before = local_.size();
      SymbolId fid = local_.Intern(NodeKind::kElement, event.name);
      if (local_.size() > before) {
        out_->push_back(static_cast<char>(kOpDefine));
        PutVarint(event.name.size());
        out_->append(event.name.data(), event.name.size());
      }
      out_->push_back(static_cast<char>(kOpStart));
      PutVarint(fid);
      return Status::OK();
    }
    case XmlEventType::kEndElement:
      out_->push_back(static_cast<char>(kOpEnd));
      return Status::OK();
    case XmlEventType::kText:
      out_->push_back(static_cast<char>(kOpText));
      PutVarint(event.text.size());
      out_->append(event.text.data(), event.text.size());
      return Status::OK();
    case XmlEventType::kEndOfDocument:
      out_->push_back(static_cast<char>(kOpEod));
      return Status::OK();
  }
  return Status::Internal("unknown event type");
}

// --- Reader ------------------------------------------------------------------

PretokSource::PretokSource(std::string_view data)
    : data_(data), symbols_(&owned_symbols_) {
  ParseHeader();
}

void PretokSource::ParseHeader() {
  Result<PretokHeader> header = ParsePretokHeader(data_);
  if (!header.ok()) {
    header_status_ = Fail(header.status().message());
    return;
  }
  source_size_ = header.value().source_size;
  source_hash_ = header.value().source_hash;
  pos_ = header.value().records_begin;
}

Result<std::unique_ptr<PretokSource>> PretokSource::OpenFile(
    const std::string& path) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> backing,
                         MmapSource::Open(path));
  std::string_view all;
  if (backing->Contents(&all)) {
    auto src = std::make_unique<PretokSource>(all);
    src->backing_ = std::move(backing);
    return src;
  }
  // No stable region (empty file, exotic platform): read it whole.
  std::string owned;
  char buf[1 << 16];
  std::size_t n;
  while ((n = backing->Read(buf, sizeof buf)) > 0) owned.append(buf, n);
  auto src = std::make_unique<PretokSource>(std::string_view());
  src->owned_ = std::move(owned);
  src->data_ = src->owned_;
  src->pos_ = 0;
  src->header_status_ = Status::OK();
  src->ParseHeader();  // re-parse: construction saw an empty view
  return src;
}

Status PretokSource::Fail(const std::string& msg) const {
  return Status::InvalidArgument(
      StrFormat("pretok error at byte %zu: %s", pos_, msg.c_str()));
}

bool PretokSource::GetVarint(std::uint64_t* v) {
  return ReadVarint(data_, &pos_, v);
}

Status PretokSource::Next(XmlEvent* event) {
  XQMFT_RETURN_NOT_OK(header_status_);
  if (done_) {
    // Match SaxParser: no stale views from the prior event survive on the
    // repeated kEndOfDocument.
    *event = XmlEvent{};
    return Status::OK();
  }
  while (true) {
    if (pos_ >= data_.size()) return Fail("truncated stream (missing eod)");
    unsigned char op = static_cast<unsigned char>(data_[pos_++]);
    switch (op) {
      case kOpDefine: {
        std::uint64_t len;
        if (!GetVarint(&len) || data_.size() - pos_ < len) {
          return Fail("truncated symbol definition");
        }
        std::string_view name = data_.substr(pos_, len);
        pos_ += len;
        remap_.push_back(symbols_->Intern(NodeKind::kElement, name));
        continue;  // definitions are not events
      }
      case kOpStart: {
        std::uint64_t fid;
        if (!GetVarint(&fid)) return Fail("truncated start record");
        if (fid >= remap_.size()) return Fail("undefined symbol id");
        SymbolId sym = remap_[fid];
        open_.push_back(sym);
        event->type = XmlEventType::kStartElement;
        event->symbol = sym;
        event->name = symbols_->name(sym);
        event->text = {};
        return Status::OK();
      }
      case kOpEnd: {
        if (open_.empty()) return Fail("end record with no open element");
        SymbolId sym = open_.back();
        open_.pop_back();
        event->type = XmlEventType::kEndElement;
        event->symbol = sym;
        event->name = symbols_->name(sym);
        event->text = {};
        return Status::OK();
      }
      case kOpText: {
        std::uint64_t len;
        if (!GetVarint(&len) || data_.size() - pos_ < len) {
          return Fail("truncated text record");
        }
        event->type = XmlEventType::kText;
        event->symbol = kInvalidSymbol;
        event->name = {};
        event->text = data_.substr(pos_, len);
        pos_ += len;
        return Status::OK();
      }
      case kOpEod: {
        if (!open_.empty()) return Fail("eod with unclosed elements");
        done_ = true;
        event->type = XmlEventType::kEndOfDocument;
        event->symbol = kInvalidSymbol;
        event->name = {};
        event->text = {};
        return Status::OK();
      }
      default:
        return Fail(StrFormat("unknown opcode 0x%02x", op));
    }
  }
}

Status PretokSource::SkipSubtree(std::uint64_t* events) {
  // Next() pushed the rejected start onto open_, so every check below sees
  // a non-empty stack, exactly as the full replay of this subtree would;
  // errors match Next()'s message and byte offset.
  std::size_t depth = 1;
  while (true) {
    if (pos_ >= data_.size()) return Fail("truncated stream (missing eod)");
    unsigned char op = static_cast<unsigned char>(data_[pos_++]);
    switch (op) {
      case kOpDefine: {
        std::uint64_t len;
        if (!GetVarint(&len) || data_.size() - pos_ < len) {
          return Fail("truncated symbol definition");
        }
        // Later records may use the id: the id space stays in step.
        remap_.push_back(
            symbols_->Intern(NodeKind::kElement, data_.substr(pos_, len)));
        pos_ += len;
        continue;
      }
      case kOpStart: {
        std::uint64_t fid;
        if (!GetVarint(&fid)) return Fail("truncated start record");
        if (fid >= remap_.size()) return Fail("undefined symbol id");
        ++depth;
        break;
      }
      case kOpEnd:
        --depth;
        break;
      case kOpText: {
        std::uint64_t len;
        if (!GetVarint(&len) || data_.size() - pos_ < len) {
          return Fail("truncated text record");
        }
        pos_ += len;
        break;
      }
      case kOpEod:
        return Fail("eod with unclosed elements");
      default:
        return Fail(StrFormat("unknown opcode 0x%02x", op));
    }
    ++*events;
    if (depth == 0) {
      open_.pop_back();
      return Status::OK();
    }
  }
}

// --- Conversion --------------------------------------------------------------

Status PretokenizeXml(ByteSource* source, std::string* out) {
  // Sources exposing their whole input get a source-identity header, so
  // consumers can tell this cache belongs to *these* bytes; pure streams
  // (stdin) declare none.
  std::uint64_t src_size = 0, src_hash = 0;
  std::string_view whole;
  if (source->Contents(&whole)) {
    src_size = whole.size();
    src_hash = Fnv1a64(whole);
  }
  SaxParser parser(source);
  PretokWriter writer(out, src_size, src_hash);
  XmlEvent ev;
  do {
    XQMFT_RETURN_NOT_OK(parser.Next(&ev));
    XQMFT_RETURN_NOT_OK(writer.Feed(ev));
  } while (ev.type != XmlEventType::kEndOfDocument);
  return Status::OK();
}

Status WritePretokFile(const std::string& bytes, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot write pretok file: " + path);
  }
  std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int rc = std::fclose(f);
  if (written != bytes.size() || rc != 0) {
    // Never leave a truncated cache behind: a later run would trust it.
    std::remove(path.c_str());
    return Status::Internal("short write to pretok file: " + path);
  }
  return Status::OK();
}

Status PretokenizeXmlFile(const std::string& xml_path,
                          const std::string& pretok_path) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                         MmapSource::Open(xml_path));
  std::string out;
  XQMFT_RETURN_NOT_OK(PretokenizeXml(src.get(), &out));
  return WritePretokFile(out, pretok_path);
}

bool IsPretokFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[kMagicLen];
  std::size_t n = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  return n == sizeof magic && std::memcmp(magic, kMagic, sizeof magic) == 0;
}

bool PretokCacheValid(const std::string& cache_path,
                      const std::string& input_path) {
  struct stat ist;
  if (::stat(input_path.c_str(), &ist) != 0) return false;
  Result<std::unique_ptr<PretokSource>> cache =
      PretokSource::OpenFile(cache_path);
  if (!cache.ok() || !cache.value()->header_ok()) return false;
  const PretokSource& c = *cache.value();
  if (c.source_hash() != 0) {
    // Identity declared: the cache is valid iff the input's current bytes
    // are the exact bytes it was tokenized from.
    if (static_cast<std::uint64_t>(ist.st_size) != c.source_size()) {
      return false;
    }
    Result<std::unique_ptr<ByteSource>> in = MmapSource::Open(input_path);
    if (!in.ok()) return false;
    std::string_view bytes;
    if (in.value()->Contents(&bytes)) {
      return Fnv1a64(bytes) == c.source_hash();
    }
    std::uint64_t h = Fnv1a64({});
    char buf[1 << 16];
    std::size_t n;
    while ((n = in.value()->Read(buf, sizeof buf)) > 0) {
      h = Fnv1a64(std::string_view(buf, n), h);
    }
    return h == c.source_hash();
  }
  // No declared identity (stream-tokenized): require the cache's mtime to
  // be *strictly* newer — timestamps advance on a coarse kernel tick, so an
  // input rewritten in the cache's tick gets an equal, ambiguous stamp, and
  // re-tokenizing is cheap next to streaming a stale cache.
  struct stat cst;
  if (::stat(cache_path.c_str(), &cst) != 0) return false;
#if defined(__APPLE__)
  const struct timespec &ct = cst.st_mtimespec, &it = ist.st_mtimespec;
#else
  const struct timespec &ct = cst.st_mtim, &it = ist.st_mtim;
#endif
  return ct.tv_sec > it.tv_sec ||
         (ct.tv_sec == it.tv_sec && ct.tv_nsec > it.tv_nsec);
}

}  // namespace xqmft
