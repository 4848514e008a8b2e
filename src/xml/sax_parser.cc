#include "xml/sax_parser.h"

#include <cstring>

#include "util/strings.h"
#include "xml/char_class.h"

#if defined(__unix__) || defined(__APPLE__)
#define XQMFT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace xqmft {

// Character classification (the table and the bulk Scan* helpers, scalar
// and SIMD) lives in xml/char_class.h so the two scan paths share one
// definition.
namespace {
constexpr std::size_t kBufSize = 1 << 16;
}  // namespace

std::size_t StringSource::Read(char* buf, std::size_t n) {
  std::size_t avail = s_.size() - pos_;
  std::size_t take = n < avail ? n : avail;
  std::memcpy(buf, s_.data() + pos_, take);
  pos_ += take;
  return take;
}

Result<std::unique_ptr<FileSource>> FileSource::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open file: " + path);
  }
  return std::unique_ptr<FileSource>(new FileSource(f));
}

FileSource::~FileSource() {
  if (f_ != nullptr) std::fclose(f_);
}

std::size_t FileSource::Read(char* buf, std::size_t n) {
  return std::fread(buf, 1, n, f_);
}

Result<std::unique_ptr<ByteSource>> MmapSource::Open(const std::string& path) {
#if XQMFT_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct ::stat st;
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
        ::madvise(map, static_cast<std::size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
        return std::unique_ptr<ByteSource>(
            new MmapSource(map, static_cast<std::size_t>(st.st_size)));
      }
    } else {
      ::close(fd);
    }
  }
#endif
  // No mmap (non-regular file, empty file, platform without it): stdio.
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<FileSource> f,
                         FileSource::Open(path));
  return std::unique_ptr<ByteSource>(std::move(f));
}

MmapSource::~MmapSource() {
#if XQMFT_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
}

std::size_t MmapSource::Read(char* buf, std::size_t n) {
  std::size_t avail = size_ - pos_;
  std::size_t take = n < avail ? n : avail;
  std::memcpy(buf, static_cast<const char*>(map_) + pos_, take);
  pos_ += take;
  return take;
}

SaxParser::SaxParser(ByteSource* source, SymbolTable* symbols)
    : source_(source),
      symbols_(symbols != nullptr ? symbols : &owned_symbols_) {
  std::string_view all;
  if (source_->Contents(&all)) {
    data_ = all.data();
    len_ = all.size();
    mapped_ = true;
  } else {
    buf_.resize(kBufSize);
    data_ = buf_.data();
  }
}

bool SaxParser::Refill() {
  if (eof_) return false;
  if (mapped_) {
    eof_ = true;
    return false;
  }
  len_ = source_->Read(buf_.data(), buf_.size());
  data_ = buf_.data();
  pos_ = 0;
  if (len_ == 0) {
    eof_ = true;
    return false;
  }
  return true;
}

int SaxParser::GetChar() {
  if (pos_ >= len_ && !Refill()) return -1;
  ++bytes_consumed_;
  int c = static_cast<unsigned char>(data_[pos_++]);
  if (c == '\n') {
    ++line_;
    line_start_ = bytes_consumed_;
  }
  return c;
}

int SaxParser::PeekChar() {
  if (pos_ >= len_ && !Refill()) return -1;
  return static_cast<unsigned char>(data_[pos_]);
}

void SaxParser::Advance(std::size_t n) {
  const char* base = data_ + pos_;
  std::size_t searched = 0;
  while (searched < n) {
    const void* nl = std::memchr(base + searched, '\n', n - searched);
    if (nl == nullptr) break;
    searched =
        static_cast<std::size_t>(static_cast<const char*>(nl) - base) + 1;
    ++line_;
    line_start_ = bytes_consumed_ + searched;
  }
  bytes_consumed_ += n;
  pos_ += n;
}

void SaxParser::SkipWs() {
  while (true) {
    Advance(ScanWsRun(data_ + pos_, len_ - pos_));
    if (pos_ < len_ || !Refill()) return;
  }
}

Status SaxParser::Fail(const std::string& msg) const {
  return Status::InvalidArgument(
      StrFormat("XML parse error at line %zu, column %zu (byte %zu): %s",
                line_, column(), bytes_consumed_, msg.c_str()));
}

Status SaxParser::Next(XmlEvent* event) {
  if (pending_head_ < pending_.size()) {
    const PendingEvent& p = pending_[pending_head_++];
    event->type = p.type;
    event->symbol = p.symbol;
    if (p.type == XmlEventType::kText) {
      event->name = {};
      event->text = std::string_view(tag_spill_).substr(p.text_off, p.text_len);
    } else {
      event->name = symbols_->name(p.symbol);
      event->text = {};
    }
    return Status::OK();
  }
  if (done_) {
    *event = XmlEvent{};
    return Status::OK();
  }
  while (true) {
    int c = PeekChar();
    if (c < 0) {
      if (!open_.empty()) {
        return Fail("unexpected end of input; unclosed <" +
                    std::string(symbols_->name(open_.back())) + ">");
      }
      done_ = true;
      *event = XmlEvent{};
      return Status::OK();
    }
    if (c == '<') {
      XQMFT_RETURN_NOT_OK(LexMarkup(event));
      if (event->type == XmlEventType::kEndOfDocument) continue;  // skipped
      return Status::OK();
    }
    XQMFT_RETURN_NOT_OK(LexText(event));
    if (event->type == XmlEventType::kEndOfDocument) continue;  // all-ws text
    return Status::OK();
  }
}

Status SaxParser::LexText(XmlEvent* event) {
  // Fast path: the whole run sits inside the current window with no entity —
  // the event views the window directly and nothing is copied. Any refill or
  // '&' switches to the spill arena for the rest of the run.
  bool all_ws = true;
  bool spilled = false;
  std::size_t run_start = pos_;
  text_spill_.clear();
  while (true) {
    if (pos_ >= len_) {
      if (!spilled) {
        text_spill_.append(data_ + run_start, pos_ - run_start);
        spilled = true;
      }
      if (!Refill()) break;  // end of input ends the run
      run_start = pos_;
      continue;
    }
    const char* base = data_ + pos_;
    std::size_t n = len_ - pos_;
    // One fused sweep finds the run limit ('<' or '&') and accumulates the
    // all-whitespace bit — the SIMD path classifies 16 bytes per step.
    std::size_t take = ScanTextRun(base, n, &all_ws);
    int stop = take < n ? static_cast<unsigned char>(base[take]) : -1;
    if (take > 0) {
      Advance(take);
      if (spilled) text_spill_.append(base, take);
    }
    if (stop == '&') {
      if (!spilled) {
        text_spill_.append(data_ + run_start, pos_ - run_start);
        spilled = true;
      }
      GetChar();  // '&'
      XQMFT_RETURN_NOT_OK(DecodeEntity(&text_spill_));
      all_ws = false;
      continue;
    }
    if (stop == '<') break;  // markup ends the run
  }
  std::string_view text =
      spilled ? std::string_view(text_spill_)
              : std::string_view(data_ + run_start, pos_ - run_start);
  if (all_ws) {
    event->type = XmlEventType::kEndOfDocument;  // sentinel: nothing produced
    return Status::OK();
  }
  event->type = XmlEventType::kText;
  event->symbol = kInvalidSymbol;
  event->text = text;
  event->name = {};
  return Status::OK();
}

Status SaxParser::LexMarkup(XmlEvent* event) {
  GetChar();  // '<'
  int c = PeekChar();
  if (c < 0) return Fail("truncated markup");
  if (c == '!') {
    GetChar();
    c = PeekChar();
    if (c == '-') {
      XQMFT_RETURN_NOT_OK(SkipComment());
      event->type = XmlEventType::kEndOfDocument;
      return Status::OK();
    }
    if (c == '[') {
      std::string_view text;
      XQMFT_RETURN_NOT_OK(LexCdata(&text));
      event->type = XmlEventType::kText;
      event->symbol = kInvalidSymbol;
      event->text = text;
      event->name = {};
      return Status::OK();
    }
    XQMFT_RETURN_NOT_OK(SkipDoctype());
    event->type = XmlEventType::kEndOfDocument;
    return Status::OK();
  }
  if (c == '?') {
    XQMFT_RETURN_NOT_OK(SkipProcessingInstruction());
    event->type = XmlEventType::kEndOfDocument;
    return Status::OK();
  }
  if (c == '/') {
    GetChar();
    // The end tag's id comes off the open-element stack: matching the name
    // against the stack top needs a compare, not a (re-)intern. The compare
    // runs before SkipWs — the name view may alias the window, and a refill
    // would invalidate it; error *reporting* stays after the '>' so failure
    // positions match the seed parser exactly.
    std::string_view name;
    XQMFT_RETURN_NOT_OK(LexName(&name));
    bool have_open = !open_.empty();
    bool match = have_open && symbols_->name(open_.back()) == name;
    std::string name_copy;
    if (!match) name_copy.assign(name);
    SkipWs();
    if (GetChar() != '>') return Fail("expected '>' in end tag");
    if (!have_open) {
      return Fail("end tag </" + name_copy + "> with no open element");
    }
    if (!match) {
      return Fail("mismatched end tag </" + name_copy + ">, expected </" +
                  std::string(symbols_->name(open_.back())) + ">");
    }
    event->type = XmlEventType::kEndElement;
    event->symbol = open_.back();
    event->name = symbols_->name(event->symbol);
    event->text = {};
    open_.pop_back();
    return Status::OK();
  }
  // Start tag. The pending queue is always drained before lexing resumes,
  // so the per-tag arenas can be reset here.
  std::string_view name;
  XQMFT_RETURN_NOT_OK(LexName(&name));
  SymbolId sym = symbols_->Intern(NodeKind::kElement, name);
  pending_.clear();
  pending_head_ = 0;
  tag_spill_.clear();
  attrs_scratch_.clear();
  bool self_closing = false;
  while (true) {
    SkipWs();
    c = PeekChar();
    if (c < 0) {
      return Fail("truncated start tag <" +
                  std::string(symbols_->name(sym)));
    }
    if (c == '>') {
      GetChar();
      open_.push_back(sym);
      break;
    }
    if (c == '/') {
      GetChar();
      if (GetChar() != '>') return Fail("expected '/>' in empty-element tag");
      self_closing = true;
      break;
    }
    std::string_view attr_name;
    XQMFT_RETURN_NOT_OK(LexName(&attr_name));
    // Attribute names intern like element names: the expanded encoding turns
    // them into elements anyway, and interning gives the event a stable view.
    SymbolId attr_sym = symbols_->Intern(NodeKind::kElement, attr_name);
    SkipWs();
    if (GetChar() != '=') return Fail("expected '=' after attribute name");
    SkipWs();
    AttrRecord rec;
    rec.symbol = attr_sym;
    XQMFT_RETURN_NOT_OK(LexAttrValue(&rec.value_off, &rec.value_len));
    attrs_scratch_.push_back(rec);
  }
  event->type = XmlEventType::kStartElement;
  event->symbol = sym;
  event->name = symbols_->name(sym);
  event->text = {};
  // Encode <e a="v"> as <e><a>v</a>... : attribute nodes become the first
  // children, each with a single text child (paper Section 2 / Figure 1).
  for (const AttrRecord& rec : attrs_scratch_) {
    pending_.push_back({XmlEventType::kStartElement, rec.symbol, 0, 0});
    if (rec.value_len > 0) {
      pending_.push_back(
          {XmlEventType::kText, kInvalidSymbol, rec.value_off, rec.value_len});
    }
    pending_.push_back({XmlEventType::kEndElement, rec.symbol, 0, 0});
  }
  if (self_closing) {
    // Queue the matching end event behind any attribute-encoding events.
    pending_.push_back({XmlEventType::kEndElement, sym, 0, 0});
  }
  last_start_closed_ = self_closing;
  return Status::OK();
}

// --- Subtree skipping --------------------------------------------------------

void SaxParser::PushSkipName(std::string_view name) {
  if (mapped_) {
    skip_stack_.push_back(
        {static_cast<std::size_t>(name.data() - data_), name.size()});
  } else {
    skip_stack_.push_back({skip_names_.size(), name.size()});
    skip_names_.append(name);
  }
}

void SaxParser::PopSkipName() {
  if (!mapped_) skip_names_.resize(skip_stack_.back().off);
  skip_stack_.pop_back();
}

std::string_view SaxParser::SkipTopName() const {
  if (skip_stack_.empty()) return symbols_->name(open_.back());
  const NameSpan& top = skip_stack_.back();
  return std::string_view((mapped_ ? data_ : skip_names_.data()) + top.off,
                          top.len);
}

Status SaxParser::SkipSubtree(std::uint64_t* events) {
  if (pending_head_ > 0) {
    // The rejected start came off the queue: an expanded attribute, whose
    // subtree is its queued text (if any) and end.
    while (pending_head_ < pending_.size()) {
      ++*events;
      if (pending_[pending_head_++].type == XmlEventType::kEndElement) break;
    }
    return Status::OK();
  }
  // The rejected start was lexed from the input: drop its queued attribute
  // and self-closing events; a self-closing element is then done.
  *events += pending_.size();
  pending_head_ = pending_.size();
  if (last_start_closed_) return Status::OK();

  skip_stack_.clear();
  skip_names_.clear();
  std::size_t depth = 1;
  std::uint64_t count = 0;
  while (true) {
    // Fast stretch over the window: `p` only ever rests on a construct
    // boundary, so a hand-off to the slow path restarts that construct.
    const char* const base = data_ + pos_;
    const char* const end = data_ + len_;
    const char* p = base;
    while (p < end) {
      if (*p != '<') {
        bool all_ws = true;
        const std::size_t n =
            ScanTextRun(p, static_cast<std::size_t>(end - p), &all_ws);
        if (p + n == end || p[n] == '&') break;
        if (!all_ws) ++count;
        p += n;
      }
      if (end - p < 2) break;
      if (p[1] == '/') {
        const char* q = p + 2;
        if (q == end || !(CharClassOf(*q) & kClsNameStart)) break;
        const std::size_t n =
            1 + ScanNameRun(q + 1, static_cast<std::size_t>(end - q - 1));
        const char* r = q + n;
        r += ScanWsRun(r, static_cast<std::size_t>(end - r));
        if (r == end || *r != '>') break;
        const std::string_view top = SkipTopName();
        if (n != top.size() || std::memcmp(q, top.data(), n) != 0) break;
        ++count;
        p = r + 1;
        if (depth == 1) {
          // The subtree's own end tag: done.
          Advance(static_cast<std::size_t>(p - base));
          open_.pop_back();
          *events += count;
          return Status::OK();
        }
        PopSkipName();
        --depth;
        continue;
      }
      const char* q = p + 1;
      if (!(CharClassOf(*q) & kClsNameStart)) break;  // also '!', '?'
      const std::size_t n =
          1 + ScanNameRun(q + 1, static_cast<std::size_t>(end - q - 1));
      const char* r = q + n;
      std::uint64_t tag_events = 1;
      bool closed = false;  // '>' or "/>" seen
      bool empty = false;   // "/>"
      while (true) {
        r += ScanWsRun(r, static_cast<std::size_t>(end - r));
        if (r == end) break;
        if (*r == '>') {
          closed = true;
          ++r;
          break;
        }
        if (*r == '/') {
          if (end - r >= 2 && r[1] == '>') {
            closed = empty = true;
            r += 2;
          }
          break;
        }
        if (!(CharClassOf(*r) & kClsNameStart)) break;
        r += 1 + ScanNameRun(r + 1, static_cast<std::size_t>(end - r - 1));
        r += ScanWsRun(r, static_cast<std::size_t>(end - r));
        if (r == end || *r != '=') break;
        ++r;
        r += ScanWsRun(r, static_cast<std::size_t>(end - r));
        if (r == end || (*r != '"' && *r != '\'')) break;
        const char quote = *r++;
        const std::size_t v =
            ScanAttrRun(r, static_cast<std::size_t>(end - r), quote);
        if (r + v == end || r[v] != quote) break;  // '&' or window end
        tag_events += v > 0 ? 3 : 2;
        r += v + 1;
      }
      if (!closed) break;
      if (empty) {
        ++tag_events;
      } else {
        PushSkipName(std::string_view(q, n));
        ++depth;
      }
      count += tag_events;
      p = r;
    }
    Advance(static_cast<std::size_t>(p - base));
    XQMFT_RETURN_NOT_OK(SkipConstructSlow(&depth, &count));
    if (depth == 0) {
      open_.pop_back();
      *events += count;
      return Status::OK();
    }
  }
}

// One construct of a skipped subtree, lexed by the checked helpers Next()
// uses, in the same order — so skip mode fails where, and with the message,
// a full pull would.
Status SaxParser::SkipConstructSlow(std::size_t* depth,
                                    std::uint64_t* events) {
  int c = PeekChar();
  if (c < 0) {
    return Fail("unexpected end of input; unclosed <" +
                std::string(SkipTopName()) + ">");
  }
  if (c != '<') {
    XmlEvent text;
    XQMFT_RETURN_NOT_OK(LexText(&text));
    if (text.type == XmlEventType::kText) ++*events;
    return Status::OK();
  }
  GetChar();  // '<'
  c = PeekChar();
  if (c < 0) return Fail("truncated markup");
  if (c == '!') {
    GetChar();
    c = PeekChar();
    if (c == '-') return SkipComment();
    if (c == '[') {
      std::string_view text;
      XQMFT_RETURN_NOT_OK(LexCdata(&text));
      ++*events;
      return Status::OK();
    }
    return SkipDoctype();
  }
  if (c == '?') return SkipProcessingInstruction();
  if (c == '/') {
    GetChar();
    std::string_view name;
    XQMFT_RETURN_NOT_OK(LexName(&name));
    const std::string_view top = SkipTopName();
    const bool match = top == name;
    std::string name_copy;
    if (!match) name_copy.assign(name);
    SkipWs();
    if (GetChar() != '>') return Fail("expected '>' in end tag");
    if (!match) {
      return Fail("mismatched end tag </" + name_copy + ">, expected </" +
                  std::string(top) + ">");
    }
    ++*events;
    if (*depth > 1) PopSkipName();
    --*depth;
    return Status::OK();
  }
  const std::size_t name_at = pos_;  // mapped sources: offset in the input
  std::string_view name;
  XQMFT_RETURN_NOT_OK(LexName(&name));
  const std::string name_copy(name);  // the view dies at the next refill
  tag_spill_.clear();
  std::uint64_t tag_events = 1;
  while (true) {
    SkipWs();
    c = PeekChar();
    if (c < 0) return Fail("truncated start tag <" + name_copy);
    if (c == '>') {
      GetChar();
      PushSkipName(mapped_ ? std::string_view(data_ + name_at, name_copy.size())
                           : std::string_view(name_copy));
      ++*depth;
      break;
    }
    if (c == '/') {
      GetChar();
      if (GetChar() != '>') return Fail("expected '/>' in empty-element tag");
      ++tag_events;
      break;
    }
    std::string_view attr_name;
    XQMFT_RETURN_NOT_OK(LexName(&attr_name));
    SkipWs();
    if (GetChar() != '=') return Fail("expected '=' after attribute name");
    SkipWs();
    std::uint32_t value_off = 0;
    std::uint32_t value_len = 0;
    XQMFT_RETURN_NOT_OK(LexAttrValue(&value_off, &value_len));
    tag_events += value_len > 0 ? 3 : 2;
  }
  *events += tag_events;
  return Status::OK();
}

Status SaxParser::LexName(std::string_view* out) {
  if (pos_ >= len_ && !Refill()) return Fail("expected a name");
  if (!(CharClassOf(data_[pos_]) & kClsNameStart)) {
    return Fail("expected a name");
  }
  std::size_t p = pos_ + 1;
  p += ScanNameRun(data_ + p, len_ - p);
  if (p < len_) {
    *out = std::string_view(data_ + pos_, p - pos_);
    Advance(p - pos_);
    return Status::OK();
  }
  // The name may continue past the window: spill what we have and keep
  // scanning across refills.
  name_spill_.assign(data_ + pos_, p - pos_);
  Advance(p - pos_);
  while (pos_ < len_ || Refill()) {
    std::size_t q = pos_ + ScanNameRun(data_ + pos_, len_ - pos_);
    name_spill_.append(data_ + pos_, q - pos_);
    Advance(q - pos_);
    if (pos_ < len_) break;  // a non-name byte ended the scan
  }
  *out = name_spill_;
  return Status::OK();
}

Status SaxParser::LexAttrValue(std::uint32_t* off, std::uint32_t* len) {
  int quote = GetChar();
  if (quote != '"' && quote != '\'') {
    return Fail("attribute value must be quoted");
  }
  // Values land in tag_spill_ unconditionally: they must stay valid while
  // the tag's synthetic child events drain, which outlives the window.
  *off = static_cast<std::uint32_t>(tag_spill_.size());
  while (true) {
    if (pos_ >= len_ && !Refill()) return Fail("unterminated attribute value");
    const char* base = data_ + pos_;
    std::size_t n = len_ - pos_;
    std::size_t take = ScanAttrRun(base, n, static_cast<char>(quote));
    int stop = take < n ? static_cast<unsigned char>(base[take]) : -1;
    tag_spill_.append(base, take);
    Advance(take);
    if (stop == '&') {
      GetChar();  // '&'
      XQMFT_RETURN_NOT_OK(DecodeEntity(&tag_spill_));
      continue;
    }
    if (stop == quote) {
      GetChar();  // closing quote
      break;
    }
  }
  // Offsets/lengths into tag_spill_ are stored as uint32 — a tag whose
  // attribute values total >= 4 GiB must fail loudly, not wrap silently
  // (mirrors RefString::Copy's bound).
  if (tag_spill_.size() >= (std::uint64_t{1} << 32)) {
    return Fail("attribute values exceed 4 GiB in one tag");
  }
  *len = static_cast<std::uint32_t>(tag_spill_.size() - *off);
  return Status::OK();
}

Status SaxParser::SkipComment() {
  // At "-", already consumed "<!".
  if (GetChar() != '-' || GetChar() != '-') return Fail("malformed comment");
  int dashes = 0;
  while (true) {
    if (pos_ >= len_ && !Refill()) return Fail("unterminated comment");
    if (dashes == 0) {
      // Bulk-skip to the next '-' (comment bodies are dash-free runs).
      const void* m = std::memchr(data_ + pos_, '-', len_ - pos_);
      if (m == nullptr) {
        Advance(len_ - pos_);
        continue;
      }
      Advance(static_cast<std::size_t>(static_cast<const char*>(m) -
                                       (data_ + pos_)));
    }
    int c = GetChar();
    if (c < 0) return Fail("unterminated comment");
    if (c == '-') {
      ++dashes;
    } else if (c == '>' && dashes >= 2) {
      return Status::OK();
    } else {
      dashes = 0;
    }
  }
}

Status SaxParser::SkipProcessingInstruction() {
  GetChar();  // '?'
  bool qmark = false;
  while (true) {
    if (pos_ >= len_ && !Refill()) {
      return Fail("unterminated processing instruction");
    }
    if (!qmark) {
      const void* m = std::memchr(data_ + pos_, '?', len_ - pos_);
      if (m == nullptr) {
        Advance(len_ - pos_);
        continue;
      }
      Advance(static_cast<std::size_t>(static_cast<const char*>(m) -
                                       (data_ + pos_)));
    }
    int c = GetChar();
    if (c < 0) return Fail("unterminated processing instruction");
    if (c == '>' && qmark) return Status::OK();
    qmark = (c == '?');
  }
}

Status SaxParser::SkipDoctype() {
  // Already consumed "<!". Skip until the matching '>', tracking an optional
  // internal subset in [...]. DOCTYPEs are rare and small: per-char is fine.
  int depth = 0;
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated DOCTYPE");
    if (c == '[') ++depth;
    if (c == ']') --depth;
    if (c == '>' && depth <= 0) return Status::OK();
  }
}

Status SaxParser::LexCdata(std::string_view* out) {
  // At "[", already consumed "<!".
  const char* expect = "[CDATA[";
  for (const char* p = expect; *p; ++p) {
    if (GetChar() != *p) return Fail("malformed CDATA section");
  }
  // Fast path: "]]>" terminator inside the current window — view in place.
  {
    std::size_t start = pos_;
    std::size_t q = pos_;
    while (q + 2 < len_) {
      const void* m = std::memchr(data_ + q, ']', len_ - q - 2);
      if (m == nullptr) break;
      q = static_cast<std::size_t>(static_cast<const char*>(m) - data_);
      if (data_[q + 1] == ']' && data_[q + 2] == '>') {
        *out = std::string_view(data_ + start, q - start);
        Advance(q + 3 - pos_);
        return Status::OK();
      }
      ++q;
    }
  }
  // Slow path (terminator beyond the window): spill with the ]]-lookahead
  // state machine, leftmost-"]]>" semantics as above.
  text_spill_.clear();
  int state = 0;  // count of trailing ']'
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated CDATA section");
    if (c == ']') {
      if (state < 2) {
        ++state;
        continue;
      }
      text_spill_ += ']';  // more than two: emit the oldest
      continue;
    }
    if (c == '>' && state == 2) {
      *out = text_spill_;
      return Status::OK();
    }
    while (state > 0) {
      text_spill_ += ']';
      --state;
    }
    text_spill_ += static_cast<char>(c);
  }
}

Status SaxParser::DecodeEntity(std::string* out) {
  std::string ent;
  while (true) {
    int c = GetChar();
    if (c < 0) return Fail("unterminated entity reference");
    if (c == ';') break;
    ent += static_cast<char>(c);
    if (ent.size() > 10) return Fail("entity reference too long: &" + ent);
  }
  if (ent == "amp") {
    *out += '&';
  } else if (ent == "lt") {
    *out += '<';
  } else if (ent == "gt") {
    *out += '>';
  } else if (ent == "quot") {
    *out += '"';
  } else if (ent == "apos") {
    *out += '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    long code = 0;
    if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
      code = std::strtol(ent.c_str() + 2, nullptr, 16);
    } else {
      code = std::strtol(ent.c_str() + 1, nullptr, 10);
    }
    if (code <= 0 || code > 0x10FFFF) return Fail("bad character reference");
    // UTF-8 encode.
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  } else {
    return Fail("unknown entity &" + ent + ";");
  }
  return Status::OK();
}

namespace {

Result<Forest> BuildForest(SaxParser* parser) {
  Forest roots;
  std::vector<Tree*> stack;
  XmlEvent ev;
  while (true) {
    XQMFT_RETURN_NOT_OK(parser->Next(&ev));
    switch (ev.type) {
      case XmlEventType::kEndOfDocument:
        return roots;
      case XmlEventType::kStartElement: {
        Forest* parent = stack.empty() ? &roots : &stack.back()->children;
        parent->push_back(Tree::Element(std::string(ev.name)));
        stack.push_back(&parent->back());
        break;
      }
      case XmlEventType::kEndElement:
        if (stack.empty()) return Status::Internal("builder stack underflow");
        stack.pop_back();
        break;
      case XmlEventType::kText: {
        Forest* parent = stack.empty() ? &roots : &stack.back()->children;
        // Merge adjacent text (CDATA next to text, entity splits).
        if (!parent->empty() && parent->back().kind == NodeKind::kText) {
          parent->back().label += ev.text;
        } else {
          parent->push_back(Tree::Text(std::string(ev.text)));
        }
        break;
      }
    }
  }
}

}  // namespace

Result<Forest> ParseXmlForest(std::string_view xml) {
  StringSource src(xml);
  SaxParser parser(&src);
  return BuildForest(&parser);
}

Result<Forest> ParseXmlFile(const std::string& path, SaxOptions) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                         MmapSource::Open(path));
  SaxParser parser(src.get());
  return BuildForest(&parser);
}

}  // namespace xqmft
