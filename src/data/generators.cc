#include "data/generators.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"
#include "xml/sax_parser.h"

namespace xqmft {

namespace {

// Buffered XML writer tracking bytes written. Output goes to a FILE* or a
// string.
class XmlWriter {
 public:
  explicit XmlWriter(std::FILE* f) : file_(f) { buf_.reserve(kFlushAt * 2); }
  explicit XmlWriter(std::string* s) : str_(s) {}

  void Open(const char* tag) {
    buf_ += '<';
    buf_ += tag;
    buf_ += '>';
    MaybeFlush();
  }
  void Close(const char* tag) {
    buf_ += "</";
    buf_ += tag;
    buf_ += ">\n";
    MaybeFlush();
  }
  void CloseInline(const char* tag) {
    buf_ += "</";
    buf_ += tag;
    buf_ += '>';
    MaybeFlush();
  }
  void Text(const std::string& s) {
    buf_ += XmlEscape(s);
    MaybeFlush();
  }
  void Leaf(const char* tag, const std::string& text) {
    Open(tag);
    Text(text);
    CloseInline(tag);
  }

  std::size_t bytes() const { return bytes_ + buf_.size(); }

  void Flush() {
    bytes_ += buf_.size();
    if (file_ != nullptr) {
      std::fwrite(buf_.data(), 1, buf_.size(), file_);
    } else {
      *str_ += buf_;
    }
    buf_.clear();
  }

 private:
  static constexpr std::size_t kFlushAt = 1 << 16;
  void MaybeFlush() {
    if (buf_.size() >= kFlushAt) Flush();
  }
  std::FILE* file_ = nullptr;
  std::string* str_ = nullptr;
  std::string buf_;
  std::size_t bytes_ = 0;
};

std::string Word(Rng* rng) {
  static const char* kWords[] = {
      "auction", "gold",   "market", "system", "stream", "forest", "query",
      "august",  "winter", "basic",  "silver", "mighty", "token",  "branch",
      "august",  "orange", "little", "stone",  "river",  "window",
  };
  return kWords[rng->Below(sizeof(kWords) / sizeof(kWords[0]))];
}

std::string Sentence(Rng* rng, int words) {
  std::string s;
  for (int i = 0; i < words; ++i) {
    if (i > 0) s += ' ';
    s += Word(rng);
  }
  return s;
}

// --------------------------------------------------------------------------
// XMark-like auction site (depth ~13)
// --------------------------------------------------------------------------

class XmarkGen {
 public:
  XmarkGen(XmlWriter* w, Rng* rng) : w_(*w), rng_(*rng) {}

  void Generate(std::size_t target_bytes) {
    w_.Open("site");
    // Interleave sections so every size contains all query targets. The
    // shares roughly follow XMark's entity mix.
    w_.Open("regions");
    const char* kRegions[] = {"africa",  "asia",     "australia",
                              "europe",  "namerica", "samerica"};
    std::size_t region_budget = target_bytes / 5;
    for (const char* region : kRegions) {
      w_.Open(region);
      std::size_t stop = w_.bytes() + region_budget / 6;
      while (w_.bytes() < stop) Item();
      w_.Close(region);
    }
    w_.Close("regions");

    w_.Open("people");
    std::size_t people_stop = w_.bytes() + target_bytes / 4;
    while (w_.bytes() < people_stop) Person();
    w_.Close("people");

    w_.Open("open_auctions");
    std::size_t open_stop = w_.bytes() + target_bytes / 4;
    while (w_.bytes() < open_stop) OpenAuction();
    w_.Close("open_auctions");

    w_.Open("closed_auctions");
    while (w_.bytes() < target_bytes) ClosedAuction();
    w_.Close("closed_auctions");

    w_.Close("site");
    w_.Flush();
  }

 private:
  void Item() {
    w_.Open("item");
    w_.Leaf("item_id", "item" + std::to_string(item_id_++));
    w_.Leaf("location", Word(&rng_));
    w_.Leaf("quantity", std::to_string(rng_.Below(5) + 1));
    w_.Leaf("name", Sentence(&rng_, 2));
    w_.Leaf("payment", "Creditcard");
    w_.Open("description");
    w_.Open("text");
    w_.Text(Sentence(&rng_, 12));
    w_.CloseInline("text");
    w_.CloseInline("description");
    w_.Leaf("shipping", "Will ship internationally");
    w_.Close("item");
  }

  void Person() {
    w_.Open("person");
    // ~1 in 50 persons is person0, so Q1 has hits at every size.
    std::uint64_t id = rng_.Chance(1, 50) ? 0 : ++person_id_;
    w_.Leaf("person_id", "person" + std::to_string(id));
    w_.Leaf("name", Sentence(&rng_, 2));
    w_.Leaf("emailaddress", "mailto:" + Word(&rng_) + "@example.com");
    if (rng_.Chance(3, 5)) {
      // 60% have a homepage; Q17 selects the other 40%.
      w_.Leaf("homepage", "http://www." + Word(&rng_) + ".example.com");
    }
    if (rng_.Chance(1, 2)) w_.Leaf("creditcard", "9998 2331");
    w_.Close("person");
  }

  void OpenAuction() {
    w_.Open("open_auction");
    w_.Leaf("auction_id", "open_auction" + std::to_string(open_id_++));
    w_.Leaf("initial", std::to_string(rng_.Below(200)) + ".00");
    w_.Leaf("reserve", std::to_string(rng_.Below(400)) + ".00");
    int bidders = static_cast<int>(rng_.Below(5));
    for (int i = 0; i < bidders; ++i) {
      w_.Open("bidder");
      w_.Open("personref");
      // personXX/personYY occasionally adjacent, so Q4 (on engines that
      // support following-sibling) has hits.
      std::string ref;
      if (rng_.Chance(1, 20)) {
        ref = (i % 2 == 0) ? "personXX" : "personYY";
      } else {
        ref = "person" + std::to_string(rng_.Below(1000));
      }
      w_.Leaf("personref_person", ref);
      w_.CloseInline("personref");
      w_.Leaf("date", "01/15/2001");
      w_.Leaf("increase", std::to_string(rng_.Below(50) + 1) + ".50");
      w_.Close("bidder");
    }
    w_.Leaf("current", std::to_string(rng_.Below(500)) + ".00");
    w_.Open("type");
    w_.Text("Regular");
    w_.CloseInline("type");
    w_.Close("open_auction");
  }

  void ClosedAuction() {
    w_.Open("closed_auction");
    w_.Open("seller");
    w_.Leaf("seller_person", "person" + std::to_string(rng_.Below(1000)));
    w_.CloseInline("seller");
    w_.Open("buyer");
    w_.Leaf("buyer_person", "person" + std::to_string(rng_.Below(1000)));
    w_.CloseInline("buyer");
    w_.Leaf("price", std::to_string(rng_.Below(500)) + ".00");
    w_.Leaf("date", "02/18/2001");
    if (rng_.Chance(1, 2)) {
      // The deep Q16 chain: annotation/description/parlist/listitem/parlist/
      // listitem/text/emph/keyword/text() — depth 13 from the root.
      w_.Open("annotation");
      w_.Open("description");
      w_.Open("parlist");
      w_.Open("listitem");
      w_.Open("parlist");
      w_.Open("listitem");
      w_.Open("text");
      w_.Open("emph");
      w_.Open("keyword");
      if (rng_.Chance(2, 3)) w_.Text(Word(&rng_));
      w_.CloseInline("keyword");
      w_.CloseInline("emph");
      w_.CloseInline("text");
      w_.CloseInline("listitem");
      w_.CloseInline("parlist");
      w_.CloseInline("listitem");
      w_.CloseInline("parlist");
      w_.CloseInline("description");
      w_.CloseInline("annotation");
    }
    w_.Close("closed_auction");
  }

  XmlWriter& w_;
  Rng& rng_;
  std::uint64_t item_id_ = 0;
  std::uint64_t person_id_ = 0;
  std::uint64_t open_id_ = 0;
};

// --------------------------------------------------------------------------
// TreeBank-like deep parse trees (depth ~37)
// --------------------------------------------------------------------------

class TreebankGen {
 public:
  TreebankGen(XmlWriter* w, Rng* rng) : w_(*w), rng_(*rng) {}

  void Generate(std::size_t target_bytes) {
    w_.Open("treebank");
    while (w_.bytes() < target_bytes) {
      w_.Open("sentence");
      // Force a deep spine (the paper: depth 37 at 86 MB) with bushy
      // branches hanging off it.
      Node(1, 34 + static_cast<int>(rng_.Below(3)));
      w_.Close("sentence");
    }
    w_.Close("treebank");
    w_.Flush();
  }

 private:
  const char* Tag() {
    static const char* kTags[] = {"S",   "NP", "VP",  "PP",  "DET",
                                  "ADJ", "N",  "V",   "PRP", "CONJ"};
    return kTags[rng_.Below(10)];
  }

  void Node(int depth, int spine_left) {
    const char* tag = Tag();
    w_.Open(tag);
    if (spine_left > 0) {
      // One child continues the deep spine; a few shallow siblings.
      int shallow = static_cast<int>(rng_.Below(3));
      for (int i = 0; i < shallow; ++i) Node(depth + 1, 0);
      Node(depth + 1, spine_left - 1);
    } else if (depth < 6 && rng_.Chance(1, 2)) {
      int kids = 1 + static_cast<int>(rng_.Below(3));
      for (int i = 0; i < kids; ++i) Node(depth + 1, 0);
    } else {
      w_.Text(Word(&rng_));
    }
    w_.CloseInline(tag);
  }

  XmlWriter& w_;
  Rng& rng_;
};

// --------------------------------------------------------------------------
// Medline-like bibliographic records (depth ~8)
// --------------------------------------------------------------------------

class MedlineGen {
 public:
  MedlineGen(XmlWriter* w, Rng* rng) : w_(*w), rng_(*rng) {}

  void Generate(std::size_t target_bytes) {
    w_.Open("MedlineCitationSet");
    std::uint64_t pmid = 10000000;
    while (w_.bytes() < target_bytes) {
      w_.Open("MedlineCitation");
      w_.Leaf("PMID", std::to_string(pmid++));
      w_.Open("Article");
      w_.Open("Journal");
      w_.Open("JournalIssue");
      w_.Leaf("Volume", std::to_string(rng_.Below(80) + 1));
      w_.Leaf("Issue", std::to_string(rng_.Below(12) + 1));
      w_.Leaf("Year", std::to_string(1990 + rng_.Below(20)));
      w_.CloseInline("JournalIssue");
      w_.Leaf("Title", Sentence(&rng_, 4));
      w_.CloseInline("Journal");
      w_.Leaf("ArticleTitle", Sentence(&rng_, 9));
      w_.Open("Abstract");
      w_.Leaf("AbstractText", Sentence(&rng_, 40));
      w_.CloseInline("Abstract");
      w_.Open("AuthorList");
      int authors = 1 + static_cast<int>(rng_.Below(5));
      for (int i = 0; i < authors; ++i) {
        w_.Open("Author");
        w_.Leaf("LastName", Word(&rng_));
        w_.Leaf("ForeName", Word(&rng_));
        w_.CloseInline("Author");
      }
      w_.CloseInline("AuthorList");
      w_.CloseInline("Article");
      w_.Open("MeshHeadingList");
      int mesh = static_cast<int>(rng_.Below(6));
      for (int i = 0; i < mesh; ++i) {
        w_.Open("MeshHeading");
        w_.Leaf("DescriptorName", Word(&rng_));
        w_.CloseInline("MeshHeading");
      }
      w_.CloseInline("MeshHeadingList");
      w_.Close("MedlineCitation");
    }
    w_.Close("MedlineCitationSet");
    w_.Flush();
  }

 private:
  XmlWriter& w_;
  Rng& rng_;
};

// --------------------------------------------------------------------------
// Protein-like sequence records (depth ~8)
// --------------------------------------------------------------------------

class ProteinGen {
 public:
  ProteinGen(XmlWriter* w, Rng* rng) : w_(*w), rng_(*rng) {}

  void Generate(std::size_t target_bytes) {
    w_.Open("ProteinDatabase");
    std::uint64_t uid = 100000;
    while (w_.bytes() < target_bytes) {
      w_.Open("ProteinEntry");
      w_.Open("header");
      w_.Leaf("uid", "PIR" + std::to_string(uid++));
      w_.Leaf("accession", "A" + std::to_string(rng_.Below(99999)));
      w_.CloseInline("header");
      w_.Open("protein");
      w_.Leaf("name", Sentence(&rng_, 3));
      w_.CloseInline("protein");
      w_.Open("organism");
      w_.Leaf("source", Word(&rng_));
      w_.Leaf("common", Word(&rng_));
      w_.CloseInline("organism");
      w_.Open("reference");
      w_.Open("refinfo");
      w_.Open("authors");
      int authors = 1 + static_cast<int>(rng_.Below(4));
      for (int i = 0; i < authors; ++i) w_.Leaf("author", Word(&rng_));
      w_.CloseInline("authors");
      w_.Leaf("title", Sentence(&rng_, 7));
      w_.CloseInline("refinfo");
      w_.CloseInline("reference");
      w_.Open("summary");
      w_.Leaf("length", std::to_string(50 + rng_.Below(900)));
      w_.Leaf("type", "complete");
      w_.CloseInline("summary");
      // Sequence data: the bulk of the Protein DB's bytes.
      std::string seq;
      int n = 60 + static_cast<int>(rng_.Below(400));
      static const char kAmino[] = "ACDEFGHIKLMNPQRSTVWY";
      for (int i = 0; i < n; ++i) seq += kAmino[rng_.Below(20)];
      w_.Leaf("sequence", seq);
      w_.Close("ProteinEntry");
    }
    w_.Close("ProteinDatabase");
    w_.Flush();
  }

 private:
  XmlWriter& w_;
  Rng& rng_;
};

void Dispatch(DatasetKind kind, std::size_t target_bytes, std::uint64_t seed,
              XmlWriter* w) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 32) ^ target_bytes);
  switch (kind) {
    case DatasetKind::kXmark:
      XmarkGen(w, &rng).Generate(target_bytes);
      break;
    case DatasetKind::kTreebank:
      TreebankGen(w, &rng).Generate(target_bytes);
      break;
    case DatasetKind::kMedline:
      MedlineGen(w, &rng).Generate(target_bytes);
      break;
    case DatasetKind::kProtein:
      ProteinGen(w, &rng).Generate(target_bytes);
      break;
  }
}

}  // namespace

const char* DatasetName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kXmark: return "xmark";
    case DatasetKind::kTreebank: return "treebank";
    case DatasetKind::kMedline: return "medline";
    case DatasetKind::kProtein: return "protein";
  }
  return "unknown";
}

Status GenerateDataset(DatasetKind kind, std::size_t target_bytes,
                       std::uint64_t seed, std::FILE* out) {
  XmlWriter w(out);
  Dispatch(kind, target_bytes, seed, &w);
  return Status::OK();
}

Result<std::string> GenerateDatasetString(DatasetKind kind,
                                          std::size_t target_bytes,
                                          std::uint64_t seed) {
  std::string s;
  XmlWriter w(&s);
  Dispatch(kind, target_bytes, seed, &w);
  return s;
}

Result<DatasetStats> ScanDatasetFile(const std::string& path) {
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<ByteSource> src,
                         MmapSource::Open(path));
  SaxParser parser(src.get());
  DatasetStats stats;
  std::size_t depth = 0;
  XmlEvent ev;
  while (true) {
    XQMFT_RETURN_NOT_OK(parser.Next(&ev));
    switch (ev.type) {
      case XmlEventType::kStartElement:
        ++stats.elements;
        ++depth;
        if (depth > stats.depth) stats.depth = depth;
        break;
      case XmlEventType::kEndElement:
        --depth;
        break;
      case XmlEventType::kText:
        ++stats.texts;
        // Text nodes are nodes of the tree; they count toward depth.
        if (depth + 1 > stats.depth) stats.depth = depth + 1;
        break;
      case XmlEventType::kEndOfDocument:
        stats.bytes = parser.bytes_consumed();
        return stats;
    }
  }
}

Result<std::string> EnsureDataset(DatasetKind kind, std::size_t target_bytes,
                                  std::uint64_t seed) {
  const char* env = std::getenv("XQMFT_DATA_DIR");
  std::string dir = env != nullptr ? env : "/tmp/xqmft_data";
  ::mkdir(dir.c_str(), 0755);
  std::string path = StrFormat("%s/%s_%zu_%llu.xml", dir.c_str(),
                               DatasetName(kind), target_bytes,
                               static_cast<unsigned long long>(seed));
  struct ::stat st;
  if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
    return path;
  }
  // Generate under a unique name in the same directory, then rename(2) it
  // into place: `path` only ever names a complete document, so a run killed
  // mid-generation or a concurrent caller never sees a truncated one.
  std::string tmp = path + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  std::FILE* f = fd < 0 ? nullptr : ::fdopen(fd, "wb");
  if (f == nullptr) {
    if (fd >= 0) {
      ::close(fd);
      std::remove(tmp.c_str());
    }
    return Status::InvalidArgument("cannot create dataset file: " + tmp);
  }
  ::fchmod(fd, 0644);
  Status gen = GenerateDataset(kind, target_bytes, seed, f);
  const bool write_failed = std::ferror(f) != 0;
  if ((std::fclose(f) != 0 || write_failed) && gen.ok()) {
    gen = Status::Internal("short write to dataset file: " + tmp);
  }
  if (gen.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    gen = Status::Internal("cannot rename " + tmp + " to " + path);
  }
  if (!gen.ok()) {
    std::remove(tmp.c_str());
    return gen;
  }
  return path;
}

}  // namespace xqmft
