// Parser front-end microbenchmarks: raw scan throughput (MB/s) and event
// rates for the three input paths —
//
//   sax/*          bulk-scanning lexer over an in-memory (mapped) region
//   sax_chunked/*  same lexer behind a Read()-only source (refill path,
//                  what stdin/pipe input pays)
//   pretok/*       pre-tokenized binary events, zero scanning
//   sax/skip_subtree/xmark
//                  SaxParser::SkipSubtree over the whole document below
//                  its root: the byte-level skip a source projection pays
//                  for a rejected subtree, against sax/xmark's full
//                  tokenizing of the same bytes (xqbench's traced mode
//                  cannot show it: its timing wrapper skips by pulling)
//
// plus a text-heavy document isolating the memchr text scan and a
// markup-heavy one isolating name/attr scanning. items_per_second = events/s
// and bytes_per_second = input MB/s in the JSON report; the pretok format's
// acceptance bar is pretok >= 2x sax on events/s over XMark.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>

#include "bench_common/env.h"
#include "data/generators.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

namespace xqmft {
namespace {

const std::string& XmarkDoc() {
  static const std::string doc = [] {
    auto r = GenerateDatasetString(DatasetKind::kXmark,
                                   EnvMb("XQMFT_BENCH_PARSER_MB", 4), 7);
    return r.ok() ? std::move(r).value() : std::string();
  }();
  return doc;
}

// A document whose bytes are almost all character data: the text-until-'<'
// scan dominates, giving the raw bulk-scan MB/s ceiling.
const std::string& TextHeavyDoc() {
  static const std::string doc = [] {
    std::string d = "<doc>";
    std::string line = "The quick brown fox jumps over the lazy dog; ";
    std::string para;
    for (int i = 0; i < 80; ++i) para += line;
    for (int i = 0; i < 200; ++i) {
      d += "<p>";
      d += para;
      d += "</p>";
    }
    d += "</doc>";
    return d;
  }();
  return doc;
}

// A document that is almost all tags and attributes: names and attr values
// dominate, exercising the class-table and quote scans.
const std::string& MarkupHeavyDoc() {
  static const std::string doc = [] {
    std::string d = "<doc>";
    for (int i = 0; i < 40000; ++i) {
      d += "<item id=\"00000000\" cat=\"tools\"><v/><v/></item>";
    }
    d += "</doc>";
    return d;
  }();
  return doc;
}

// Read()-only wrapper: hides Contents() so the parser takes the refill path.
class OpaqueSource : public ByteSource {
 public:
  explicit OpaqueSource(std::string_view s) : s_(s) {}
  std::size_t Read(char* buf, std::size_t n) override {
    std::size_t avail = s_.size() - pos_;
    std::size_t take = n < avail ? n : avail;
    std::memcpy(buf, s_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

template <typename MakeSource>
void DrainParser(benchmark::State& state, const std::string& doc,
                 const MakeSource& make) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::size_t events = 0;
  for (auto _ : state) {
    auto source = make(doc);
    SaxParser parser(&*source);
    XmlEvent ev;
    events = 0;
    while (true) {
      Status st = parser.Next(&ev);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      if (ev.type == XmlEventType::kEndOfDocument) break;
      ++events;
      benchmark::DoNotOptimize(ev.text.data());
    }
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<int64_t>(events * state.iterations()));
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

void BenchSax(benchmark::State& state, const std::string& doc) {
  DrainParser(state, doc, [](const std::string& d) {
    return std::make_unique<StringSource>(d);
  });
}

void BenchSaxChunked(benchmark::State& state, const std::string& doc) {
  DrainParser(state, doc, [](const std::string& d) {
    return std::make_unique<OpaqueSource>(d);
  });
}

void BenchPretok(benchmark::State& state, const std::string& doc) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::string pretok;
  {
    StringSource src(doc);
    Status st = PretokenizeXml(&src, &pretok);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  std::size_t events = 0;
  for (auto _ : state) {
    PretokSource src(pretok);
    XmlEvent ev;
    events = 0;
    while (true) {
      Status st = src.Next(&ev);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      if (ev.type == XmlEventType::kEndOfDocument) break;
      ++events;
      benchmark::DoNotOptimize(ev.text.data());
    }
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["pretok_bytes"] = static_cast<double>(pretok.size());
  state.SetItemsProcessed(static_cast<int64_t>(events * state.iterations()));
  // Bytes are the *XML* bytes this pass replaced, so MB/s columns compare
  // like for like across the three series.
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

// Pulls the root start event, then skips everything below it.
void BenchSaxSkip(benchmark::State& state, const std::string& doc) {
  if (doc.empty()) {
    state.SkipWithError("document generation failed");
    return;
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    StringSource src(doc);
    SaxParser parser(&src);
    XmlEvent ev;
    Status st = parser.Next(&ev);
    events = 0;
    if (st.ok()) st = parser.SkipSubtree(&events);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(parser.bytes_consumed());
  }
  state.counters["events"] = static_cast<double>(events);
  state.SetItemsProcessed(static_cast<int64_t>(events * state.iterations()));
  state.SetBytesProcessed(
      static_cast<int64_t>(doc.size() * state.iterations()));
}

void Register() {
  struct Doc {
    const char* name;
    const std::string& (*get)();
  };
  const Doc docs[] = {
      {"xmark", XmarkDoc},
      {"text_heavy", TextHeavyDoc},
      {"markup_heavy", MarkupHeavyDoc},
  };
  for (const Doc& d : docs) {
    benchmark::RegisterBenchmark(
        (std::string("sax/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchSax(st, get()); })
        ->Unit(benchmark::kMillisecond);
    if (d.get == XmarkDoc) {
      benchmark::RegisterBenchmark(
          "sax/skip_subtree/xmark",
          [](benchmark::State& st) { BenchSaxSkip(st, XmarkDoc()); })
          ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("sax_chunked/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchSaxChunked(st, get()); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("pretok/") + d.name).c_str(),
        [get = d.get](benchmark::State& st) { BenchPretok(st, get()); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace xqmft

int main(int argc, char** argv) {
  xqmft::Register();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
