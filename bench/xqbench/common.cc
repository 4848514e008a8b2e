#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "frozen.h"
#include "lower/lower.h"
#include "mft/optimize.h"
#include "translate/translate.h"
#include "util/strings.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"
#include "xqbench.h"
#include "xquery/evaluator.h"

namespace xqbench {

using xqmft::Status;

void RunResult::Set(const std::string& name, double value, const char* unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RunResult::Problem(std::string what) {
  std::fprintf(stderr, "xqbench: %s\n", what.c_str());
  problems.push_back(std::move(what));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage ru;
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  return xqmft::StrFormat("%016llx", static_cast<unsigned long long>(v));
}

xqmft::Result<Doc> MakeDoc(xqmft::DatasetKind kind, std::size_t bytes,
                           std::uint64_t seed, std::string label,
                           RunResult* out) {
  XQMFT_ASSIGN_OR_RETURN(std::string path,
                         xqmft::EnsureDataset(kind, bytes, seed));
  XQMFT_ASSIGN_OR_RETURN(std::unique_ptr<xqmft::ByteSource> src,
                         xqmft::MmapSource::Open(path));
  std::string_view whole;
  std::string copy;
  if (!src->Contents(&whole)) {
    char buf[1 << 16];
    for (std::size_t n; (n = src->Read(buf, sizeof(buf))) > 0;) {
      copy.append(buf, n);
    }
    whole = copy;
  }
  RunResult::Input in;
  in.name = path.substr(path.find_last_of('/') + 1);
  in.bytes = whole.size();
  in.fnv1a = Fnv1a(whole);
  out->inputs.push_back(in);
  if (seed == kDefaultSeed) {
    for (const FrozenInput& f : kSeed1Inputs) {
      if (in.name != f.name) continue;
      if (in.bytes != f.bytes || in.fnv1a != f.fnv1a) {
        return Status::Internal(xqmft::StrFormat(
            "input identity changed: %s is %zu bytes, fnv1a %s; frozen.h "
            "records %zu bytes, fnv1a %s",
            in.name.c_str(), in.bytes, Hex(in.fnv1a).c_str(), f.bytes,
            Hex(f.fnv1a).c_str()));
      }
      return Doc{std::move(label), std::move(path), in.bytes};
    }
    return Status::Internal("input " + in.name +
                            " has no frozen identity in frozen.h");
  }
  return Doc{std::move(label), std::move(path), in.bytes};
}

void HashSink::StartElement(std::string_view name) {
  Add("<");
  Add(name);
  Add(">");
}

void HashSink::EndElement(std::string_view name) {
  Add("</");
  Add(name);
  Add(">");
}

void HashSink::Text(std::string_view content) {
  Add(xqmft::XmlEscape(content));
}

namespace {

std::int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// What one timed interval costs with nothing in it (a clock read), measured
// once; each sample subtracts it so the scaled sums carry no clock bias.
std::int64_t EmptyIntervalNs() {
  static const std::int64_t ns = [] {
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
      const Clock::time_point a = Clock::now();
      d.push_back(static_cast<double>(NsBetween(a, Clock::now())));
    }
    return static_cast<std::int64_t>(Median(d));
  }();
  return ns;
}

// Runs `call`, timing it when this is the layer's sampled call.
template <typename F>
void Timed(LayerClock* clock, F call) {
  if (clock->calls++ % LayerClock::kSampleEvery != 0) {
    call();
    return;
  }
  const Clock::time_point t0 = Clock::now();
  call();
  clock->sampled_ns +=
      std::max<std::int64_t>(0, NsBetween(t0, Clock::now()) -
                                    EmptyIntervalNs());
}

}  // namespace

Status TimedSource::Next(xqmft::XmlEvent* event) {
  Status st;
  Timed(clock_, [&] { st = inner_->Next(event); });
  return st;
}

void TimedSink::StartElement(std::string_view name) {
  Timed(clock_, [&] { inner_->StartElement(name); });
  bytes_ += name.size() + 2;
}

void TimedSink::EndElement(std::string_view name) {
  Timed(clock_, [&] { inner_->EndElement(name); });
  bytes_ += name.size() + 3;
}

void TimedSink::Text(std::string_view content) {
  Timed(clock_, [&] { inner_->Text(content); });
  bytes_ += xqmft::XmlEscapedSize(content);
}

std::uint64_t Tracer::Begin(std::string name, std::uint64_t parent,
                            std::uint64_t request) {
  if (!on_) return 0;
  Clock::time_point now = Clock::now();
  spans_.push_back({std::move(name), now, now, parent, request, {}});
  return spans_.size();
}

void Tracer::End(std::uint64_t id,
                 std::vector<std::pair<std::string, double>> args) {
  if (!on_ || id == 0) return;
  Span& s = spans_[id - 1];
  s.end = Clock::now();
  s.args = std::move(args);
}

void Tracer::Add(std::string name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t parent,
                 std::uint64_t request) {
  if (!on_) return;
  spans_.push_back({std::move(name), start, end, parent, request, {}});
}

Status Tracer::WriteChrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::InvalidArgument("cannot write " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%llu,\"request\":%llu",
                 i == 0 ? "" : ",\n", s.name.c_str(), us(s.start),
                 us(s.end) - us(s.start), i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ",\"%s\":%.6f", key.c_str(), value);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("short write to " + path);
}

xqmft::Result<double> CompilePlans(
    const std::vector<std::string>& texts,
    std::vector<std::shared_ptr<const xqmft::CompiledPlan>>* plans) {
  plans->clear();
  const Clock::time_point t0 = Clock::now();
  for (const std::string& text : texts) {
    XQMFT_ASSIGN_OR_RETURN(auto plan, xqmft::CompiledPlan::Compile(text));
    xqmft::lower::GetLoweredPlan(plan->mft());
    plans->push_back(std::move(plan));
  }
  return Seconds(t0, Clock::now());
}

namespace {

// Drains an event source, returning the events it produced.
xqmft::Result<std::uint64_t> Drain(xqmft::EventSource* src) {
  xqmft::XmlEvent ev;
  std::uint64_t events = 0;
  do {
    XQMFT_RETURN_NOT_OK(src->Next(&ev));
    ++events;
  } while (ev.type != xqmft::XmlEventType::kEndOfDocument);
  return events;
}

}  // namespace

Status ProbeLayers(
    const std::vector<std::string>& texts,
    const std::vector<std::shared_ptr<const xqmft::CompiledPlan>>& plans,
    const std::vector<Doc>& docs, int reps, Tracer* tracer, RunResult* out) {
  // Compile pipeline, one public function at a time, from cold.
  std::vector<double> parse, translate, optimize, lowering;
  for (int r = 0; r < reps; ++r) {
    double p = 0, t = 0, o = 0, l = 0;
    std::uint64_t set_span = tracer->Begin("compile");
    for (const std::string& text : texts) {
      Clock::time_point t0 = Clock::now();
      XQMFT_ASSIGN_OR_RETURN(auto query, xqmft::ParseQuery(text));
      XQMFT_RETURN_NOT_OK(xqmft::ValidateQuery(*query));
      Clock::time_point t1 = Clock::now();
      XQMFT_ASSIGN_OR_RETURN(xqmft::Mft raw, xqmft::TranslateQuery(*query));
      Clock::time_point t2 = Clock::now();
      xqmft::Mft mft = xqmft::OptimizeMft(raw);
      Clock::time_point t3 = Clock::now();
      // Not lowerable is a verdict, not an error: the time still counts.
      (void)xqmft::lower::LowerMft(mft);
      Clock::time_point t4 = Clock::now();
      tracer->Add("compile.parse", t0, t1, set_span, 0);
      tracer->Add("compile.translate", t1, t2, set_span, 0);
      tracer->Add("compile.optimize", t2, t3, set_span, 0);
      tracer->Add("compile.lower", t3, t4, set_span, 0);
      p += MsBetween(t0, t1);
      t += MsBetween(t1, t2);
      o += MsBetween(t2, t3);
      l += MsBetween(t3, t4);
    }
    tracer->End(set_span);
    parse.push_back(p * 1e3);
    translate.push_back(t * 1e3);
    optimize.push_back(o * 1e3);
    lowering.push_back(l * 1e3);
  }
  out->Set("compile.parse_us", Median(parse), "us");
  out->Set("compile.translate_us", Median(translate), "us");
  out->Set("compile.optimize_us", Median(optimize), "us");
  out->Set("compile.lower_us", Median(lowering), "us");

  std::size_t rules = 0, hybrid = 0, table = 0;
  for (const auto& plan : plans) {
    rules += xqmft::ComputeStats(plan->mft()).rules;
    const xqmft::lower::LoweredPlan* lowered =
        xqmft::lower::GetLoweredPlan(plan->mft());
    if (lowered == nullptr) {
      ++table;
    } else if (lowered->hybrid) {
      ++hybrid;
    }
  }
  out->Set("mft.rules", static_cast<double>(rules), "count");
  out->Set("lower.hybrid_plans", static_cast<double>(hybrid), "count");
  out->Set("lower.table_plans", static_cast<double>(table), "count");

  // The xml layer alone: a SaxParser::Next loop, then a PretokSource::Next
  // loop over the same events (the floor a faster lexer could reach).
  const xqmft::SaxOptions sax = plans.front()->options().stream.sax;
  std::vector<std::string> pretok(docs.size());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(docs[d].path));
    XQMFT_RETURN_NOT_OK(xqmft::PretokenizeXml(src.get(), sax, &pretok[d]));
  }
  std::vector<double> tokenize, replay;
  std::uint64_t events = 0;
  std::size_t bytes = 0;
  for (int r = 0; r < reps; ++r) {
    double tok_ms = 0, replay_ms = 0;
    events = 0;
    bytes = 0;
    for (std::size_t d = 0; d < docs.size(); ++d) {
      XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(docs[d].path));
      xqmft::SaxParser parser(src.get(), sax);
      std::uint64_t span = tracer->Begin("xml.tokenize");
      Clock::time_point t0 = Clock::now();
      XQMFT_ASSIGN_OR_RETURN(std::uint64_t n, Drain(&parser));
      tok_ms += MsBetween(t0, Clock::now());
      tracer->End(span);
      events += n;
      bytes += docs[d].bytes;

      xqmft::PretokSource replay_src(pretok[d]);
      span = tracer->Begin("xml.pretok_replay");
      t0 = Clock::now();
      XQMFT_ASSIGN_OR_RETURN(std::uint64_t m, Drain(&replay_src));
      replay_ms += MsBetween(t0, Clock::now());
      tracer->End(span);
      if (r > 0) continue;
      ++out->attempted;
      if (m != n) {
        ++out->failed;
        out->Problem(xqmft::StrFormat(
            "pretok replay of %s gave %llu events, the parser %llu",
            docs[d].label.c_str(), static_cast<unsigned long long>(m),
            static_cast<unsigned long long>(n)));
      }
    }
    tokenize.push_back(tok_ms);
    replay.push_back(replay_ms);
  }
  // Best repetition, as for the passes: interference only adds time.
  const double tok_ms = *std::min_element(tokenize.begin(), tokenize.end());
  out->Set("xml.tokenize_ms", tok_ms, "ms");
  out->Set("xml.tokenize_MBps",
           static_cast<double>(bytes) / 1048576.0 / (tok_ms / 1e3), "MB/s");
  out->Set("xml.pretok_replay_ms",
           *std::min_element(replay.begin(), replay.end()), "ms");
  out->Set("xml.events", static_cast<double>(events), "count");
  return Status::OK();
}

void CheckAgainstReference(
    const std::vector<std::string>& ids,
    const std::vector<std::shared_ptr<const xqmft::CompiledPlan>>& plans,
    const std::vector<std::string>& streamed, const Doc& doc,
    RunResult* out) {
  xqmft::Result<xqmft::Forest> forest =
      xqmft::ParseXmlFile(doc.path, plans.front()->options().stream.sax);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    ++out->attempted;
    if (!forest.ok()) {
      ++out->failed;
      out->Problem("oracle: cannot parse " + doc.path + ": " +
                   forest.status().ToString());
      continue;
    }
    xqmft::Result<xqmft::Forest> want =
        xqmft::EvaluateQuery(plans[i]->query(), forest.value());
    if (!want.ok()) {
      ++out->failed;
      out->Problem("oracle: reference evaluation of " + ids[i] +
                   " failed: " + want.status().ToString());
      continue;
    }
    xqmft::StringSink want_sink;
    xqmft::EmitForest(want.value(), &want_sink);
    if (want_sink.str() != streamed[i]) {
      ++out->failed;
      out->Problem(xqmft::StrFormat(
          "oracle: %s on %s differs from the reference evaluator (%zu vs "
          "%zu bytes)",
          ids[i].c_str(), doc.label.c_str(), streamed[i].size(),
          want_sink.str().size()));
    }
  }
}

}  // namespace xqbench
