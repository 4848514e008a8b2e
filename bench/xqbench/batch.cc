// The three single-threaded workloads: `select` and `copy` run each query
// alone through CompiledPlan::StreamFile into a FileSink on /dev/null (the
// CLI's path); `multi` runs its queries in one StreamAllTransform pass per
// document under the union projection.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "bench_common/queries.h"
#include "core/pipeline.h"
#include "util/strings.h"
#include "xml/sax_parser.h"
#include "xqbench.h"

namespace xqbench {
namespace {

using xqmft::Status;
using PlanPtr = std::shared_ptr<const xqmft::CompiledPlan>;

constexpr std::size_t kKiB = 1024;
constexpr std::size_t kMiB = 1024 * kKiB;

struct BatchSpec {
  std::vector<std::string> queries;
  bool treebank = false;  // also stream the deep TreeBank document
  bool multi = false;     // one shared pass per document
};

BatchSpec SpecFor(const std::string& workload) {
  if (workload == "select") {
    return {{"q01", "q02", "q04", "q13", "q16", "q17"}, false, false};
  }
  if (workload == "copy") {
    return {{"double", "fourstar", "deepdup"}, true, false};
  }
  return {{"q01", "q02", "q13", "q16", "q17"}, false, true};
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

struct Batch {
  BatchSpec spec;
  std::vector<PlanPtr> plans;
  std::vector<Doc> docs;
  std::unique_ptr<std::FILE, FileCloser> devnull;
  // From the warm-up pass, per (document, query) slot: the output hash the
  // engine check compares against, and the output event count every later
  // run must repeat.
  std::vector<std::uint64_t> want_hash;
  std::vector<std::size_t> want_events;

  std::size_t Slot(std::size_t d, std::size_t q) const {
    return d * plans.size() + q;
  }
  std::size_t Slots() const { return docs.size() * plans.size(); }
  std::string SlotName(std::size_t slot) const {
    return spec.queries[slot % plans.size()] + " on " +
           docs[slot / plans.size()].label;
  }
};

enum class Mode {
  kTimed,   // the measured path
  kTraced,  // the same path behind timing wrappers, with spans
  kHash,    // warm-up: the measured path into hashing sinks
};

struct Pass {
  double ms = 0;
  std::vector<double> request_ms;
  std::vector<xqmft::StreamStats> stats;  // per slot
  std::vector<std::uint64_t> hash;        // per slot, kHash only
  LayerClock xml, sink;                   // kTraced only
  double run_ms = 0;  // multi: time inside the shared-pass calls
  std::uint64_t events_total = 0, events_skipped = 0;
  std::size_t out_bytes = 0;
};

// Counts one streamed slot and checks it against the warm-up run.
void CheckSlot(const Batch& b, std::size_t slot, const Status& st,
               const Pass& p, RunResult* out) {
  ++out->attempted;
  if (!st.ok()) {
    ++out->failed;
    out->Problem(b.SlotName(slot) + ": " + st.ToString());
  } else if (!b.want_events.empty() &&
             p.stats[slot].output_events != b.want_events[slot]) {
    ++out->failed;
    out->Problem(xqmft::StrFormat(
        "%s emitted %zu events, the warm-up run %zu",
        b.SlotName(slot).c_str(), p.stats[slot].output_events,
        b.want_events[slot]));
  }
}

Status RunSingle(const Batch& b, Mode mode, std::size_t d, std::size_t q,
                 Tracer* tracer, std::uint64_t parent, Pass* p,
                 RunResult* out) {
  const xqmft::CompiledPlan& plan = *b.plans[q];
  const std::size_t slot = b.Slot(d, q);
  HashSink hash;
  xqmft::FileSink file(b.devnull.get());
  xqmft::OutputSink* sink = &file;
  if (mode == Mode::kHash) sink = &hash;
  // A request is one query over one document; its span's request id is its
  // slot, counted from 1.
  std::uint64_t span = tracer->Begin(b.SlotName(slot), parent, slot + 1);
  Clock::time_point t0 = Clock::now();
  Status st;
  if (mode != Mode::kTraced) {
    st = plan.StreamFile(b.docs[d].path, sink, &p->stats[slot]);
    file.Flush();
  } else {
    XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(b.docs[d].path));
    xqmft::SaxParser parser(src.get(), plan.options().stream.sax);
    TimedSource timed_src(&parser, &p->xml);
    TimedSink timed_sink(sink, &p->sink);
    st = plan.StreamEvents(&timed_src, &timed_sink, &p->stats[slot]);
    file.Flush();
    p->out_bytes += timed_sink.bytes();
  }
  p->request_ms.push_back(MsBetween(t0, Clock::now()));
  tracer->End(span);
  p->hash[slot] = hash.hash();
  CheckSlot(b, slot, st, *p, out);
  return Status::OK();
}

Status RunShared(const Batch& b, Mode mode, std::size_t d, Tracer* tracer,
                 std::uint64_t parent, Pass* p, RunResult* out) {
  const std::size_t nq = b.plans.size();
  std::vector<HashSink> hashes(nq);
  std::vector<std::unique_ptr<xqmft::FileSink>> files;
  std::vector<std::unique_ptr<TimedSink>> timed;
  std::vector<xqmft::OutputSink*> sinks;
  std::vector<const xqmft::CompiledPlan*> plans;
  for (std::size_t q = 0; q < nq; ++q) {
    files.push_back(std::make_unique<xqmft::FileSink>(b.devnull.get()));
    xqmft::OutputSink* sink = files.back().get();
    if (mode == Mode::kHash) sink = &hashes[q];
    if (mode == Mode::kTraced) {
      timed.push_back(std::make_unique<TimedSink>(sink, &p->sink));
      sink = timed.back().get();
    }
    sinks.push_back(sink);
    plans.push_back(b.plans[q].get());
  }
  std::vector<xqmft::MultiPlanResult> results;
  xqmft::MultiQueryStats stats;
  std::uint64_t span = tracer->Begin("MultiQueryRun::Run/" + b.docs[d].label,
                                     parent, d + 1);
  Clock::time_point t0 = Clock::now();
  XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(b.docs[d].path));
  Status st;
  if (mode != Mode::kTraced) {
    st = xqmft::StreamAllTransform(plans, src.get(), sinks, {}, &results,
                                   &stats);
  } else {
    xqmft::SaxParser parser(src.get(), plans.front()->options().stream.sax);
    TimedSource timed_src(&parser, &p->xml);
    st = xqmft::StreamAllTransformEvents(plans, &timed_src, sinks, {},
                                         &results, &stats);
  }
  for (auto& f : files) f->Flush();
  const double ms = MsBetween(t0, Clock::now());
  tracer->End(span);
  p->request_ms.push_back(ms);
  p->run_ms += ms;
  p->events_total += stats.events_total;
  p->events_skipped += stats.events_skipped;
  for (auto& t : timed) p->out_bytes += t->bytes();
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t slot = b.Slot(d, q);
    Status plan_st = st;
    if (st.ok() && q < results.size()) {
      plan_st = results[q].status;
      p->stats[slot] = results[q].stats;
    }
    p->hash[slot] = hashes[q].hash();
    CheckSlot(b, slot, plan_st, *p, out);
  }
  return Status::OK();
}

Status RunPass(const Batch& b, Mode mode, Tracer* tracer, Pass* p,
               RunResult* out) {
  p->stats.assign(b.Slots(), {});
  p->hash.assign(b.Slots(), 0);
  std::uint64_t span = tracer->Begin("pass");
  Clock::time_point t0 = Clock::now();
  for (std::size_t d = 0; d < b.docs.size(); ++d) {
    if (b.spec.multi) {
      XQMFT_RETURN_NOT_OK(RunShared(b, mode, d, tracer, span, p, out));
      continue;
    }
    for (std::size_t q = 0; q < b.plans.size(); ++q) {
      XQMFT_RETURN_NOT_OK(RunSingle(b, mode, d, q, tracer, span, p, out));
    }
  }
  p->ms = MsBetween(t0, Clock::now());
  // The per-event layers carry no spans of their own; their sums ride on
  // the pass span.
  tracer->End(span, {{"xml_ms", p->xml.ms()},
                     {"xml_calls", static_cast<double>(p->xml.calls)},
                     {"sink_ms", p->sink.ms()},
                     {"sink_calls", static_cast<double>(p->sink.calls)}});
  return Status::OK();
}

// Repeats passes until `seconds` have gone by (at least three passes), or
// exactly two in smoke mode, calling `between` (when set) after each.
Status RunPasses(const Batch& b, Mode mode, double seconds, bool smoke,
                 Tracer* tracer, const std::function<Status()>& between,
                 std::vector<Pass>* passes, RunResult* out) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    passes->emplace_back();
    XQMFT_RETURN_NOT_OK(RunPass(b, mode, tracer, &passes->back(), out));
    if (between) XQMFT_RETURN_NOT_OK(between());
  } while (smoke ? passes->size() < 2
                 : passes->size() < 3 || Clock::now() < end);
  return Status::OK();
}

// Each request's best time over the passes. Interference on a shared host
// only ever slows a request, and it comes in periods of seconds (on the
// 4-CPU host the benchmark was calibrated on, one pass of `select` took
// 880 to 1730 ms within a minute, with CPU time equal to wall time), so
// the best time is the steady estimate of what the request costs.
std::vector<double> BestRequestMs(const std::vector<Pass>& passes) {
  std::vector<double> best = passes.front().request_ms;
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], p.request_ms[i]);
    }
  }
  return best;
}

const Pass& FastestPass(const std::vector<Pass>& passes) {
  return *std::min_element(
      passes.begin(), passes.end(),
      [](const Pass& a, const Pass& b) { return a.ms < b.ms; });
}

void ReportEndToEnd(const Batch& b, const std::vector<Pass>& passes,
                    RunResult* out) {
  double in_bytes = 0;  // input bytes x queries per pass
  for (const Doc& doc : b.docs) {
    in_bytes += static_cast<double>(doc.bytes * b.plans.size());
  }
  const std::vector<double> best = BestRequestMs(passes);
  double best_ms = 0;
  for (double ms : best) best_ms += ms;
  const double requests = static_cast<double>(best.size());
  out->Set("throughput_MBps", in_bytes / kMiB / (best_ms / 1e3), "MB/s");
  // With fewer than 100 requests a pass, p99 is the slowest request.
  out->Set("lat_p50_ms", Percentile(best, 0.50), "ms");
  out->Set("lat_p99_ms", Percentile(best, 0.99), "ms");
  // Requests run one after another, so the rate is one over their sum.
  out->Set("max_rate_rps", requests / (best_ms / 1e3), "req/s");
  // The spread the best-time estimate avoids, for the record.
  std::vector<double> tput;
  for (const Pass& p : passes) tput.push_back(in_bytes / kMiB / (p.ms / 1e3));
  const double median = Median(tput);
  out->Set("pass_throughput_median_MBps", median, "MB/s");
  out->Set("pass_throughput_iqr_share",
           (Percentile(tput, 0.75) - Percentile(tput, 0.25)) / median,
           "ratio");
}

void ReportLayers(const Batch& b, const std::vector<Pass>& plain,
                  const std::vector<Pass>& traced, RunResult* out) {
  std::uint64_t rules = 0, arena = 0, refcounted = 0, bridges = 0;
  std::size_t peak = 0;
  for (const xqmft::StreamStats& s : plain.back().stats) {
    rules += s.rule_applications;
    arena += s.cells_arena;
    refcounted += s.cells_created;
    bridges += s.bridge_runs;
    peak = std::max(peak, s.peak_bytes);
  }
  out->Set("engine.rule_applications", static_cast<double>(rules), "count");
  out->Set("engine.cells_arena", static_cast<double>(arena), "count");
  out->Set("engine.cells_refcounted", static_cast<double>(refcounted),
           "count");
  out->Set("engine.bridge_runs", static_cast<double>(bridges), "count");
  out->Set("engine.peak_tracked_B", static_cast<double>(peak), "B");

  // The layer split of the fastest traced pass.
  const Pass& t = FastestPass(traced);
  out->Set("sink.out_bytes", static_cast<double>(t.out_bytes), "B");
  out->Set("xml.self_ms", t.xml.ms(), "ms");
  out->Set("sink.self_ms", t.sink.ms(), "ms");
  if (b.spec.multi) {
    // The engines run inside the shared pass, out of the wrappers' sight:
    // the multiquery self time includes them.
    out->Set("multiquery.self_ms", t.run_ms - t.xml.ms() - t.sink.ms(), "ms");
    const Pass& last = plain.back();
    out->Set("multiquery.skip_ratio",
             last.events_total == 0
                 ? 0.0
                 : static_cast<double>(last.events_skipped) /
                       static_cast<double>(last.events_total),
             "ratio");
  } else {
    out->Set("engine.self_ms", t.ms - t.xml.ms() - t.sink.ms(), "ms");
    const std::vector<double> best = BestRequestMs(plain);
    for (std::size_t slot = 0; slot < b.Slots(); ++slot) {
      const std::size_t q = slot % b.plans.size();
      const std::size_t d = slot / b.plans.size();
      out->Set("query." + b.spec.queries[q] + "." + b.docs[d].label + ".ms",
               best[slot], "ms");
    }
  }
  out->Set("trace.overhead_ratio", t.ms / FastestPass(plain).ms, "ratio");
}

// The one-plan cost of the shared-pass runner: q02 through
// StreamAllTransform (projection off, so both sides see every event) over
// q02 through StreamFile.
Status ProbeN1Overhead(const Batch& b, int reps, RunResult* out) {
  const auto it = std::find(b.spec.queries.begin(), b.spec.queries.end(),
                            std::string("q02"));
  const xqmft::CompiledPlan& plan = *b.plans[it - b.spec.queries.begin()];
  const Doc& doc = b.docs.front();
  xqmft::MultiQueryOptions no_projection;
  no_projection.union_projection = false;
  std::vector<double> plain, shared;
  for (int r = 0; r < reps; ++r) {
    xqmft::FileSink sink(b.devnull.get());
    Clock::time_point t0 = Clock::now();
    XQMFT_RETURN_NOT_OK(plan.StreamFile(doc.path, &sink));
    sink.Flush();
    plain.push_back(MsBetween(t0, Clock::now()));

    t0 = Clock::now();
    XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(doc.path));
    XQMFT_RETURN_NOT_OK(xqmft::StreamAllTransform({&plan}, src.get(), {&sink},
                                                  no_projection));
    sink.Flush();
    shared.push_back(MsBetween(t0, Clock::now()));
  }
  out->Set("multiquery.n1_overhead_ratio",
           *std::min_element(shared.begin(), shared.end()) /
               *std::min_element(plain.begin(), plain.end()),
           "ratio");
  return Status::OK();
}

// The table machine is the differential oracle of both engine cores: its
// output on the timed documents must hash like the warm-up run's.
Status CheckTableEngine(const Batch& b, RunResult* out) {
  xqmft::PipelineOptions table;
  table.stream.engine = xqmft::EngineChoice::kTable;
  for (std::size_t q = 0; q < b.plans.size(); ++q) {
    XQMFT_ASSIGN_OR_RETURN(
        auto plan,
        xqmft::CompiledPlan::Compile(xqmft::QueryById(b.spec.queries[q]).text,
                                     table));
    for (std::size_t d = 0; d < b.docs.size(); ++d) {
      const std::size_t slot = b.Slot(d, q);
      HashSink hash;
      Status st = plan->StreamFile(b.docs[d].path, &hash);
      ++out->attempted;
      if (!st.ok() || hash.hash() != b.want_hash[slot]) {
        ++out->failed;
        out->Problem(b.SlotName(slot) +
                     ": output differs from the table engine's" +
                     (st.ok() ? "" : " (" + st.ToString() + ")"));
      }
    }
  }
  return Status::OK();
}

// Streams the workload's queries over a small document through the timed
// path and checks each output against the reference evaluator.
Status CheckOracle(const Batch& b, const Doc& doc, RunResult* out) {
  std::vector<xqmft::StringSink> sinks(b.plans.size());
  if (b.spec.multi) {
    std::vector<const xqmft::CompiledPlan*> plans;
    std::vector<xqmft::OutputSink*> ptrs;
    for (std::size_t q = 0; q < b.plans.size(); ++q) {
      plans.push_back(b.plans[q].get());
      ptrs.push_back(&sinks[q]);
    }
    XQMFT_ASSIGN_OR_RETURN(auto src, xqmft::MmapSource::Open(doc.path));
    XQMFT_RETURN_NOT_OK(xqmft::StreamAllTransform(plans, src.get(), ptrs));
  } else {
    for (std::size_t q = 0; q < b.plans.size(); ++q) {
      XQMFT_RETURN_NOT_OK(b.plans[q]->StreamFile(doc.path, &sinks[q]));
    }
  }
  std::vector<std::string> streamed;
  for (const xqmft::StringSink& s : sinks) streamed.push_back(s.str());
  CheckAgainstReference(b.spec.queries, b.plans, streamed, doc, out);
  return Status::OK();
}

}  // namespace

Status RunBatchWorkload(const RunConfig& cfg, RunResult* out) {
  Batch b;
  b.spec = SpecFor(cfg.workload);
  std::vector<std::string> texts;
  for (const std::string& id : b.spec.queries) {
    texts.push_back(xqmft::QueryById(id).text);
  }

  // Inputs: the timed documents and the small oracle documents.
  const std::size_t xmark_bytes = cfg.smoke ? 256 * kKiB : 16 * kMiB;
  const std::size_t treebank_bytes = cfg.smoke ? 256 * kKiB : 2 * kMiB;
  XQMFT_ASSIGN_OR_RETURN(Doc xmark,
                         MakeDoc(xqmft::DatasetKind::kXmark, xmark_bytes,
                                 cfg.seed, "xmark", out));
  b.docs.push_back(xmark);
  XQMFT_ASSIGN_OR_RETURN(Doc oracle_xmark,
                         MakeDoc(xqmft::DatasetKind::kXmark, 128 * kKiB,
                                 cfg.seed, "xmark_128KiB", out));
  std::vector<Doc> oracle_docs = {oracle_xmark};
  if (b.spec.treebank) {
    XQMFT_ASSIGN_OR_RETURN(Doc treebank,
                           MakeDoc(xqmft::DatasetKind::kTreebank,
                                   treebank_bytes, cfg.seed, "treebank", out));
    b.docs.push_back(treebank);
    XQMFT_ASSIGN_OR_RETURN(Doc oracle_treebank,
                           MakeDoc(xqmft::DatasetKind::kTreebank, 128 * kKiB,
                                   cfg.seed, "treebank_128KiB", out));
    oracle_docs.push_back(oracle_treebank);
  }
  b.devnull.reset(std::fopen("/dev/null", "wb"));
  if (b.devnull == nullptr) return Status::Internal("cannot open /dev/null");

  std::vector<double> setups;
  auto setup_sample = [&]() -> Status {
    std::vector<PlanPtr> plans;
    XQMFT_ASSIGN_OR_RETURN(double s, CompilePlans(texts, &plans));
    setups.push_back(s);
    return Status::OK();
  };
  XQMFT_ASSIGN_OR_RETURN(double first_setup, CompilePlans(texts, &b.plans));
  setups.push_back(first_setup);

  // Warm-up, untimed: fills the page cache and the allocator, and records
  // the output every later run is checked against.
  Tracer off(false);
  Pass warm;
  XQMFT_RETURN_NOT_OK(RunPass(b, Mode::kHash, &off, &warm, out));
  b.want_hash = warm.hash;
  for (const xqmft::StreamStats& s : warm.stats) {
    b.want_events.push_back(s.output_events);
  }

  Tracer tracer(cfg.trace);
  if (!cfg.trace) {
    std::vector<Pass> passes;
    XQMFT_RETURN_NOT_OK(RunPasses(b, Mode::kTimed, cfg.seconds, cfg.smoke,
                                  &off, setup_sample, &passes, out));
    out->Set("peak_rss_MB", PeakRssMb(), "MB");
    out->Set("setup_s", Median(setups), "s");
    ReportEndToEnd(b, passes, out);
  } else {
    const int reps = cfg.smoke ? 1 : 5;
    XQMFT_RETURN_NOT_OK(ProbeLayers(texts, b.plans, b.docs,
                                    cfg.smoke ? 1 : 20, &tracer, out));
    if (b.spec.multi) XQMFT_RETURN_NOT_OK(ProbeN1Overhead(b, reps, out));
    std::vector<Pass> plain, traced;
    XQMFT_RETURN_NOT_OK(RunPasses(b, Mode::kTimed, cfg.seconds / 3, cfg.smoke,
                                  &off, nullptr, &plain, out));
    XQMFT_RETURN_NOT_OK(RunPasses(b, Mode::kTraced, cfg.seconds / 3,
                                  cfg.smoke, &tracer, nullptr, &traced, out));
    ReportLayers(b, plain, traced, out);
  }

  XQMFT_RETURN_NOT_OK(CheckTableEngine(b, out));
  for (const Doc& doc : oracle_docs) {
    XQMFT_RETURN_NOT_OK(CheckOracle(b, doc, out));
  }
  if (tracer.on() && !cfg.trace_out.empty()) {
    XQMFT_RETURN_NOT_OK(tracer.WriteChrome(cfg.trace_out));
  }
  return Status::OK();
}

}  // namespace xqbench
