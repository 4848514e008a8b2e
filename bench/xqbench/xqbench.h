// Shared pieces of the xqbench program: run configuration, the metric record
// a workload fills, seeded input documents with their identity hashes, and
// the timing wrappers and span recorder of the traced run.
#ifndef XQBENCH_XQBENCH_H_
#define XQBENCH_XQBENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "data/generators.h"
#include "util/status.h"
#include "xml/event_source.h"
#include "xml/events.h"

namespace xqbench {

using Clock = std::chrono::steady_clock;

/// The seed whose input hashes are frozen in frozen.h.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One workload run, as the command line gives it.
struct RunConfig {
  std::string workload;      ///< select | copy | multi | serve
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;        ///< length of the measured phase
  bool trace = false;        ///< per-layer run instead of end-to-end
  bool smoke = false;        ///< small documents, minimal repetitions
  std::string trace_out;     ///< Chrome trace-event file (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. Metrics keep insertion order; setting a
/// name twice overwrites the value.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed output checks and run errors, one line each; empty when every
  /// output was correct.
  std::vector<std::string> problems;
  /// Identity of every generated input: file name, bytes, FNV-1a 64.
  struct Input {
    std::string name;
    std::size_t bytes = 0;
    std::uint64_t fnv1a = 0;
  };
  std::vector<Input> inputs;
  /// Free-form JSON members appended to the run record (serve rungs).
  std::string extra_json;

  void Set(const std::string& name, double value, const char* unit);
  const Metric* Find(const std::string& name) const;
  void Problem(std::string what);
};

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);
double MsBetween(Clock::time_point a, Clock::time_point b);
double Seconds(Clock::time_point a, Clock::time_point b);
/// The process's resident-set high-water mark in MiB (getrusage).
double PeakRssMb();

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);
std::string Hex(std::uint64_t v);

// --- inputs ---------------------------------------------------------------

/// A generated document on disk.
struct Doc {
  std::string label;   ///< short name used in metric names (xmark, ...)
  std::string path;
  std::size_t bytes = 0;
};

/// Generates (or reuses) the dataset, hashes it, records its identity in
/// `out`, and fails hard when the default seed's bytes differ from the
/// frozen identity — a change to the generators must not silently change
/// the workloads.
xqmft::Result<Doc> MakeDoc(xqmft::DatasetKind kind, std::size_t bytes,
                           std::uint64_t seed, std::string label,
                           RunResult* out);

// --- sinks and timing wrappers --------------------------------------------

/// Serializes like StringSink but keeps only the FNV-1a hash.
class HashSink : public xqmft::OutputSink {
 public:
  void StartElement(std::string_view name) override;
  void EndElement(std::string_view name) override;
  void Text(std::string_view content) override;
  std::uint64_t hash() const { return hash_; }

 private:
  void Add(std::string_view s) { hash_ = Fnv1a(s, hash_); }
  std::uint64_t hash_ = kFnvOffset;
};

/// Time and calls summed over the per-event calls into one layer. A clock
/// read costs about 40 ns on the calibration host, as much as a call, so
/// one call in kSampleEvery is timed and the sum is scaled: over millions
/// of calls the estimate is close, and tracing slows a pass far less.
struct LayerClock {
  static constexpr std::uint64_t kSampleEvery = 16;
  std::int64_t sampled_ns = 0;
  std::uint64_t calls = 0;
  double ms() const {
    return static_cast<double>(sampled_ns) * kSampleEvery / 1e6;
  }
};

/// Times every Next() of the wrapped source (the xml layer).
class TimedSource : public xqmft::EventSource {
 public:
  TimedSource(xqmft::EventSource* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  xqmft::Status Next(xqmft::XmlEvent* event) override;
  std::size_t bytes_consumed() const override {
    return inner_->bytes_consumed();
  }
  void BindSymbols(xqmft::SymbolTable* symbols) override {
    inner_->BindSymbols(symbols);
  }

 private:
  xqmft::EventSource* inner_;
  LayerClock* clock_;
};

/// Times every call into the wrapped sink (the sink layer) and counts the
/// bytes it serializes.
class TimedSink : public xqmft::OutputSink {
 public:
  TimedSink(xqmft::OutputSink* inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}
  void StartElement(std::string_view name) override;
  void EndElement(std::string_view name) override;
  void Text(std::string_view content) override;
  std::size_t bytes() const { return bytes_; }

 private:
  xqmft::OutputSink* inner_;
  LayerClock* clock_;
  std::size_t bytes_ = 0;
};

// --- spans ----------------------------------------------------------------

/// Coarse spans of the traced run, kept in memory and written as Chrome
/// trace-event JSON when the run ends. Off: every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  /// Opens a span; returns its id (0 when tracing is off). `request` groups
  /// the spans of one request.
  std::uint64_t Begin(std::string name, std::uint64_t parent = 0,
                      std::uint64_t request = 0);
  /// Closes a span, attaching numeric arguments (per-layer sums).
  void End(std::uint64_t id,
           std::vector<std::pair<std::string, double>> args = {});
  /// Records an already-measured span.
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent, std::uint64_t request);

  xqmft::Status WriteChrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::vector<std::pair<std::string, double>> args;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;  // span id = index + 1
};

// --- compile set-up and per-layer probes shared by every workload ----------

/// Compiles every query from cold (CompiledPlan::Compile, then the lowering
/// verdict) into `*plans` and returns the seconds the set took. Workloads
/// take one such sample before the warm-up and one after each measured
/// pass or segment, and report the median as `setup_s`: the samples then
/// spread over the run instead of sharing one moment of the host's state.
xqmft::Result<double> CompilePlans(
    const std::vector<std::string>& texts,
    std::vector<std::shared_ptr<const xqmft::CompiledPlan>>* plans);

/// The compile-pipeline and xml-layer probes: times ParseQuery,
/// TranslateQuery, OptimizeMft and lower::LowerMft separately over
/// `texts`, a SaxParser::Next loop and a PretokSource::Next loop over
/// `docs`, and the plans' rule counts and lowering verdicts.
xqmft::Status ProbeLayers(
    const std::vector<std::string>& texts,
    const std::vector<std::shared_ptr<const xqmft::CompiledPlan>>& plans,
    const std::vector<Doc>& docs, int reps, Tracer* tracer, RunResult* out);

/// Checks each plan's streamed output on `doc` byte for byte against the
/// reference evaluator (EvaluateQuery + EmitForest). `streamed[i]` is the
/// output of plans[i] on that document from the path under test.
void CheckAgainstReference(
    const std::vector<std::string>& ids,
    const std::vector<std::shared_ptr<const xqmft::CompiledPlan>>& plans,
    const std::vector<std::string>& streamed, const Doc& doc,
    RunResult* out);

// --- workloads ------------------------------------------------------------

xqmft::Status RunBatchWorkload(const RunConfig& cfg, RunResult* out);
xqmft::Status RunServeWorkload(const RunConfig& cfg, RunResult* out);

}  // namespace xqbench

#endif  // XQBENCH_XQBENCH_H_
