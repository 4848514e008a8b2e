// xqbench: one command for the end-to-end and per-layer numbers of the
// xqmft stack on four workloads (select, copy, multi, serve). See README.md.
//
//   xqbench --workload W --seed N --seconds S --trace 0|1
//       one workload in this process; human-readable lines, then one JSON
//       result line (the end-to-end metrics, or with --trace 1 the
//       per-layer ones).
//   xqbench [--seed N] [--seconds S] [--sets K] [--trace FILE] [--smoke]
//       every workload, each in its own child process, K times; prints a
//       table and writes every run's record to --json FILE.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

#include "service/json.h"
#include "util/strings.h"
#include "xqbench.h"

namespace xqbench {
namespace {

using xqmft::JsonValue;
using xqmft::Result;
using xqmft::Status;
using xqmft::StrFormat;

// The metric catalogue: BENCHMARK.json at the repository root names every
// workload and metric with its unit and bound, and the run's record must
// match it.
struct Entry {
  std::string name, unit;
  double bound = 0;
};

struct Catalogue {
  std::vector<std::string> workloads;
  double run_seconds = 0;
  std::vector<Entry> end_to_end, per_layer;
};

// End-to-end metrics every run reports but BENCHMARK.json does not gate.
// On the calibration host, serve's p99 and its capacity ladder moved more
// between runs (IQR up to 51% and 38% of the median) than any bound allows;
// fail_ratio is 0 when all is well and rides on the result line as `failed`
// over `attempted`.
const std::vector<Entry>& Ungated() {
  static const std::vector<Entry> kUngated = {{"lat_p99_ms", "ms", 0},
                                              {"max_rate_rps", "req/s", 0},
                                              {"fail_ratio", "ratio", 0}};
  return kUngated;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::InvalidArgument("cannot read " + path);
  std::string text;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

Result<Catalogue> LoadCatalogue(const std::string& path) {
  XQMFT_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  XQMFT_ASSIGN_OR_RETURN(JsonValue json, xqmft::ParseJson(text));
  Catalogue cat;
  const JsonValue* seconds = json.Find("run_seconds");
  const JsonValue* workloads = json.Find("workloads");
  if (seconds == nullptr || !seconds->is_number() || workloads == nullptr ||
      !workloads->is_array()) {
    return Status::InvalidArgument(path + ": no run_seconds or workloads");
  }
  cat.run_seconds = seconds->number;
  for (const JsonValue& w : workloads->items) {
    const JsonValue* name = w.Find("name");
    if (name == nullptr || !name->is_string()) {
      return Status::InvalidArgument(path + ": a workload without a name");
    }
    cat.workloads.push_back(name->string);
  }
  for (auto [key, list] : {std::make_pair("end_to_end", &cat.end_to_end),
                           std::make_pair("per_layer", &cat.per_layer)}) {
    const JsonValue* metrics = json.Find(key);
    if (metrics == nullptr || !metrics->is_array()) {
      return Status::InvalidArgument(path + ": no " + key + " list");
    }
    for (const JsonValue& m : metrics->items) {
      const JsonValue* name = m.Find("name");
      const JsonValue* unit = m.Find("unit");
      const JsonValue* bound = m.Find("bound");
      if (name == nullptr || !name->is_string() || unit == nullptr ||
          !unit->is_string()) {
        return Status::InvalidArgument(path + ": a metric without a name "
                                              "or unit");
      }
      list->push_back({name->string, unit->string,
                       bound != nullptr && bound->is_number() ? bound->number
                                                              : 0.0});
    }
  }
  return cat;
}

struct Args {
  std::string workload;  // empty: the whole suite
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;    // 0: BENCHMARK.json's run_seconds
  bool trace = false;
  std::string trace_file;  // suite: span files; run: --trace-out
  int sets = 1;
  bool smoke = false;
  std::string json;
};

void Usage() {
  std::fprintf(stderr,
               "usage: xqbench [--seed N] [--seconds S] [--sets K] "
               "[--trace FILE] [--smoke] [--json FILE]\n"
               "       xqbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--smoke] [--json FILE]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (a->seconds <= 0) return false;
    } else if (flag == "--sets") {
      a->sets = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (a->sets < 1) return false;
    } else if (flag == "--trace") {
      // A run takes 0 or 1; the suite takes the span file to write.
      a->trace = value != "0";
      if (value != "0" && value != "1") a->trace_file = value;
    } else if (flag == "--trace-out") {
      a->trace_file = value;
    } else if (flag == "--json") {
      a->json = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return true;
}

std::string Num(double v) { return StrFormat("%.17g", v); }

std::string Quoted(std::string_view s) {
  std::string out;
  xqmft::AppendJsonString(&out, s);
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",";
    out += Quoted(m.name) + ":{\"value\":" + Num(m.value) +
           ",\"unit\":" + Quoted(m.unit) + "}";
  }
  return out + "}";
}

// --- one workload ---------------------------------------------------------

// The run's generated inputs: a directory of this process under the build
// tree, removed when the run ends, so runs over many seeds leave nothing
// behind (generation takes well under a second).
class DataDir {
 public:
  DataDir()
      : path_(std::string(XQBENCH_BUILD_DIR) + "/data/" +
              std::to_string(::getpid())) {
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
    ::setenv("XQMFT_DATA_DIR", path_.c_str(), 1);
  }
  ~DataDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  DataDir(const DataDir&) = delete;
  DataDir& operator=(const DataDir&) = delete;

 private:
  std::string path_;
};

int RunOne(const Args& a, const Catalogue& cat) {
  RunConfig cfg;
  cfg.workload = a.workload;
  cfg.seed = a.seed;
  cfg.seconds = a.seconds;
  cfg.trace = a.trace;
  cfg.smoke = a.smoke;
  cfg.trace_out = a.trace_file;
  if (cfg.trace && cfg.trace_out.empty()) {
    cfg.trace_out =
        std::string(XQBENCH_BUILD_DIR) + "/trace_" + cfg.workload + ".json";
  }
  bool known = false;
  for (const std::string& w : cat.workloads) known |= w == cfg.workload;
  if (!known) {
    std::fprintf(stderr, "xqbench: unknown workload %s\n",
                 cfg.workload.c_str());
    return 2;
  }

  DataDir data;
  std::printf("xqbench %s seed %llu, %.0f s%s%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? ", traced" : "", cfg.smoke ? ", smoke" : "");
  std::fflush(stdout);
  RunResult out;
  Status st = cfg.workload == "serve" ? RunServeWorkload(cfg, &out)
                                      : RunBatchWorkload(cfg, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "xqbench: %s failed: %s\n", cfg.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  out.Set("fail_ratio",
          out.attempted == 0 ? 1.0
                             : static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted),
          "ratio");

  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.Problem(m.name + " is not a finite number");
      m.value = 0;
    }
  }
  // Every metric of the mode's list, in catalogue order. A layer this
  // workload does not run reads 0; the record names those.
  const std::vector<Entry>& list = cfg.trace ? cat.per_layer : cat.end_to_end;
  std::vector<Metric> reported;
  std::vector<std::string> defaulted;
  for (const Entry& e : list) {
    const Metric* m = out.Find(e.name);
    if (m == nullptr) {
      defaulted.push_back(e.name);
      reported.push_back({e.name, 0.0, e.unit});
      continue;
    }
    if (m->unit != e.unit) {
      std::fprintf(stderr, "xqbench: %s is in %s, BENCHMARK.json says %s\n",
                   e.name.c_str(), m->unit.c_str(), e.unit.c_str());
      return 2;
    }
    reported.push_back(*m);
  }

  for (const RunResult::Input& in : out.inputs) {
    std::printf("  input %-32s %10zu bytes  fnv1a %s\n", in.name.c_str(),
                in.bytes, Hex(in.fnv1a).c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted %llu, failed %llu, %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.problems.empty() ? "outputs correct" : "OUTPUTS WRONG");

  const bool correct = out.problems.empty();
  if (!a.json.empty()) {
    std::string rec = "{\"workload\":" + Quoted(cfg.workload) +
                      ",\"seed\":" + std::to_string(cfg.seed) +
                      ",\"seconds\":" + Num(cfg.seconds) +
                      ",\"trace\":" + (cfg.trace ? "true" : "false") +
                      ",\"smoke\":" + (cfg.smoke ? "true" : "false") +
                      ",\"correct\":" + (correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(out.attempted) +
                      ",\"failed\":" + std::to_string(out.failed) +
                      ",\"metrics\":" + MetricsJson(out.metrics) +
                      ",\"defaulted\":[";
    for (std::size_t i = 0; i < defaulted.size(); ++i) {
      rec += (i == 0 ? "" : ",") + Quoted(defaulted[i]);
    }
    rec += "],\"inputs\":[";
    for (std::size_t i = 0; i < out.inputs.size(); ++i) {
      const RunResult::Input& in = out.inputs[i];
      rec += StrFormat("%s{\"name\":%s,\"bytes\":%zu,\"fnv1a\":\"%s\"}",
                       i == 0 ? "" : ",", Quoted(in.name).c_str(), in.bytes,
                       Hex(in.fnv1a).c_str());
    }
    rec += "],\"problems\":[";
    for (std::size_t i = 0; i < out.problems.size(); ++i) {
      rec += (i == 0 ? "" : ",") + Quoted(out.problems[i]);
    }
    rec += "]";
    if (!out.extra_json.empty()) rec += "," + out.extra_json;
    rec += "}\n";
    std::FILE* f = std::fopen(a.json.c_str(), "w");
    const bool written = f != nullptr && std::fputs(rec.c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "xqbench: cannot write %s\n", a.json.c_str());
      return 2;
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(reported).c_str());
  return correct ? 0 : 1;
}

// --- the suite ------------------------------------------------------------

// Runs this program as a child with `args` (its output goes straight to
// ours) and returns its exit code (-1 when it did not exit normally).
int RunChild(const std::vector<std::string>& args) {
  std::fflush(stdout);
  std::vector<char*> argv;
  for (const std::string& s : args) {
    argv.push_back(const_cast<char*>(s.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The span file of one workload: FILE.json -> FILE.<workload>.json.
std::string TraceFileFor(const std::string& file, const std::string& w) {
  std::size_t dot = file.rfind('.');
  if (dot == std::string::npos || file.find('/', dot) != std::string::npos) {
    return file + "." + w;
  }
  return file.substr(0, dot) + "." + w + file.substr(dot);
}

struct Record {
  std::string text;
  JsonValue json;
  double Metric(const std::string& name) const {
    const JsonValue* metrics = json.Find("metrics");
    const JsonValue* m = metrics != nullptr ? metrics->Find(name) : nullptr;
    const JsonValue* v = m != nullptr ? m->Find("value") : nullptr;
    return v != nullptr && v->is_number() ? v->number : NAN;
  }
};

void PrintTable(const std::vector<Entry>& list,
                const std::vector<std::string>& workloads,
                const std::map<std::string, Record>& runs) {
  std::printf("  %-30s %-6s", "metric", "unit");
  for (const std::string& w : workloads) std::printf(" %14s", w.c_str());
  std::printf("\n");
  for (const Entry& e : list) {
    std::printf("  %-30s %-6s", e.name.c_str(), e.unit.c_str());
    for (const std::string& w : workloads) {
      // "-": the workload does not run this layer (or did not run at all).
      auto it = runs.find(w);
      const double v = it == runs.end() ? NAN : it->second.Metric(e.name);
      if (std::isnan(v)) {
        std::printf(" %14s", "-");
      } else {
        std::printf(" %14.4f", v);
      }
    }
    std::printf("\n");
  }
}

int RunSuite(const Args& a, const Catalogue& cat) {
  const std::string record_path =
      std::string(XQBENCH_BUILD_DIR) + "/xqbench_record.json";
  const std::string out_path =
      a.json.empty() ? std::string(XQBENCH_BUILD_DIR) + "/xqbench.json"
                     : a.json;
  const bool traced = a.trace || a.smoke;
  std::string trace_file = a.trace_file;
  if (traced && trace_file.empty()) {
    trace_file = std::string(XQBENCH_BUILD_DIR) + "/trace.json";
  }
  int exit_code = 0;
  // Per set: workload -> record, untraced and traced.
  std::vector<std::map<std::string, Record>> plain(a.sets), layered(a.sets);
  std::string all_records;
  std::set<std::string> measured;  // metrics some workload actually set
  for (int set = 0; set < a.sets; ++set) {
    for (const std::string& w : cat.workloads) {
      for (bool trace : {false, true}) {
        if (trace && !traced) continue;
        std::vector<std::string> args = {
            "xqbench",   "--workload", w,     "--seed",
            std::to_string(a.seed),    "--seconds",   Num(a.seconds),
            "--trace",   trace ? "1" : "0",   "--json",      record_path};
        if (trace) {
          args.push_back("--trace-out");
          args.push_back(TraceFileFor(trace_file, w));
        }
        if (a.smoke) args.push_back("--smoke");
        std::remove(record_path.c_str());
        const int code = RunChild(args);
        Result<std::string> text = ReadFile(record_path);
        Result<JsonValue> json =
            text.ok() ? xqmft::ParseJson(text.value())
                      : Result<JsonValue>(text.status());
        if (code != 0) {
          std::fprintf(stderr, "xqbench: %s%s exited with %d\n", w.c_str(),
                       trace ? " (traced)" : "", code);
          exit_code = 1;
        }
        if (!json.ok()) continue;
        Record rec{text.value(), std::move(json).value()};
        const JsonValue* metrics = rec.json.Find("metrics");
        const JsonValue* defaulted = rec.json.Find("defaulted");
        std::set<std::string> zeroed;
        for (const JsonValue& d : defaulted->items) zeroed.insert(d.string);
        for (const auto& field : metrics->fields) {
          if (zeroed.count(field.first) == 0) measured.insert(field.first);
        }
        all_records += (all_records.empty() ? "" : ",\n") + text.value();
        (trace ? layered : plain)[set][w] = std::move(rec);
      }
    }
    std::printf("\n== end-to-end, set %d of %d, seed %llu ==\n", set + 1,
                a.sets, static_cast<unsigned long long>(a.seed));
    std::vector<Entry> e2e = cat.end_to_end;
    e2e.insert(e2e.end(), Ungated().begin(), Ungated().end());
    PrintTable(e2e, cat.workloads, plain[set]);
    if (traced) {
      std::printf("\n== per layer, set %d of %d ==\n", set + 1, a.sets);
      PrintTable(cat.per_layer, cat.workloads, layered[set]);
    }
  }

  if (a.sets >= 2) {
    // The spread between the first two sets, as a share of the first.
    std::printf("\n== spread between sets 1 and 2 (share of set 1) ==\n");
    std::printf("  %-18s %-8s %12s %12s %8s %7s\n", "metric", "workload",
                "set 1", "set 2", "spread", "bound");
    std::vector<Entry> e2e = cat.end_to_end;
    e2e.insert(e2e.end(), Ungated().begin(), Ungated().end());
    for (const Entry& e : e2e) {
      for (const std::string& w : cat.workloads) {
        auto r1 = plain[0].find(w);
        auto r2 = plain[1].find(w);
        if (r1 == plain[0].end() || r2 == plain[1].end()) continue;
        const double v1 = r1->second.Metric(e.name);
        const double v2 = r2->second.Metric(e.name);
        const double spread = v1 == 0 ? (v2 == 0 ? 0 : INFINITY)
                                      : std::fabs(v2 - v1) / std::fabs(v1);
        if (e.bound == 0) {  // not gated
          std::printf("  %-18s %-8s %12.4f %12.4f %8.4f %7s\n",
                      e.name.c_str(), w.c_str(), v1, v2, spread, "-");
          continue;
        }
        std::printf("  %-18s %-8s %12.4f %12.4f %8.4f %7.3f %s\n",
                    e.name.c_str(), w.c_str(), v1, v2, spread, e.bound,
                    spread <= e.bound ? "ok" : "OVER");
      }
    }
  }

  if (a.smoke) {
    // Every metric BENCHMARK.json names must be measured by some workload.
    for (const auto* list : {&cat.end_to_end, &cat.per_layer}) {
      for (const Entry& e : *list) {
        if (measured.count(e.name) == 0) {
          std::fprintf(stderr, "xqbench: no workload measured %s\n",
                       e.name.c_str());
          exit_code = 1;
        }
      }
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "xqbench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\"seed\":%llu,\"seconds\":%s,\"sets\":%d,\"runs\":[\n%s\n]}\n",
               static_cast<unsigned long long>(a.seed),
               Num(a.seconds).c_str(), a.sets, all_records.c_str());
  std::fclose(f);
  std::printf("\nrecords: %s%s%s\n", out_path.c_str(),
              traced ? "\nspans:   " : "",
              traced ? TraceFileFor(trace_file, "<workload>").c_str() : "");
  if (exit_code != 0) std::printf("xqbench: FAILED\n");
  return exit_code;
}

}  // namespace
}  // namespace xqbench

int main(int argc, char** argv) {
  using namespace xqbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  xqmft::Result<Catalogue> cat = LoadCatalogue(XQBENCH_CATALOGUE);
  if (!cat.ok()) {
    std::fprintf(stderr, "xqbench: %s\n", cat.status().ToString().c_str());
    return 2;
  }
  if (args.seconds == 0) args.seconds = cat.value().run_seconds;
  return args.workload.empty() ? RunSuite(args, cat.value())
                               : RunOne(args, cat.value());
}
