// xqmft — command-line interface to the full pipeline.
//
//   xqmft run <query.xq|query-string> [input ...]   stream document(s)
//   xqmft compile <query.xq|query-string>           print the optimized MFT
//   xqmft translate <query.xq|query-string>         print the raw translation
//   xqmft mft <rules.mft> [input ...]               run a hand-written MFT
//   xqmft validate <schema.sch> <input.xml>         one-pass validation
//   xqmft stats <input.xml>                         document statistics
//
// Arguments that name existing files are read from disk; anything else is
// treated as inline text. `run`/`mft` default to stdin for the document;
// with several inputs (XML or pretok caches, sniffed by magic) each is
// streamed through its own engine and outputs concatenate in input order.
// Flags: --no-opt (skip Section 4.1 passes), --schema <file> (validate
// while transforming), --dag (report output-DAG compression instead of
// writing markup), --stats (print engine statistics to stderr),
// --pretok-cache <file> (tokenize the input once into a binary event cache;
// later runs stream the cache with zero scanning), --threads <N> (parallel
// sharded streaming: a document set fans out across N workers; a single
// pretok input splits at top-level forest boundaries; 0 = one worker per
// hardware thread), --engine table|ops (pin the streaming engine; the
// default picks the lowered opcode engine whenever the plan qualifies —
// see lower/lower.h. --engine=ops on an unlowerable plan notes the reason
// on stderr and runs the table engine).
//
// Multi-query runs: `run` with repeated --query/-q flags (or --query-file,
// one query per line) streams EVERY query over one input document in a
// single pass — one tokenization, one engine per query, a union projection
// automaton skipping subtrees no query can match. Outputs print in query
// order. --no-union-projection disables the skip automaton (measurement).
// Multi-query is serial: combining it with --threads is rejected (sharded
// multi-query execution is future work), as are --schema and --dag.
//
// `serve` reads newline-delimited JSON requests from stdin and writes framed
// responses with per-request statistics (see service/serve.h for the
// protocol, including the "queries" batch form that shares one parse across
// a request set). Queries compile once into a process-wide cache and every
// later request for the same query streams against the cached immutable
// plan; --cache-capacity / --cache-bytes bound the cache, --threads sets
// the default per-request worker count. --max-line-bytes / --max-xml-bytes
// cap request sizes, and requests may carry "deadline_ms" wall-clock
// budgets (see net/server.h for the full hardening model).
//
// `serve --port <N>` (and/or --unix <path>) serves the same protocol over
// sockets instead of stdin: a poll event loop fans connections onto
// --workers query threads behind a bounded admission queue
// (--queue-limit; overload requests are shed with "overloaded" +
// retry_after_ms). It prints one "listening ..." line to stdout when
// ready (--port 0 picks an ephemeral port and reports it there), and
// SIGTERM/SIGINT trigger a graceful drain bounded by --drain-ms.
// --enable-fault-injection exposes the request-level "fault" field for
// stress harnesses.
//
// `client` connects to a serving `xqmft serve --port/--unix` instance,
// forwards stdin lines as requests, and prints the responses — enough for
// shell scripting and smoke tests without a netcat dependency.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/pipeline.h"
#include "data/generators.h"
#include "lower/lower.h"
#include "net/server.h"
#include "parallel/merge_sink.h"
#include "service/query_service.h"
#include "service/serve.h"
#include "mft/mft.h"
#include "schema/schema.h"
#include "stream/dag_sink.h"
#include "stream/engine.h"
#include "util/strings.h"
#include "xml/events.h"
#include "xml/pretok.h"
#include "xml/sax_parser.h"

using namespace xqmft;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: xqmft <command> [flags] <args>\n"
      "  run <query> [input ...]      compile and stream (files or stdin)\n"
      "  run -q <q1> -q <q2> [input]  all queries over one input, one pass\n"
      "  compile <query>              print the optimized transducer\n"
      "  translate <query>            print the unoptimized translation\n"
      "  mft <rules> [input ...]      run a hand-written MFT\n"
      "  validate <schema> <input>    one-pass schema validation\n"
      "  stats <input.xml>            document size/depth statistics\n"
      "  serve                        JSON request loop on stdin/stdout\n"
      "  serve --port <N>|--unix <p>  same protocol over sockets\n"
      "  client --port <N>|--unix <p> send stdin requests to a server\n"
      "flags: --no-opt --schema <file> --dag --stats "
      "--pretok-cache <file> --threads <N> --engine table|ops\n"
      "       --query/-q <q> --query-file <file> --no-union-projection "
      "(multi-query run)\n"
      "       --cache-capacity <N> --cache-bytes <N> --max-line-bytes <N> "
      "--max-xml-bytes <N>  (serve)\n"
      "       --workers <N> --queue-limit <N> --drain-ms <N> "
      "--retry-after-ms <N> --enable-fault-injection  (serve --port)\n"
      "       --batch-window-ms <N> --batch-max <N>  "
      "(serve --port: coalesce same-document requests; 0 = off)\n");
  return 2;
}

bool IsFile(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

// Reads the argument as a file if one exists, else returns it verbatim.
Result<std::string> FileOrInline(const std::string& arg) {
  if (!IsFile(arg)) return arg;
  std::FILE* f = std::fopen(arg.c_str(), "rb");
  if (f == nullptr) return Status::InvalidArgument("cannot open " + arg);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// stdin as a ByteSource.
class StdinSource : public ByteSource {
 public:
  std::size_t Read(char* buf, std::size_t n) override {
    return std::fread(buf, 1, n, stdin);
  }
};

struct Flags {
  bool no_opt = false;
  bool dag = false;
  bool stats = false;
  bool no_union_projection = false;
  std::vector<std::string> queries;      ///< repeated --query/-q
  std::vector<std::string> query_files;  ///< --query-file, one per line
  bool threads_set = false;
  long threads = 0;  ///< 0 = one worker per hardware thread
  long cache_capacity = -1;  ///< serve: max resident plans (-1 = default)
  long cache_bytes = -1;     ///< serve: plan byte budget (-1 = unbounded)
  EngineChoice engine = EngineChoice::kOps;  ///< --engine table|ops
  bool engine_ops_given = false;  ///< --engine=ops: note a table fallback
  std::string schema_path;
  std::string pretok_cache;
  // Socket serving / client (serve --port, client).
  bool port_set = false;
  long port = 0;          ///< --port (0 = ephemeral)
  std::string unix_path;  ///< --unix
  long workers = -1;      ///< serve: query worker threads (-1 = default)
  long queue_limit = -1;  ///< serve: admission queue bound (-1 = default)
  long max_line_bytes = -1;   ///< serve: request line cap (-1 = default)
  long max_xml_bytes = -1;    ///< serve: inline xml cap (-1 = default)
  long drain_ms = -1;         ///< serve: shutdown drain budget
  long retry_after_ms = -1;   ///< serve: overload rejection hint floor
  long batch_window_ms = -1;  ///< serve: coalescing gather window (0 = off)
  long batch_max = -1;        ///< serve: max requests per coalesced run
  bool enable_fault_injection = false;  ///< serve: accept "fault" requests
};

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

// Parses a numeric flag value with a lower bound; prints the usage error.
bool ParseCountFlag(const char* value, const char* flag, long min_value,
                    long* out) {
  char* end = nullptr;
  *out = std::strtol(value, &end, 10);
  if (end == nullptr || *end != '\0' || *out < min_value) {
    std::fprintf(stderr, "error: %s expects a number >= %ld\n", flag,
                 min_value);
    return false;
  }
  return true;
}

// SIGTERM/SIGINT ask the socket server for a graceful drain;
// NetServer::RequestShutdown is async-signal-safe by contract.
NetServer* g_net_server = nullptr;
extern "C" void HandleShutdownSignal(int) {
  if (g_net_server != nullptr) g_net_server->RequestShutdown();
}

// Copies a numeric serve flag into its option when it was given: the flags
// default to -1, and every given value parsed as >= 0.
template <typename T>
void SetIfGiven(long flag, T* option) {
  if (flag >= 0) *option = static_cast<T>(flag);
}

// The request-execution flags both serve front ends share (NetServerOptions
// derives from ServeOptions).
template <typename Options>
Options ApplyServeFlags(const Flags& flags, Options options) {
  SetIfGiven(flags.cache_capacity, &options.cache.capacity);
  SetIfGiven(flags.cache_bytes, &options.cache.max_bytes);
  options.pipeline.optimize = !flags.no_opt;
  options.pipeline.stream.engine = flags.engine;
  if (flags.threads_set) SetIfGiven(flags.threads, &options.default_threads);
  SetIfGiven(flags.max_line_bytes, &options.limits.max_line_bytes);
  SetIfGiven(flags.max_xml_bytes, &options.limits.max_inline_xml_bytes);
  options.allow_fault_injection = flags.enable_fault_injection;
  return options;
}

// `serve --port/--unix`: the socket front end (net/server.h).
int ServeNet(const Flags& flags, NetServerOptions options) {
  if (flags.port_set) options.tcp_port = static_cast<int>(flags.port);
  options.unix_path = flags.unix_path;
  SetIfGiven(flags.workers, &options.workers);
  SetIfGiven(flags.queue_limit, &options.queue_limit);
  SetIfGiven(flags.drain_ms, &options.drain_ms);
  SetIfGiven(flags.retry_after_ms, &options.retry_after_ms);
  SetIfGiven(flags.batch_window_ms, &options.batch_window_ms);
  SetIfGiven(flags.batch_max, &options.batch_max);

  NetServer server(std::move(options));
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  g_net_server = &server;
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // One parseable readiness line per listener; scripts read the ephemeral
  // port from here.
  if (server.port() >= 0) {
    std::printf("listening port=%d\n", server.port());
  }
  if (!server.unix_path().empty()) {
    std::printf("listening unix=%s\n", server.unix_path().c_str());
  }
  std::fflush(stdout);
  st = server.Run();
  g_net_server = nullptr;
  if (!st.ok()) return Fail(st);
  return 0;
}

// `client`: forwards stdin request lines to a server and prints the
// responses. Sends everything, half-closes, then drains — enough for shell
// scripting without a netcat dependency.
int RunClient(const Flags& flags) {
  int fd = -1;
  if (!flags.unix_path.empty()) {
    sockaddr_un addr{};
    if (flags.unix_path.size() >= sizeof(addr.sun_path)) {
      return Fail(Status::InvalidArgument("--unix path too long"));
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Fail(Status::Internal("socket failed"));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, flags.unix_path.c_str(),
                flags.unix_path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return Fail(Status::Internal("cannot connect to " + flags.unix_path));
    }
  } else if (flags.port_set) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Fail(Status::Internal("socket failed"));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(flags.port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return Fail(Status::Internal(
          StrFormat("cannot connect to 127.0.0.1:%ld", flags.port)));
    }
  } else {
    std::fprintf(stderr, "error: client needs --port or --unix\n");
    return 2;
  }

  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, stdin)) > 0) {
    std::size_t off = 0;
    while (off < n) {
      ssize_t w = ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
      if (w <= 0) {
        ::close(fd);
        return Fail(Status::Internal("cannot send request"));
      }
      off += static_cast<std::size_t>(w);
    }
  }
  ::shutdown(fd, SHUT_WR);
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    std::fwrite(buf, 1, static_cast<std::size_t>(r), stdout);
  }
  std::fflush(stdout);
  ::close(fd);
  return 0;
}

// --engine value: "table" pins the tree-building machine, "ops" requests
// the lowered opcode engine (falls back with a note when the plan does not
// lower). Anything else is a usage error.
bool ParseEngine(const std::string& value, Flags* flags) {
  if (value != "table" && value != "ops") return false;
  flags->engine_ops_given = value == "ops";
  flags->engine = flags->engine_ops_given ? EngineChoice::kOps
                                          : EngineChoice::kTable;
  return true;
}

// When the user asked for the opcode engine explicitly but the plan cannot
// lower, say why before the run silently serves from the table engine.
void NoteEngineFallback(const Flags& flags, const Mft& mft) {
  if (!flags.engine_ops_given) return;
  std::string why;
  if (lower::GetLoweredPlan(mft, &why) == nullptr) {
    // The cached reason already reads "not lowerable: ..."; strip the
    // prefix so the note does not say it twice.
    const std::string prefix = "not lowerable: ";
    if (why.compare(0, prefix.size(), prefix) == 0) why.erase(0, prefix.size());
    std::fprintf(stderr,
                 "note: plan is not lowerable (%s); falling back to table "
                 "engine\n",
                 why.c_str());
  }
}

// A named input file: a pretok cache streams as events, anything else as
// text XML — the same sniff on the serial and parallel paths, so adding or
// dropping --threads never changes how an input is interpreted.
ParallelInput FileInput(const std::string& path) {
  return IsPretokFile(path) ? ParallelInput::PretokFile(path)
                            : ParallelInput::XmlFile(path);
}

int StreamWith(const CompiledPlan& plan,
               const std::vector<std::string>& inputs, const Flags& flags) {
  // Serial runs may carry per-run state (the schema validator) on top of
  // the plan's baked-in stream options; parallel runs may not.
  StreamOptions options = plan.options().stream;
  std::shared_ptr<const Schema> schema;
  std::unique_ptr<SchemaValidator> validator;
  if (!flags.schema_path.empty()) {
    Result<std::string> text = FileOrInline(flags.schema_path);
    if (!text.ok()) return Fail(text.status());
    Result<std::shared_ptr<const Schema>> s = Schema::Parse(text.value());
    if (!s.ok()) return Fail(s.status());
    schema = s.value();
    validator = std::make_unique<SchemaValidator>(schema);
    options.validator = validator.get();
  }

  const bool parallel = flags.threads_set || inputs.size() > 1;
  if (parallel && options.validator != nullptr) {
    return Fail(Status::InvalidArgument(
        "schema validation is per-run stateful and not supported by "
        "parallel runs; validate inputs individually"));
  }
  const std::string input_arg = inputs.empty() ? "" : inputs[0];

  // Parallel run state (document-set fan-out, or single-document sharding
  // of a pretok cache at top-level forest boundaries).
  std::vector<ParallelInput> par_inputs;
  std::string sharded_pretok;  // single-document sharding when non-empty
  ParallelOptions par;
  std::vector<StreamStats> par_stats;

  // Serial run state.
  OpenedInput serial;

  if (parallel) {
    if (inputs.empty()) {
      return Fail(Status::InvalidArgument(
          "--threads requires named input files; stdin cannot be sharded"));
    }
    // Threads are an explicit opt-in: several inputs without --threads run
    // serially, in order (only the staging/merge machinery is shared).
    par.threads =
        flags.threads_set ? static_cast<std::size_t>(flags.threads) : 1;
    if (!flags.pretok_cache.empty()) {
      if (inputs.size() > 1) {
        return Fail(Status::InvalidArgument(
            "--pretok-cache expects a single input; give each document its "
            "own cache"));
      }
      // Same freshness rule as the serial path: with no comparable input
      // (the XML deleted since the cache was built) an existing cache
      // serves alone instead of failing on the missing file.
      bool cache_fresh =
          IsFile(input_arg)
              ? PretokCacheValid(flags.pretok_cache, input_arg, options.sax)
              : IsFile(flags.pretok_cache);
      if (!cache_fresh) {
        Status st =
            PretokenizeXmlFile(input_arg, flags.pretok_cache, options.sax);
        if (!st.ok()) return Fail(st);
      }
      sharded_pretok = flags.pretok_cache;
    } else if (inputs.size() == 1 && IsPretokFile(inputs[0])) {
      sharded_pretok = inputs[0];
    } else {
      for (const std::string& path : inputs) {
        if (!IsFile(path)) {
          return Fail(Status::InvalidArgument("cannot open " + path));
        }
        par_inputs.push_back(FileInput(path));
      }
      if (par_inputs.size() == 1) {
        std::fprintf(stderr,
                     "note: one text-XML input cannot be split; give a "
                     "pretok cache (--pretok-cache) to shard a single "
                     "document\n");
      }
    }
  } else if (!flags.pretok_cache.empty()) {
    // Re-tokenize when the cache is missing or was not built from the
    // current bytes of an existing file input (the header records the
    // source's size + hash). With no comparable input (stdin, or the XML
    // already deleted) an existing cache serves alone — note the stdin case
    // on stderr, since any piped document goes unread.
    bool comparable = !input_arg.empty() && IsFile(input_arg);
    bool cache_fresh =
        comparable
            ? PretokCacheValid(flags.pretok_cache, input_arg, options.sax)
            : IsFile(flags.pretok_cache);
    if (!cache_fresh) {
      Status st;
      if (input_arg.empty()) {
        StdinSource stdin_source;
        std::string bytes;
        st = PretokenizeXml(&stdin_source, options.sax, &bytes);
        if (st.ok()) st = WritePretokFile(bytes, flags.pretok_cache);
      } else {
        st = PretokenizeXmlFile(input_arg, flags.pretok_cache, options.sax);
      }
      if (!st.ok()) return Fail(st);
    } else if (input_arg.empty()) {
      std::fprintf(stderr,
                   "note: streaming existing pretok cache %s; stdin not "
                   "read\n",
                   flags.pretok_cache.c_str());
    }
    Result<OpenedInput> in = OpenParallelInput(
        ParallelInput::PretokFile(flags.pretok_cache), options.sax);
    if (!in.ok()) return Fail(in.status());
    serial = std::move(in).value();
  } else if (input_arg.empty()) {
    serial.bytes = std::make_unique<StdinSource>();
  } else {
    Result<OpenedInput> in =
        OpenParallelInput(FileInput(input_arg), options.sax);
    if (!in.ok()) return Fail(in.status());
    serial = std::move(in).value();
  }

  auto stream = [&](OutputSink* sink, StreamStats* stats) {
    if (parallel) {
      Status st =
          !sharded_pretok.empty()
              ? plan.StreamShardedPretokFile(sharded_pretok, /*shards=*/0,
                                             sink, par, &par_stats)
              : plan.StreamMany(par_inputs, sink, par, &par_stats);
      if (stats != nullptr) *stats = AggregateStreamStats(par_stats);
      return st;
    }
    return serial.events != nullptr
               ? StreamTransformEvents(plan.mft(), serial.events.get(), sink,
                                       options, stats)
               : StreamTransform(plan.mft(), serial.bytes.get(), sink,
                                 options, stats);
  };

  StreamStats stats;
  Status st;
  if (flags.dag) {
    DagSink sink;
    st = stream(&sink, &stats);
    if (!st.ok()) return Fail(st);
    std::printf("output nodes:   %llu\n",
                static_cast<unsigned long long>(sink.total_nodes()));
    std::printf("grammar rules:  %zu\n", sink.unique_nodes());
    std::printf("compression:    %.2fx\n", sink.CompressionRatio());
  } else {
    FileSink sink(stdout);
    st = stream(&sink, &stats);
    sink.Flush();
    std::printf("\n");
    if (!st.ok()) return Fail(st);
  }
  if (flags.stats) {
    // The lowering verdict is a plan property, independent of which engine
    // this run used: "yes (full)", "yes (hybrid: ...)", or "no (<reason>)".
    std::string why;
    const bool lowered = lower::GetLoweredPlan(plan.mft(), &why) != nullptr;
    const std::string prefix = "not lowerable: ";
    if (!lowered && why.compare(0, prefix.size(), prefix) == 0) {
      why.erase(0, prefix.size());
    }
    std::fprintf(stderr,
                 "bytes in: %zu, output events: %zu, peak memory: %s, "
                 "rule applications: %llu, cells arena: %llu, "
                 "cells refcounted: %llu, exprs created: %llu, "
                 "bridge runs: %llu, engine: %s, lowered: %s (%s)\n",
                 stats.bytes_in, stats.output_events,
                 HumanBytes(stats.peak_bytes).c_str(),
                 static_cast<unsigned long long>(stats.rule_applications),
                 static_cast<unsigned long long>(stats.cells_arena),
                 static_cast<unsigned long long>(stats.cells_created),
                 static_cast<unsigned long long>(stats.exprs_created),
                 static_cast<unsigned long long>(stats.bridge_runs),
                 stats.used_ops_engine ? "ops" : "table",
                 lowered ? "yes" : "no", why.c_str());
  }
  return 0;
}

// `run` with --query/-q flags: every query over one input, one pass.
int RunMulti(const std::vector<std::string>& inputs, const Flags& flags) {
  if (flags.threads_set) {
    return Fail(Status::InvalidArgument(
        "--threads cannot combine with multi-query --query: the shared "
        "single-pass execution is serial (sharding a multi-query run is "
        "future work)"));
  }
  if (!flags.schema_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--schema cannot combine with multi-query --query; validate the "
        "input separately with `xqmft validate`"));
  }
  if (flags.dag) {
    return Fail(Status::InvalidArgument(
        "--dag cannot combine with multi-query --query"));
  }
  if (!flags.pretok_cache.empty()) {
    return Fail(Status::InvalidArgument(
        "--pretok-cache cannot combine with multi-query --query; build the "
        "cache with a single-query run and pass the .ptk file as the "
        "input"));
  }
  if (inputs.size() > 1) {
    return Fail(Status::InvalidArgument(
        "multi-query run streams one input document; got " +
        std::to_string(inputs.size())));
  }

  std::vector<std::string> texts;
  for (const std::string& q : flags.queries) {
    Result<std::string> text = FileOrInline(q);
    if (!text.ok()) return Fail(text.status());
    texts.push_back(std::move(text).value());
  }
  for (const std::string& path : flags.query_files) {
    if (!IsFile(path)) {
      return Fail(Status::InvalidArgument("cannot open " + path));
    }
    Result<std::string> body = FileOrInline(path);
    if (!body.ok()) return Fail(body.status());
    // One query per line; blank lines separate and are skipped.
    std::string_view rest = body.value();
    while (!rest.empty()) {
      std::size_t nl = rest.find('\n');
      std::string_view line = rest.substr(0, nl);
      rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
      if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
      texts.emplace_back(line);
    }
  }
  if (texts.empty()) {
    return Fail(Status::InvalidArgument(
        "no queries: every --query-file line was blank"));
  }

  PipelineOptions po;
  po.optimize = !flags.no_opt;
  po.stream.engine = flags.engine;
  std::vector<std::shared_ptr<const CompiledPlan>> plans;
  std::vector<const CompiledPlan*> raw;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    Result<std::shared_ptr<const CompiledPlan>> plan =
        CompiledPlan::Compile(texts[i], po);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: query %zu: %s\n", i + 1,
                   plan.status().ToString().c_str());
      return 1;
    }
    plans.push_back(std::move(plan).value());
    raw.push_back(plans.back().get());
  }

  ParallelInput input;
  if (inputs.empty()) {
    StdinSource stdin_source;
    std::string xml;
    char buf[1 << 16];
    std::size_t n;
    while ((n = stdin_source.Read(buf, sizeof buf)) > 0) xml.append(buf, n);
    input = ParallelInput::XmlText(std::move(xml));
  } else if (!IsFile(inputs[0])) {
    return Fail(Status::InvalidArgument("cannot open " + inputs[0]));
  } else {
    input = FileInput(inputs[0]);
  }

  // Each engine records into its own buffer; stdout gets the replays in
  // query order once the pass is done, so interleaved engine output never
  // interleaves on the wire.
  std::vector<EventBuffer> buffers(raw.size());
  std::vector<OutputSink*> sinks;
  for (EventBuffer& b : buffers) sinks.push_back(&b);
  MultiQueryOptions multi;
  multi.union_projection = !flags.no_union_projection;
  std::vector<MultiPlanResult> results;
  MultiQueryStats run_stats;
  Status st =
      StreamAllTransformInput(raw, input, sinks, multi, &results, &run_stats);
  if (results.size() != raw.size()) return Fail(st);

  FileSink out(stdout);
  int failed = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (results[i].status.ok()) {
      buffers[i].Replay(&out);
      out.Flush();
      std::printf("\n");
    } else {
      ++failed;
      std::fprintf(stderr, "error: query %zu: %s\n", i + 1,
                   results[i].status.ToString().c_str());
    }
  }
  if (flags.stats) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const StreamStats& s = results[i].stats;
      std::fprintf(stderr,
                   "query %zu: events fed: %llu, output events: %zu, "
                   "peak memory: %s\n",
                   i + 1,
                   static_cast<unsigned long long>(results[i].events_fed),
                   s.output_events, HumanBytes(s.peak_bytes).c_str());
    }
    std::fprintf(stderr,
                 "shared pass: bytes in: %llu, events: %llu, skipped by "
                 "projection: %llu (projection %s)\n",
                 static_cast<unsigned long long>(run_stats.bytes_in),
                 static_cast<unsigned long long>(run_stats.events_total),
                 static_cast<unsigned long long>(run_stats.events_skipped),
                 run_stats.projection_enabled ? "on" : "off");
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Flags flags;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--no-opt") {
      flags.no_opt = true;
    } else if ((a == "--query" || a == "-q") && i + 1 < argc) {
      flags.queries.push_back(argv[++i]);
    } else if (a == "--query-file" && i + 1 < argc) {
      flags.query_files.push_back(argv[++i]);
    } else if (a == "--no-union-projection") {
      flags.no_union_projection = true;
    } else if (a == "--dag") {
      flags.dag = true;
    } else if (a == "--stats") {
      flags.stats = true;
    } else if (a == "--schema" && i + 1 < argc) {
      flags.schema_path = argv[++i];
    } else if (a == "--pretok-cache" && i + 1 < argc) {
      flags.pretok_cache = argv[++i];
    } else if (a == "--engine" && i + 1 < argc) {
      if (!ParseEngine(argv[++i], &flags)) {
        std::fprintf(stderr, "error: --engine expects 'table' or 'ops'\n");
        return 2;
      }
    } else if (a.rfind("--engine=", 0) == 0) {
      if (!ParseEngine(a.substr(std::strlen("--engine=")), &flags)) {
        std::fprintf(stderr, "error: --engine expects 'table' or 'ops'\n");
        return 2;
      }
    } else if (a == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      flags.threads = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || flags.threads < 0) {
        std::fprintf(stderr, "error: --threads expects a count >= 0\n");
        return 2;
      }
      flags.threads_set = true;
    } else if (a == "--cache-capacity" && i + 1 < argc) {
      char* end = nullptr;
      flags.cache_capacity = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || flags.cache_capacity < 1) {
        std::fprintf(stderr,
                     "error: --cache-capacity expects a count >= 1\n");
        return 2;
      }
    } else if (a == "--cache-bytes" && i + 1 < argc) {
      char* end = nullptr;
      flags.cache_bytes = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || flags.cache_bytes < 1) {
        std::fprintf(stderr, "error: --cache-bytes expects a size >= 1\n");
        return 2;
      }
    } else if (a == "--port" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--port", 0, &flags.port)) return 2;
      flags.port_set = true;
    } else if (a == "--unix" && i + 1 < argc) {
      flags.unix_path = argv[++i];
    } else if (a == "--workers" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--workers", 1, &flags.workers)) {
        return 2;
      }
    } else if (a == "--queue-limit" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--queue-limit", 1,
                          &flags.queue_limit)) {
        return 2;
      }
    } else if (a == "--max-line-bytes" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--max-line-bytes", 0,
                          &flags.max_line_bytes)) {
        return 2;
      }
    } else if (a == "--max-xml-bytes" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--max-xml-bytes", 0,
                          &flags.max_xml_bytes)) {
        return 2;
      }
    } else if (a == "--drain-ms" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--drain-ms", 0, &flags.drain_ms)) {
        return 2;
      }
    } else if (a == "--retry-after-ms" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--retry-after-ms", 0,
                          &flags.retry_after_ms)) {
        return 2;
      }
    } else if (a == "--batch-window-ms" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--batch-window-ms", 0,
                          &flags.batch_window_ms)) {
        return 2;
      }
    } else if (a == "--batch-max" && i + 1 < argc) {
      if (!ParseCountFlag(argv[++i], "--batch-max", 1, &flags.batch_max)) {
        return 2;
      }
    } else if (a == "--enable-fault-injection") {
      flags.enable_fault_injection = true;
    } else {
      args.push_back(std::move(a));
    }
  }

  const bool multi_query =
      !flags.queries.empty() || !flags.query_files.empty();
  if (multi_query && cmd != "run") {
    std::fprintf(stderr, "error: --query/--query-file only apply to run\n");
    return 2;
  }
  if (cmd == "run" && multi_query) {
    return RunMulti(args, flags);
  }

  if (cmd == "run" || cmd == "compile" || cmd == "translate") {
    if (args.empty()) return Usage();
    Result<std::string> query_text = FileOrInline(args[0]);
    if (!query_text.ok()) return Fail(query_text.status());
    PipelineOptions po;
    po.optimize = !flags.no_opt;
    po.stream.engine = flags.engine;
    Result<std::shared_ptr<const CompiledPlan>> plan =
        CompiledPlan::Compile(query_text.value(), po);
    if (!plan.ok()) return Fail(plan.status());
    if (cmd == "compile") {
      std::printf("%s", plan.value()->mft().ToString().c_str());
      std::fprintf(stderr, "%s\n",
                   plan.value()->optimize_report().ToString().c_str());
      return 0;
    }
    if (cmd == "translate") {
      std::printf("%s", plan.value()->unoptimized_mft().ToString().c_str());
      return 0;
    }
    NoteEngineFallback(flags, plan.value()->mft());
    return StreamWith(*plan.value(),
                      std::vector<std::string>(args.begin() + 1, args.end()),
                      flags);
  }

  if (cmd == "mft") {
    if (args.empty()) return Usage();
    Result<std::string> rules = FileOrInline(args[0]);
    if (!rules.ok()) return Fail(rules.status());
    Result<Mft> mft = ParseMft(rules.value());
    if (!mft.ok()) return Fail(mft.status());
    // Hand-written rules serve through the same immutable plan artifact as
    // compiled queries (validated + dispatch warmed before any fan-out).
    PipelineOptions po;
    po.stream.engine = flags.engine;
    Result<std::shared_ptr<const CompiledPlan>> plan =
        CompiledPlan::FromMft(std::move(mft).value(), po);
    if (!plan.ok()) return Fail(plan.status());
    NoteEngineFallback(flags, plan.value()->mft());
    return StreamWith(*plan.value(),
                      std::vector<std::string>(args.begin() + 1, args.end()),
                      flags);
  }

  if (cmd == "validate") {
    if (args.size() < 2) return Usage();
    Result<std::string> schema_text = FileOrInline(args[0]);
    if (!schema_text.ok()) return Fail(schema_text.status());
    Result<std::shared_ptr<const Schema>> schema =
        Schema::Parse(schema_text.value());
    if (!schema.ok()) return Fail(schema.status());
    Result<std::unique_ptr<ByteSource>> src = MmapSource::Open(args[1]);
    if (!src.ok()) return Fail(src.status());
    SaxParser parser(src.value().get());
    SchemaValidator v(schema.value());
    XmlEvent ev;
    do {
      Status st = parser.Next(&ev);
      if (!st.ok()) return Fail(st);
      Status vs = v.Feed(ev);
      if (!vs.ok()) return Fail(vs);
    } while (ev.type != XmlEventType::kEndOfDocument);
    std::printf("valid\n");
    return 0;
  }

  if (cmd == "serve") {
    if (!args.empty()) {
      std::fprintf(stderr, "error: serve takes flags only\n");
      return 2;
    }
    if (flags.port_set || !flags.unix_path.empty()) {
      return ServeNet(flags, ApplyServeFlags(flags, NetServerOptions{}));
    }
    Status st =
        ServeLoop(stdin, stdout, ApplyServeFlags(flags, ServeOptions{}));
    if (!st.ok()) return Fail(st);
    return 0;
  }

  if (cmd == "client") {
    if (!args.empty()) {
      std::fprintf(stderr, "error: client takes flags only\n");
      return 2;
    }
    return RunClient(flags);
  }

  if (cmd == "stats") {
    if (args.empty()) return Usage();
    Result<DatasetStats> stats = ScanDatasetFile(args[0]);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("bytes: %zu\nelements: %zu\ntexts: %zu\ndepth: %zu\n",
                stats.value().bytes, stats.value().elements,
                stats.value().texts, stats.value().depth);
    return 0;
  }

  return Usage();
}
