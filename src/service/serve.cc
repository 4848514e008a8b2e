#include "service/serve.h"

#include <string>

#include "service/wire.h"

namespace xqmft {

namespace {

enum class LineRead {
  kOk,        // one complete line in *line (newline stripped)
  kEof,       // end of input, nothing read
  kOverlong,  // line exceeded max_bytes; excess discarded, reader is at the
              // next line boundary
};

// Reads one newline-terminated line without buffering more than
// `max_bytes` of it: an overlong line is consumed (so the stream stays
// line-synchronized) but not stored — the caller rejects it and continues.
LineRead ReadLineLimited(std::FILE* in, std::size_t max_bytes,
                         std::string* line) {
  line->clear();
  bool overlong = false;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return overlong ? LineRead::kOverlong : LineRead::kOk;
    if (!overlong) {
      if (max_bytes != 0 && line->size() >= max_bytes) {
        overlong = true;
      } else {
        line->push_back(static_cast<char>(c));
      }
    }
  }
  if (overlong) return LineRead::kOverlong;
  return line->empty() ? LineRead::kEof : LineRead::kOk;
}

Status WriteAll(std::FILE* out, std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), out) != bytes.size() ||
      std::fflush(out) != 0) {
    return Status::Internal("cannot write response");
  }
  return Status::OK();
}

}  // namespace

Status ServeLoop(std::FILE* in, std::FILE* out, const ServeOptions& options) {
  QueryService service(options.cache, options.pipeline);
  WireOptions wire;
  wire.limits = options.limits;
  wire.default_threads = options.default_threads;
  wire.allow_fault_injection = options.allow_fault_injection;
  RequestHandler handler(&service, wire);

  std::string line;
  std::string response;
  for (;;) {
    LineRead read = ReadLineLimited(in, options.limits.max_line_bytes, &line);
    if (read == LineRead::kEof) break;
    response.clear();
    if (read == LineRead::kOverlong) {
      AppendOverlongLineResponse(&response, options.limits.max_line_bytes);
      XQMFT_RETURN_NOT_OK(WriteAll(out, response));
      continue;
    }
    // Blank lines keep the loop responsive under sloppy drivers.
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    handler.HandleLine(line, nullptr, &response);
    XQMFT_RETURN_NOT_OK(WriteAll(out, response));
  }
  return Status::OK();
}

}  // namespace xqmft
