// GCX-like baseline: a projection-based, buffer-minimizing streaming XQuery
// engine, reimplementing the documented evaluation strategy of GCX (Koch,
// Scherzinger & Schmidt, VLDB'07) that the paper benchmarks against.
//
// This is the simulated comparator called for by the reproduction plan (see
// DESIGN.md §3): GCX itself is a separate C++ codebase; what the paper's
// Figure 4 compares against is its *algorithmic profile*, which this engine
// shares:
//
//   * one SAX pass; top-level for-loops over $input paths are matched by a
//     position-set automaton on the open-element stack;
//   * on a binding match, only the projection of the subtree actually
//     needed by the loop body (paths used in the body and its predicates)
//     is buffered; the body is evaluated and emitted when the binding
//     closes, and the buffer is discarded immediately (GCX's signOff);
//   * XPath predicates are handled like GCX's where-clauses: the predicate
//     paths join the projection and are tested on the buffered fragment;
//   * the GCX fragment's restrictions hold: no following-sibling axis
//     (Figure 4(c)'s N/A), no top-level let;
//   * queries that copy whole input regions ({$input/*}) degrade to
//     buffering, bounded by `max_buffer_bytes` — the knob that reproduces
//     GCX's reported failure on the doubling query (Section 5).
#ifndef XQMFT_GCX_GCX_ENGINE_H_
#define XQMFT_GCX_GCX_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"
#include "xml/events.h"
#include "xml/sax_parser.h"
#include "xquery/ast.h"

namespace xqmft {

struct GcxOptions {
  /// Abort with ResourceExhausted when live buffers exceed this many bytes.
  std::size_t max_buffer_bytes = static_cast<std::size_t>(-1);
};

struct GcxStats {
  std::size_t peak_bytes = 0;    ///< peak buffered bytes
  std::size_t bindings = 0;      ///< loop bindings evaluated
  std::size_t bytes_in = 0;      ///< input bytes consumed
  std::size_t output_events = 0;
};

/// Returns OK iff the query is inside the GCX fragment; otherwise
/// NotSupported with the offending feature named.
Status GcxSupports(const QueryExpr& query);

/// \brief Compiled GCX query: skeleton plus stream slots.
class GcxQuery {
 public:
  /// Compiles `query`; fails with NotSupported outside the fragment.
  /// The query must outlive the GcxQuery.
  static Result<std::unique_ptr<GcxQuery>> Compile(const QueryExpr& query);
  ~GcxQuery();

  /// Runs the query over a document stream.
  Status Run(ByteSource* source, OutputSink* sink, GcxOptions options = {},
             GcxStats* stats = nullptr) const;

  /// Implementation detail (defined in gcx_engine.cc; declared here so the
  /// runtime helpers in the anonymous namespace can name it).
  struct Impl;

 private:
  explicit GcxQuery(const QueryExpr& query);
  std::unique_ptr<Impl> impl_;
};

/// One-shot helper over an in-memory document.
Status GcxTransformString(const QueryExpr& query, const std::string& xml,
                          OutputSink* sink, GcxOptions options = {},
                          GcxStats* stats = nullptr);

}  // namespace xqmft

#endif  // XQMFT_GCX_GCX_ENGINE_H_
