// Source-level projection paths for multi-query streaming.
//
// GCX-style projection (gcx/gcx_engine.cc) decides which nodes enter a
// *buffered fragment*; its paths are relative to a slot match and it may
// flatten ancestor structure because the buffer is only consulted by the
// predicates compiled against it. Dropping events at the *source* is a
// stricter problem: the surviving stream is re-evaluated by full MFT
// engines that match paths against the remaining structure, so a projection
// must preserve every ancestor chain it keeps — reparenting a kept node
// under a pruned ancestor could manufacture child-axis matches that do not
// exist in the document. The derivation here therefore produces *absolute*
// (document-root-anchored) paths and the automaton (union_projection.h)
// keeps the full spine of every active path: a subtree is dropped only when
// no path position can advance into it at all, which is exactly the
// Marian–Siméon projection guarantee the paper's Section 6 measurements
// lean on.
//
// Two path kinds: a *keep-node* path marks binding spines (`for` clauses)
// whose element events must survive but whose unrelated descendants may
// not; a *keep-subtree* path marks copy targets (ordpath results, predicate
// paths) whose entire subtree must survive verbatim.
//
// Every CompiledPlan run streams through its projection (single-query runs
// and multi-query unions alike; see union_projection.h), so a projection
// that cannot reject any element is marked whole_document instead: its
// automaton would cost every event and skip nothing. That is the case for
// an all-wildcard keep-subtree path (`$input/*`, `$input//*//*`), which
// matches or keeps every element of the document.
#ifndef XQMFT_MULTIQUERY_PROJECTION_H_
#define XQMFT_MULTIQUERY_PROJECTION_H_

#include <string>
#include <vector>

#include "xpath/ast.h"
#include "xquery/ast.h"

namespace xqmft {

/// One absolute projection path, predicates stripped (predicate paths are
/// re-anchored as keep-subtree paths of their own during derivation).
struct ProjectionPath {
  RelPath steps;
  bool keep_subtree = false;
};

/// \brief The projection of one compiled plan: the set of absolute paths
/// whose matches (and, for keep-subtree paths, whole matched subtrees) the
/// plan can observe.
struct QueryProjection {
  /// The plan may read anywhere; source projection must be disabled for any
  /// run containing it. Set for queries outside the projectable fragment
  /// (bare `$input` output, a following-sibling step, a stepped path over a
  /// let-bound value), for copies of every element (an all-wildcard
  /// keep-subtree path), and for hand-written transducers that have no
  /// query.
  bool whole_document = false;
  /// Why whole_document is set (empty otherwise), for `--stats` verdicts.
  std::string why;
  std::vector<ProjectionPath> paths;
};

/// Derives the projection of a validated query. `query == nullptr` (a plan
/// built FromMft) yields whole_document — nothing is known about what a
/// hand-written transducer reads.
QueryProjection DeriveProjection(const QueryExpr* query);

}  // namespace xqmft

#endif  // XQMFT_MULTIQUERY_PROJECTION_H_
