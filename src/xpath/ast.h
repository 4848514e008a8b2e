// XPath fragment of MinXQuery (Figure 2 of the paper):
//
//   ordpath  ::= $var {pathstep}*
//   pathstep ::= /axis::nodetest {[predicate]}*
//   axis     ::= child | descendant | following-sibling
//   nodetest ::= elementname | * | text() | node()
//   predicate::= predpath | empty(predpath)
//              | predpath="string" | predpath!="string"
//   predpath ::= . {pathstep}*
//
// Abbreviations accepted by the parser: `/name` (child), `//name`
// (descendant), and a leading `/` in place of `$input/` (used by the GCX
// benchmark queries, e.g. query02's `/site/open_auctions/...`).
#ifndef XQMFT_XPATH_AST_H_
#define XQMFT_XPATH_AST_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "xml/symbol.h"

namespace xqmft {

enum class Axis : unsigned char {
  kChild,
  kDescendant,
  kFollowingSibling,
};

enum class NodeTestKind : unsigned char {
  kName,        ///< elementname
  kAnyElement,  ///< *
  kText,        ///< text()
  kAnyNode,     ///< node()
};

struct NodeTest {
  NodeTestKind kind = NodeTestKind::kName;
  std::string name;  ///< valid for kName

  /// Does a node with the given kind/label pass this test?
  bool Matches(NodeKind node_kind, const std::string& label) const {
    switch (kind) {
      case NodeTestKind::kName:
        return node_kind == NodeKind::kElement && label == name;
      case NodeTestKind::kAnyElement:
        return node_kind == NodeKind::kElement;
      case NodeTestKind::kText:
        return node_kind == NodeKind::kText;
      case NodeTestKind::kAnyNode:
        return true;
    }
    return false;
  }

  bool operator==(const NodeTest& o) const {
    return kind == o.kind && name == o.name;
  }
};

struct PathStep;

/// A relative path: the `.`-anchored steps of a predicate path.
using RelPath = std::vector<PathStep>;

enum class PredicateKind : unsigned char {
  kExists,     ///< [predpath]
  kEmpty,      ///< [empty(predpath)]
  kEquals,     ///< [predpath="literal"]
  kNotEquals,  ///< [predpath!="literal"]
};

/// \brief One XPath predicate. For comparisons the parser normalizes the
/// path to end in a text() step (appending child::text() if absent), so the
/// comparison is always a text-node label comparison — the existential
/// semantics the paper's Mperson example implements.
struct Predicate {
  PredicateKind kind = PredicateKind::kExists;
  RelPath path;
  std::string literal;  ///< for kEquals / kNotEquals

  bool operator==(const Predicate& o) const;
};

/// \brief One step of a path: axis, node test, and conjunctive predicates.
struct PathStep {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<Predicate> predicates;

  bool operator==(const PathStep& o) const {
    return axis == o.axis && test == o.test && predicates == o.predicates;
  }
};

/// \brief An ordpath: `$variable` followed by steps. Steps may be empty (a
/// bare variable reference).
struct Path {
  std::string variable;  ///< without the `$`
  RelPath steps;

  bool IsBareVariable() const { return steps.empty(); }
};

/// Renders a path in XPath syntax (for diagnostics).
std::string PathToString(const Path& path);
std::string RelPathToString(const RelPath& steps);

/// Parses an ordpath, e.g. `$v//a[./b/text()="x"]/following-sibling::c`.
/// A leading `/` with no variable is read as `$input/...`.
Result<Path> ParsePath(const std::string& text);

/// Parses the step suffix of a path (everything after the variable) starting
/// at `*pos` in `text`; used by the XQuery parser. Stops at the first
/// character that cannot continue a path. `depth` is the nesting already
/// open around the path; each step and each predicate opens one more level,
/// and nesting past kMaxParseNesting (util/strings.h) is an error.
Status ParsePathSteps(const std::string& text, std::size_t* pos,
                      RelPath* steps, std::size_t depth);

}  // namespace xqmft

#endif  // XQMFT_XPATH_AST_H_
