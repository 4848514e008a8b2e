#include "multiquery/projection.h"

#include <string>
#include <utility>

namespace xqmft {
namespace {

// Variable scope during derivation. A for-variable is a document position
// rooted at an absolute predicate-free path; a let-variable holds a
// constructed value with no document position (its input needs are
// collected where the value expression is).
struct Binding {
  std::string name;
  bool is_node = false;
  RelPath prefix;  ///< absolute path of the binding (is_node only)
};

class Builder {
 public:
  QueryProjection Run(const QueryExpr& q) {
    scope_.push_back(Binding{"input", /*is_node=*/true, {}});
    Collect(q);
    if (out_.whole_document) out_.paths.clear();
    return std::move(out_);
  }

 private:
  void WholeDocument(const char* why) {
    if (out_.whole_document) return;
    out_.whole_document = true;
    out_.why = why;
  }

  // A keep-subtree path of wildcard steps only matches (or keeps) every
  // element at every depth, so no element could ever be rejected.
  static bool AllWildcard(const RelPath& steps) {
    for (const PathStep& s : steps) {
      if (s.test.kind != NodeTestKind::kAnyElement &&
          s.test.kind != NodeTestKind::kAnyNode) {
        return false;
      }
    }
    return true;
  }

  const Binding* Lookup(const std::string& var) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->name == var) return &*it;
    }
    return nullptr;
  }

  // Resolves `path` to absolute predicate-free steps. On failure (stepped
  // path without a document anchor, following-sibling — whose matches
  // depend on siblings no child/descendant automaton can account for) the
  // whole query becomes unprojectable.
  bool Resolve(const Path& path, RelPath* abs) {
    const Binding* b = Lookup(path.variable);
    if (b == nullptr || !b->is_node) {
      WholeDocument("path over a let-bound value");
      return false;
    }
    *abs = b->prefix;
    for (const PathStep& s : path.steps) {
      if (s.axis == Axis::kFollowingSibling) {
        WholeDocument("following-sibling step");
        return false;
      }
      PathStep clean;
      clean.axis = s.axis;
      clean.test = s.test;
      abs->push_back(std::move(clean));
    }
    return true;
  }

  // Registers the absolute predicate-free path `clean`, whose trailing
  // steps came from `steps` (still carrying predicates): clean.size() ==
  // anchor + steps.size(). Predicate paths join the projection as
  // keep-subtree paths anchored at the step they test — a predicate is
  // evaluated over its target's content, so the target subtree must
  // survive. An empty path names the document node itself: nothing to keep
  // for a binding (it has no events), everything for a copy.
  void Add(RelPath clean, const RelPath& steps, bool keep_subtree) {
    if (out_.whole_document) return;
    if (clean.empty()) {
      if (keep_subtree) WholeDocument("copies the whole input");
      return;
    }
    if (keep_subtree && AllWildcard(clean)) {
      WholeDocument("copies every element (all-wildcard path)");
      return;
    }
    const std::size_t anchor = clean.size() - steps.size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      for (const Predicate& p : steps[i].predicates) {
        RelPath full(clean.begin(),
                     clean.begin() + static_cast<long>(anchor + i) + 1);
        for (const PathStep& ps : p.path) {
          if (ps.axis == Axis::kFollowingSibling) {
            WholeDocument("following-sibling step");
            return;
          }
          PathStep c;
          c.axis = ps.axis;
          c.test = ps.test;
          full.push_back(std::move(c));
        }
        Add(std::move(full), p.path, /*keep_subtree=*/true);
        if (out_.whole_document) return;
      }
    }
    out_.paths.push_back(ProjectionPath{std::move(clean), keep_subtree});
  }

  void Collect(const QueryExpr& e) {
    if (out_.whole_document) return;
    switch (e.kind) {
      case QueryKind::kElement:
      case QueryKind::kSequence:
        for (const auto& c : e.children) Collect(*c);
        return;
      case QueryKind::kString:
        return;
      case QueryKind::kFor: {
        RelPath abs;
        if (!Resolve(e.path, &abs)) return;
        Add(abs, e.path.steps, /*keep_subtree=*/false);
        scope_.push_back(Binding{e.name, /*is_node=*/true, std::move(abs)});
        Collect(*e.body);
        scope_.pop_back();
        return;
      }
      case QueryKind::kLet:
        Collect(*e.value);
        scope_.push_back(Binding{e.name, /*is_node=*/false, {}});
        Collect(*e.body);
        scope_.pop_back();
        return;
      case QueryKind::kPath: {
        if (e.path.IsBareVariable()) {
          const Binding* b = Lookup(e.path.variable);
          if (b == nullptr) {
            WholeDocument("unbound variable");  // unreachable after validation
            return;
          }
          // Copying a let-bound value reads no input beyond what its value
          // expression already registered; copying a for binding (or
          // $input, whose prefix is empty) keeps the whole subtree.
          if (b->is_node) Add(b->prefix, RelPath{}, /*keep_subtree=*/true);
          return;
        }
        RelPath abs;
        if (!Resolve(e.path, &abs)) return;
        Add(std::move(abs), e.path.steps, /*keep_subtree=*/true);
        return;
      }
    }
  }

  QueryProjection out_;
  std::vector<Binding> scope_;
};

}  // namespace

QueryProjection DeriveProjection(const QueryExpr* query) {
  if (query == nullptr) {
    QueryProjection out;
    out.whole_document = true;
    out.why = "hand-written transducer";
    return out;
  }
  return Builder().Run(*query);
}

}  // namespace xqmft
