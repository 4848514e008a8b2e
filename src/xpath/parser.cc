// Recursive-descent parser for the XPath fragment.
#include <cctype>

#include "util/strings.h"
#include "xpath/ast.h"

namespace xqmft {

bool Predicate::operator==(const Predicate& o) const {
  return kind == o.kind && path == o.path && literal == o.literal;
}

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

class StepParser {
 public:
  StepParser(const std::string& text, std::size_t pos, std::size_t depth)
      : s_(text), pos_(pos), depth_(depth) {}

  std::size_t pos() const { return pos_; }

  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("XPath error at offset %zu: %s", pos_, msg.c_str()));
  }

  // Parses {pathstep}* — zero or more steps. Steps may be preceded by
  // whitespace (Figure 3's queries wrap long paths across lines); the
  // whitespace is consumed only if a step actually follows.
  // Each step opens a nesting level that lasts to the end of the path.
  Status ParseSteps(RelPath* out) {
    const std::size_t outer = depth_;
    while (true) {
      std::size_t save = pos_;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '/') {
        pos_ = save;
        depth_ = outer;
        return Status::OK();
      }
      if (depth_ == kMaxParseNesting) return Err(NestingLimitMessage());
      ++depth_;
      PathStep step;
      XQMFT_RETURN_NOT_OK(ParseStep(&step));
      out->push_back(std::move(step));
    }
  }

 private:
  Status ParseStep(PathStep* out) {
    ++pos_;  // leading '/'
    out->axis = Axis::kChild;
    if (pos_ < s_.size() && s_[pos_] == '/') {
      // The `//` abbreviation (supported "in a usual way", Section 5).
      ++pos_;
      out->axis = Axis::kDescendant;
    } else {
      // Explicit axis?
      static const struct {
        const char* name;
        Axis axis;
      } kAxes[] = {
          {"child::", Axis::kChild},
          {"descendant::", Axis::kDescendant},
          {"following-sibling::", Axis::kFollowingSibling},
      };
      for (const auto& a : kAxes) {
        std::size_t len = std::char_traits<char>::length(a.name);
        if (s_.compare(pos_, len, a.name) == 0) {
          out->axis = a.axis;
          pos_ += len;
          break;
        }
      }
    }
    XQMFT_RETURN_NOT_OK(ParseNodeTest(&out->test));
    while (true) {
      std::size_t save = pos_;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '[') {
        pos_ = save;
        return Status::OK();
      }
      if (depth_ == kMaxParseNesting) return Err(NestingLimitMessage());
      Predicate pred;
      ++depth_;
      Status st = ParsePredicate(&pred);
      --depth_;
      XQMFT_RETURN_NOT_OK(st);
      out->predicates.push_back(std::move(pred));
    }
  }

  Status ParseNodeTest(NodeTest* out) {
    if (pos_ >= s_.size()) return Err("missing node test");
    if (s_[pos_] == '*') {
      ++pos_;
      out->kind = NodeTestKind::kAnyElement;
      return Status::OK();
    }
    if (!IsNameStart(s_[pos_])) return Err("bad node test");
    std::string name;
    while (pos_ < s_.size() && IsNameChar(s_[pos_])) name += s_[pos_++];
    if (s_.compare(pos_, 2, "()") == 0) {
      pos_ += 2;
      if (name == "text") {
        out->kind = NodeTestKind::kText;
        return Status::OK();
      }
      if (name == "node") {
        out->kind = NodeTestKind::kAnyNode;
        return Status::OK();
      }
      return Err("unknown node test " + name + "()");
    }
    out->kind = NodeTestKind::kName;
    out->name = std::move(name);
    return Status::OK();
  }

  Status ParsePredicate(Predicate* out) {
    ++pos_;  // '['
    SkipWs();
    bool negated = false;
    if (s_.compare(pos_, 5, "empty") == 0) {
      std::size_t save = pos_;
      pos_ += 5;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '(') {
        ++pos_;
        negated = true;
      } else {
        pos_ = save;  // an element named "empty..."? fall through
      }
    }
    XQMFT_RETURN_NOT_OK(ParsePredPath(&out->path));
    SkipWs();
    if (negated) {
      if (pos_ >= s_.size() || s_[pos_] != ')') {
        return Err("missing ')' after empty(...)");
      }
      ++pos_;
      SkipWs();
      out->kind = PredicateKind::kEmpty;
    } else if (pos_ < s_.size() && (s_[pos_] == '=' || s_[pos_] == '!')) {
      bool neq = s_[pos_] == '!';
      ++pos_;
      if (neq) {
        if (pos_ >= s_.size() || s_[pos_] != '=') return Err("expected '!='");
        ++pos_;
      }
      SkipWs();
      XQMFT_RETURN_NOT_OK(ParseStringLiteral(&out->literal));
      SkipWs();
      out->kind = neq ? PredicateKind::kNotEquals : PredicateKind::kEquals;
      // Normalize: comparisons test text nodes. If the path does not end in
      // a text() step, compare the text children (append child::text()).
      if (out->path.empty() ||
          out->path.back().test.kind != NodeTestKind::kText) {
        PathStep text_step;
        text_step.axis = Axis::kChild;
        text_step.test.kind = NodeTestKind::kText;
        out->path.push_back(std::move(text_step));
      }
    } else {
      out->kind = PredicateKind::kExists;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') {
      return Err("missing ']' after predicate");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParsePredPath(RelPath* out) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;  // the `.` anchor
    }
    return ParseSteps(out);
  }

  Status ParseStringLiteral(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return Err("expected a string literal");
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') *out += s_[pos_++];
    if (pos_ >= s_.size()) return Err("unterminated string literal");
    ++pos_;
    return Status::OK();
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_;
  std::size_t depth_;  // nesting levels open, predicates included
};

std::string NodeTestToString(const NodeTest& t) {
  switch (t.kind) {
    case NodeTestKind::kName: return t.name;
    case NodeTestKind::kAnyElement: return "*";
    case NodeTestKind::kText: return "text()";
    case NodeTestKind::kAnyNode: return "node()";
  }
  return "?";
}

std::string PredicateToString(const Predicate& p) {
  std::string inner = "." + RelPathToString(p.path);
  switch (p.kind) {
    case PredicateKind::kExists: return "[" + inner + "]";
    case PredicateKind::kEmpty: return "[empty(" + inner + ")]";
    case PredicateKind::kEquals: return "[" + inner + "=\"" + p.literal + "\"]";
    case PredicateKind::kNotEquals:
      return "[" + inner + "!=\"" + p.literal + "\"]";
  }
  return "[?]";
}

}  // namespace

std::string RelPathToString(const RelPath& steps) {
  std::string out;
  for (const PathStep& s : steps) {
    out += '/';
    switch (s.axis) {
      case Axis::kChild: break;
      case Axis::kDescendant: out += "descendant::"; break;
      case Axis::kFollowingSibling: out += "following-sibling::"; break;
    }
    out += NodeTestToString(s.test);
    for (const Predicate& p : s.predicates) out += PredicateToString(p);
  }
  return out;
}

std::string PathToString(const Path& path) {
  return "$" + path.variable + RelPathToString(path.steps);
}

Status ParsePathSteps(const std::string& text, std::size_t* pos,
                      RelPath* steps, std::size_t depth) {
  StepParser p(text, *pos, depth);
  XQMFT_RETURN_NOT_OK(p.ParseSteps(steps));
  *pos = p.pos();
  return Status::OK();
}

Result<Path> ParsePath(const std::string& text) {
  Path out;
  std::size_t pos = 0;
  if (pos < text.size() && text[pos] == '$') {
    ++pos;
    if (pos >= text.size() || !IsNameStart(text[pos])) {
      return Status::InvalidArgument("XPath: bad variable name");
    }
    while (pos < text.size() && IsNameChar(text[pos])) {
      out.variable += text[pos++];
    }
  } else if (pos < text.size() && text[pos] == '/') {
    out.variable = "input";  // leading '/' abbreviates $input/
  } else {
    return Status::InvalidArgument(
        "XPath must start with $var or '/': " + text);
  }
  XQMFT_RETURN_NOT_OK(ParsePathSteps(text, &pos, &out.steps, /*depth=*/0));
  if (pos != text.size()) {
    return Status::InvalidArgument(
        StrFormat("XPath: trailing characters at offset %zu in '%s'", pos,
                  text.c_str()));
  }
  return out;
}

}  // namespace xqmft
