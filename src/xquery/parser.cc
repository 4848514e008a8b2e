// Recursive-descent parser for MinXQuery (Figure 2), plus QuerySize and the
// Section 2.1 variable-restriction validator.
#include <cctype>

#include "util/strings.h"
#include "xquery/ast.h"

namespace xqmft {

namespace {

bool IsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Result<std::unique_ptr<QueryExpr>> Parse() {
    SkipWs();
    std::unique_ptr<QueryExpr> q;
    XQMFT_RETURN_NOT_OK(ParseQueryExpr(&q));
    SkipWs();
    if (pos_ != s_.size()) {
      return Err("trailing characters after query");
    }
    return q;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::InvalidArgument(
        StrFormat("MinXQuery error at offset %zu: %s", pos_, msg.c_str()));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtKeyword(const char* kw) const {
    std::size_t len = std::char_traits<char>::length(kw);
    if (s_.compare(pos_, len, kw) != 0) return false;
    // Word boundary.
    return pos_ + len >= s_.size() || !IsNameChar(s_[pos_ + len]);
  }

  Status ParseName(std::string* out) {
    if (pos_ >= s_.size() || !IsNameStart(s_[pos_])) {
      return Err("expected a name");
    }
    out->clear();
    while (pos_ < s_.size() && IsNameChar(s_[pos_])) *out += s_[pos_++];
    return Status::OK();
  }

  // query ::= element | clause. Every nested expression is parsed through
  // here, so this is where nesting is counted and capped.
  Status ParseQueryExpr(std::unique_ptr<QueryExpr>* out) {
    SkipWs();
    if (depth_ == kMaxParseNesting) return Err(NestingLimitMessage());
    ++depth_;
    Status st = pos_ < s_.size() && s_[pos_] == '<' ? ParseElement(out)
                                                    : ParseClause(out);
    --depth_;
    return st;
  }

  Status ParseElement(std::unique_ptr<QueryExpr>* out) {
    ++pos_;  // '<'
    auto e = std::make_unique<QueryExpr>();
    e->kind = QueryKind::kElement;
    XQMFT_RETURN_NOT_OK(ParseName(&e->name));
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '>') {
      return Err("expected '>' in element constructor <" + e->name);
    }
    ++pos_;
    // Content: elements, strings, {clause}.
    while (true) {
      if (pos_ >= s_.size()) {
        return Err("unterminated element constructor <" + e->name + ">");
      }
      if (s_[pos_] == '<') {
        if (pos_ + 1 < s_.size() && s_[pos_ + 1] == '/') {
          pos_ += 2;
          std::string close;
          XQMFT_RETURN_NOT_OK(ParseName(&close));
          SkipWs();
          if (pos_ >= s_.size() || s_[pos_] != '>') {
            return Err("expected '>' in </" + close);
          }
          ++pos_;
          if (close != e->name) {
            return Err("mismatched </" + close + ">, expected </" + e->name +
                       ">");
          }
          break;
        }
        std::unique_ptr<QueryExpr> child;
        XQMFT_RETURN_NOT_OK(ParseQueryExpr(&child));
        e->children.push_back(std::move(child));
        continue;
      }
      if (s_[pos_] == '{') {
        ++pos_;
        std::unique_ptr<QueryExpr> clause;
        XQMFT_RETURN_NOT_OK(ParseQueryExpr(&clause));
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != '}') {
          return Err("expected '}' after embedded clause");
        }
        ++pos_;
        e->children.push_back(std::move(clause));
        continue;
      }
      // String constant: raw text until '<' or '{'. Whitespace-only runs are
      // formatting, not content.
      std::string text;
      while (pos_ < s_.size() && s_[pos_] != '<' && s_[pos_] != '{') {
        text += s_[pos_++];
      }
      std::string_view stripped = StripWhitespace(text);
      if (!stripped.empty()) {
        auto str = std::make_unique<QueryExpr>();
        str->kind = QueryKind::kString;
        str->str = std::string(stripped);
        e->children.push_back(std::move(str));
      }
    }
    *out = std::move(e);
    return Status::OK();
  }

  Status ParseClause(std::unique_ptr<QueryExpr>* out) {
    SkipWs();
    if (AtKeyword("for")) return ParseFor(out);
    if (AtKeyword("let")) return ParseLet(out);
    if (pos_ < s_.size() && s_[pos_] == '(') return ParseSequence(out);
    if (pos_ < s_.size() && (s_[pos_] == '$' || s_[pos_] == '/')) {
      return ParseOrdPath(out);
    }
    return Err("expected for/let/(...)/path clause");
  }

  Status ParseFor(std::unique_ptr<QueryExpr>* out) {
    pos_ += 3;  // "for"
    auto f = std::make_unique<QueryExpr>();
    f->kind = QueryKind::kFor;
    SkipWs();
    XQMFT_RETURN_NOT_OK(ParseVar(&f->name));
    SkipWs();
    if (!AtKeyword("in")) return Err("expected 'in' in for clause");
    pos_ += 2;
    SkipWs();
    XQMFT_RETURN_NOT_OK(ParsePathInto(&f->path));
    SkipWs();
    if (!AtKeyword("return")) return Err("expected 'return' in for clause");
    pos_ += 6;
    XQMFT_RETURN_NOT_OK(ParseQueryExpr(&f->body));
    *out = std::move(f);
    return Status::OK();
  }

  Status ParseLet(std::unique_ptr<QueryExpr>* out) {
    pos_ += 3;  // "let"
    auto l = std::make_unique<QueryExpr>();
    l->kind = QueryKind::kLet;
    SkipWs();
    XQMFT_RETURN_NOT_OK(ParseVar(&l->name));
    SkipWs();
    if (s_.compare(pos_, 2, ":=") != 0) {
      return Err("expected ':=' in let clause");
    }
    pos_ += 2;
    XQMFT_RETURN_NOT_OK(ParseQueryExpr(&l->value));
    SkipWs();
    if (!AtKeyword("return")) return Err("expected 'return' in let clause");
    pos_ += 6;
    XQMFT_RETURN_NOT_OK(ParseQueryExpr(&l->body));
    *out = std::move(l);
    return Status::OK();
  }

  Status ParseSequence(std::unique_ptr<QueryExpr>* out) {
    ++pos_;  // '('
    auto seq = std::make_unique<QueryExpr>();
    seq->kind = QueryKind::kSequence;
    while (true) {
      std::unique_ptr<QueryExpr> item;
      XQMFT_RETURN_NOT_OK(ParseQueryExpr(&item));
      seq->children.push_back(std::move(item));
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ')') {
      return Err("expected ')' closing sequence");
    }
    ++pos_;
    if (seq->children.size() < 2) {
      return Err("a sequence needs at least two members");
    }
    *out = std::move(seq);
    return Status::OK();
  }

  Status ParseOrdPath(std::unique_ptr<QueryExpr>* out) {
    auto p = std::make_unique<QueryExpr>();
    p->kind = QueryKind::kPath;
    XQMFT_RETURN_NOT_OK(ParsePathInto(&p->path));
    *out = std::move(p);
    return Status::OK();
  }

  Status ParseVar(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '$') {
      return Err("expected a $variable");
    }
    ++pos_;
    return ParseName(out);
  }

  Status ParsePathInto(Path* out) {
    if (pos_ < s_.size() && s_[pos_] == '$') {
      ++pos_;
      XQMFT_RETURN_NOT_OK(ParseName(&out->variable));
    } else if (pos_ < s_.size() && s_[pos_] == '/') {
      out->variable = "input";  // leading '/' abbreviates $input
    } else {
      return Err("expected a path starting with $var or '/'");
    }
    return ParsePathSteps(s_, &pos_, &out->steps, depth_);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // nesting levels open
};

std::size_t PredicatesSize(const std::vector<Predicate>& preds);

std::size_t RelPathSize(const RelPath& steps) {
  std::size_t n = 0;
  for (const PathStep& s : steps) {
    n += 1 + PredicatesSize(s.predicates);
  }
  return n;
}

std::size_t PredicatesSize(const std::vector<Predicate>& preds) {
  std::size_t n = 0;
  for (const Predicate& p : preds) n += 1 + RelPathSize(p.path);
  return n;
}

}  // namespace

std::size_t QuerySize(const QueryExpr& q) {
  std::size_t n = 1;
  switch (q.kind) {
    case QueryKind::kElement:
    case QueryKind::kSequence:
      for (const auto& c : q.children) n += QuerySize(*c);
      break;
    case QueryKind::kString:
      break;
    case QueryKind::kFor:
      n += 1 + RelPathSize(q.path.steps);
      n += QuerySize(*q.body);
      break;
    case QueryKind::kLet:
      n += QuerySize(*q.value);
      n += QuerySize(*q.body);
      break;
    case QueryKind::kPath:
      n += RelPathSize(q.path.steps);
      break;
  }
  return n;
}

std::string QueryToString(const QueryExpr& q) {
  switch (q.kind) {
    case QueryKind::kElement: {
      std::string out = "<" + q.name + ">";
      for (const auto& c : q.children) {
        if (c->kind == QueryKind::kElement || c->kind == QueryKind::kString) {
          out += QueryToString(*c);
        } else {
          out += "{" + QueryToString(*c) + "}";
        }
      }
      out += "</" + q.name + ">";
      return out;
    }
    case QueryKind::kString:
      return q.str;
    case QueryKind::kFor:
      return "for $" + q.name + " in " + PathToString(q.path) + " return " +
             QueryToString(*q.body);
    case QueryKind::kLet:
      return "let $" + q.name + " := " + QueryToString(*q.value) +
             " return " + QueryToString(*q.body);
    case QueryKind::kPath:
      return PathToString(q.path);
    case QueryKind::kSequence: {
      std::string out = "(";
      for (std::size_t i = 0; i < q.children.size(); ++i) {
        if (i > 0) out += ",";
        out += QueryToString(*q.children[i]);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

Result<std::unique_ptr<QueryExpr>> ParseQuery(const std::string& text) {
  return Parser(text).Parse();
}

namespace {

// Walks the query tracking in-scope variables and the nearest enclosing for
// variable. `nearest_for` is empty at top level.
Status ValidateWalk(const QueryExpr& q, std::vector<std::string>* scope,
                    const std::string& nearest_for) {
  auto in_scope = [&](const std::string& v) {
    if (v == "input") return true;
    for (const std::string& s : *scope) {
      if (s == v) return true;
    }
    return false;
  };
  auto check_path = [&](const Path& p) -> Status {
    if (p.IsBareVariable()) {
      if (!in_scope(p.variable)) {
        return Status::InvalidArgument("unbound variable $" + p.variable);
      }
      return Status::OK();
    }
    if (nearest_for.empty()) {
      if (p.variable != "input") {
        return Status::InvalidArgument(
            "path must start with $input outside any for clause, got $" +
            p.variable);
      }
      return Status::OK();
    }
    if (p.variable != nearest_for) {
      return Status::InvalidArgument(
          "path must start with the nearest enclosing for variable $" +
          nearest_for + ", got $" + p.variable);
    }
    return Status::OK();
  };

  switch (q.kind) {
    case QueryKind::kElement:
    case QueryKind::kSequence:
      for (const auto& c : q.children) {
        XQMFT_RETURN_NOT_OK(ValidateWalk(*c, scope, nearest_for));
      }
      return Status::OK();
    case QueryKind::kString:
      return Status::OK();
    case QueryKind::kFor: {
      XQMFT_RETURN_NOT_OK(check_path(q.path));
      scope->push_back(q.name);
      Status st = ValidateWalk(*q.body, scope, q.name);
      scope->pop_back();
      return st;
    }
    case QueryKind::kLet: {
      XQMFT_RETURN_NOT_OK(ValidateWalk(*q.value, scope, nearest_for));
      scope->push_back(q.name);
      Status st = ValidateWalk(*q.body, scope, nearest_for);
      scope->pop_back();
      return st;
    }
    case QueryKind::kPath:
      return check_path(q.path);
  }
  return Status::OK();
}

}  // namespace

Status ValidateQuery(const QueryExpr& q) {
  std::vector<std::string> scope;
  return ValidateWalk(q, &scope, "");
}

}  // namespace xqmft
