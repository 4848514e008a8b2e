// Parser for the textual MFT rule syntax (inverse of Mft::ToString). The
// syntax mirrors the paper's notation and is used by tests, examples, and
// anyone wanting to hand-write transducers (Section 1 points out that MFTs
// support recursive definitions beyond the XQuery fragment).
#include <cctype>

#include "mft/mft.h"
#include "util/strings.h"

namespace xqmft {

namespace {

enum class Tok {
  kIdent,
  kString,
  kPercent,       // %
  kPercentT,      // %t
  kPercentTText,  // %ttext
  kLParen,
  kRParen,
  kComma,
  kArrow,
  kNewline,
  kEnd,
};

struct Token {
  Tok kind;
  std::string text;
  std::size_t line;
  std::size_t offset;  // of the token's first byte
};

class Lexer {
 public:
  explicit Lexer(const std::string& s) : s_(s) {}

  Result<std::vector<Token>> Lex() {
    std::vector<Token> out;
    while (pos_ < s_.size()) {
      const std::size_t start = pos_;
      char c = s_[pos_];
      if (c == '#') {
        while (pos_ < s_.size() && s_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '\n') {
        out.push_back({Tok::kNewline, "", line_, start});
        ++line_;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
        continue;
      }
      if (c == '(') {
        out.push_back({Tok::kLParen, "(", line_, start});
        ++pos_;
        continue;
      }
      if (c == ')') {
        out.push_back({Tok::kRParen, ")", line_, start});
        ++pos_;
        continue;
      }
      if (c == ',') {
        out.push_back({Tok::kComma, ",", line_, start});
        ++pos_;
        continue;
      }
      if (c == '-' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '>') {
        out.push_back({Tok::kArrow, "->", line_, start});
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        std::string str;
        while (pos_ < s_.size() && s_[pos_] != '"') {
          if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
          str += s_[pos_++];
        }
        if (pos_ >= s_.size()) {
          return Err("unterminated string literal");
        }
        ++pos_;
        out.push_back({Tok::kString, std::move(str), line_, start});
        continue;
      }
      if (c == '%') {
        if (s_.compare(pos_, 6, "%ttext") == 0) {
          out.push_back({Tok::kPercentTText, "%ttext", line_, start});
          pos_ += 6;
        } else if (s_.compare(pos_, 2, "%t") == 0) {
          out.push_back({Tok::kPercentT, "%t", line_, start});
          pos_ += 2;
        } else {
          out.push_back({Tok::kPercent, "%", line_, start});
          ++pos_;
        }
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        std::string id;
        while (pos_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '_' || s_[pos_] == '-' || s_[pos_] == '.' ||
                s_[pos_] == ':')) {
          // A '-' that begins "->" terminates the identifier.
          if (s_[pos_] == '-' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '>') {
            break;
          }
          id += s_[pos_++];
        }
        out.push_back({Tok::kIdent, std::move(id), line_, start});
        continue;
      }
      return Err(StrFormat("unexpected character '%c'", c));
    }
    out.push_back({Tok::kEnd, "", line_, s_.size()});
    return out;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::InvalidArgument(
        StrFormat("MFT syntax error on line %zu: %s", line_ + 1, msg.c_str()));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

class RuleParser {
 public:
  explicit RuleParser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<Mft> Parse() {
    while (Peek().kind != Tok::kEnd) {
      if (Peek().kind == Tok::kNewline) {
        Advance();
        continue;
      }
      XQMFT_RETURN_NOT_OK(ParseRule());
    }
    if (!saw_rule_) return Status::InvalidArgument("MFT text has no rules");
    // Ranks defaulting: states mentioned only as 0-arg calls.
    for (auto& [name, id] : state_ids_) {
      (void)name;
      if (ranks_[id] < 0) ranks_[id] = 1;
    }
    // Build the real Mft with final ranks.
    Mft out;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out.AddState(names_[i], ranks_[static_cast<int>(i)] - 1);
    }
    out.set_initial_state(0);
    for (PendingRule& r : pending_) {
      switch (r.kind) {
        case PatternKind::kSymbol:
          out.SetSymbolRule(r.state, r.symbol, r.rhs);
          break;
        case PatternKind::kText:
          out.SetTextRule(r.state, r.rhs);
          break;
        case PatternKind::kDefault:
          out.SetDefaultRule(r.state, r.rhs);
          break;
        case PatternKind::kEpsilon:
          out.SetEpsilonRule(r.state, r.rhs);
          break;
        case PatternKind::kStay:
          out.SetStayRule(r.state, r.rhs);
          break;
      }
    }
    XQMFT_RETURN_NOT_OK(out.Validate());
    return out;
  }

 private:
  enum class PatternKind { kSymbol, kText, kDefault, kEpsilon, kStay };

  struct PendingRule {
    StateId state;
    PatternKind kind;
    Symbol symbol;
    Rhs rhs;
  };

  const Token& Peek(int ahead = 0) const {
    std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& Advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  Status Err(const std::string& msg) {
    return Status::InvalidArgument(StrFormat("MFT parse error on line %zu: %s",
                                             Peek().line + 1, msg.c_str()));
  }

  Status Expect(Tok kind, const char* what) {
    if (Peek().kind != kind) return Err(StrFormat("expected %s", what));
    Advance();
    return Status::OK();
  }

  StateId Intern(const std::string& name) {
    auto it = state_ids_.find(name);
    if (it != state_ids_.end()) return it->second;
    StateId id = static_cast<StateId>(names_.size());
    state_ids_[name] = id;
    names_.push_back(name);
    ranks_.push_back(-1);
    return id;
  }

  Status SetRank(StateId q, int rank) {
    if (ranks_[q] < 0) {
      ranks_[q] = rank;
      return Status::OK();
    }
    if (ranks_[q] != rank) {
      return Err(StrFormat("state %s used with rank %d and %d",
                           names_[q].c_str(), ranks_[q], rank));
    }
    return Status::OK();
  }

  // ident is xN?
  static bool IsXVar(const std::string& s, int* n) {
    if (s.size() == 2 && s[0] == 'x' && s[1] >= '0' && s[1] <= '2') {
      *n = s[1] - '0';
      return true;
    }
    return false;
  }
  static bool IsYVar(const std::string& s, int* n) {
    if (s.size() >= 2 && s[0] == 'y') {
      for (std::size_t i = 1; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
      }
      *n = std::atoi(s.c_str() + 1);
      return true;
    }
    return false;
  }

  Status ParseRule() {
    saw_rule_ = true;
    if (Peek().kind != Tok::kIdent) return Err("expected a state name");
    StateId q = Intern(Advance().text);
    XQMFT_RETURN_NOT_OK(Expect(Tok::kLParen, "'('"));

    PendingRule rule;
    rule.state = q;
    // Pattern.
    const Token& p = Peek();
    if (p.kind == Tok::kIdent && p.text == "eps") {
      Advance();
      rule.kind = PatternKind::kEpsilon;
    } else if (p.kind == Tok::kPercent) {
      Advance();
      rule.kind = PatternKind::kStay;
    } else if (p.kind == Tok::kPercentT || p.kind == Tok::kPercentTText ||
               p.kind == Tok::kIdent || p.kind == Tok::kString) {
      if (p.kind == Tok::kPercentT) {
        rule.kind = PatternKind::kDefault;
      } else if (p.kind == Tok::kPercentTText) {
        rule.kind = PatternKind::kText;
      } else if (p.kind == Tok::kString) {
        rule.kind = PatternKind::kSymbol;
        rule.symbol = Symbol::Text(p.text);
      } else {
        rule.kind = PatternKind::kSymbol;
        rule.symbol = Symbol::Element(p.text);
      }
      Advance();
      // (x1)x2
      XQMFT_RETURN_NOT_OK(Expect(Tok::kLParen, "'(x1)' in pattern"));
      int xv = -1;
      if (Peek().kind != Tok::kIdent || !IsXVar(Peek().text, &xv) || xv != 1) {
        return Err("pattern must bind x1");
      }
      Advance();
      XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')' in pattern"));
      if (Peek().kind != Tok::kIdent || !IsXVar(Peek().text, &xv) || xv != 2) {
        return Err("pattern must bind x2");
      }
      Advance();
    } else {
      return Err("bad rule pattern");
    }

    // Parameters.
    int m = 0;
    while (Peek().kind == Tok::kComma) {
      Advance();
      int n = 0;
      if (Peek().kind != Tok::kIdent || !IsYVar(Peek().text, &n)) {
        return Err("expected parameter yN in left-hand side");
      }
      ++m;
      if (n != m) return Err("parameters must be y1, y2, ... in order");
      Advance();
    }
    XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')' after left-hand side"));
    XQMFT_RETURN_NOT_OK(SetRank(q, m + 1));
    XQMFT_RETURN_NOT_OK(Expect(Tok::kArrow, "'->'"));
    XQMFT_RETURN_NOT_OK(ParseRhsUntil({Tok::kNewline, Tok::kEnd}, &rule.rhs));
    pending_.push_back(std::move(rule));
    return Status::OK();
  }

  // Parses a space-separated RHS sequence, stopping at any of `stops` (or at
  // ',' / ')' when they appear in `stops`).
  Status ParseRhsUntil(std::initializer_list<Tok> stops, Rhs* out) {
    auto stopped = [&]() {
      for (Tok t : stops) {
        if (Peek().kind == t) return true;
      }
      return false;
    };
    while (!stopped()) {
      if (depth_ == kMaxParseNesting) {
        return Err(StrFormat("%s (at offset %zu)",
                             NestingLimitMessage().c_str(), Peek().offset));
      }
      RhsNode node;
      ++depth_;
      Status st = ParseItem(&node);
      --depth_;
      XQMFT_RETURN_NOT_OK(st);
      if (node.kind == RhsKind::kLabel && !node.current_label &&
          node.symbol.kind == NodeKind::kElement && node.symbol.name.empty()) {
        continue;  // `eps`: contributes nothing
      }
      out->push_back(std::move(node));
    }
    return Status::OK();
  }

  Status ParseItem(RhsNode* out) {
    const Token& t = Peek();
    if (t.kind == Tok::kString) {
      std::string text = Advance().text;
      Rhs children;
      if (Peek().kind == Tok::kLParen) {
        Advance();
        XQMFT_RETURN_NOT_OK(ParseRhsUntil({Tok::kRParen}, &children));
        XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
      }
      *out = RhsNode::Label(Symbol::Text(std::move(text)), std::move(children));
      return Status::OK();
    }
    if (t.kind == Tok::kPercentT) {
      Advance();
      Rhs children;
      if (Peek().kind == Tok::kLParen) {
        Advance();
        XQMFT_RETURN_NOT_OK(ParseRhsUntil({Tok::kRParen}, &children));
        XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
      }
      *out = RhsNode::CurrentLabel(std::move(children));
      return Status::OK();
    }
    if (t.kind != Tok::kIdent) return Err("expected an RHS item");
    std::string name = Advance().text;
    if (name == "eps") {
      *out = RhsNode::Label(Symbol::Element(""), {});  // sentinel, dropped
      return Status::OK();
    }
    int n = 0;
    if (IsYVar(name, &n)) {
      *out = RhsNode::Param(n);
      return Status::OK();
    }
    if (IsXVar(name, &n)) return Err("xN may only appear as a call argument");
    if (Peek().kind != Tok::kLParen) {
      *out = RhsNode::Label(Symbol::Element(std::move(name)), {});
      return Status::OK();
    }
    Advance();  // '('
    // Call iff the first token inside is x0/x1/x2.
    if (Peek().kind == Tok::kIdent && IsXVar(Peek().text, &n)) {
      Advance();
      std::vector<Rhs> args;
      while (Peek().kind == Tok::kComma) {
        Advance();
        Rhs arg;
        XQMFT_RETURN_NOT_OK(ParseRhsUntil({Tok::kComma, Tok::kRParen}, &arg));
        args.push_back(std::move(arg));
      }
      XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')' after call"));
      StateId callee = Intern(name);
      XQMFT_RETURN_NOT_OK(SetRank(callee, static_cast<int>(args.size()) + 1));
      *out = RhsNode::Call(callee, static_cast<InputVar>(n), std::move(args));
      return Status::OK();
    }
    Rhs children;
    XQMFT_RETURN_NOT_OK(ParseRhsUntil({Tok::kRParen}, &children));
    XQMFT_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
    *out = RhsNode::Label(Symbol::Element(std::move(name)), std::move(children));
    return Status::OK();
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // rule-body terms open
  bool saw_rule_ = false;
  std::unordered_map<std::string, StateId> state_ids_;
  std::vector<std::string> names_;
  std::vector<int> ranks_;
  std::vector<PendingRule> pending_;
};

}  // namespace

Result<Mft> ParseMft(const std::string& text) {
  Lexer lexer(text);
  XQMFT_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Lex());
  return RuleParser(std::move(toks)).Parse();
}

}  // namespace xqmft
