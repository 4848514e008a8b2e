// Small string helpers shared across parsers and printers.
#ifndef XQMFT_UTIL_STRINGS_H_
#define XQMFT_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace xqmft {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
inline bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// XML-escapes text content: & < > (quotes left alone outside attributes).
std::string XmlEscape(std::string_view s);

/// Size of XmlEscape(s) without building the string (byte accounting in
/// sinks that never materialize output).
std::size_t XmlEscapedSize(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("12.0 MB").
std::string HumanBytes(std::size_t bytes);

/// Deepest nesting the query and MFT parsers accept: element constructors,
/// clauses, parentheses, path steps and predicates in a query (translation
/// nests each step inside the one before it); terms in a rule body.
/// Parsing and every stage after it recurse over that nesting, so a deeper
/// input is rejected up front rather than allowed to exhaust the stack of
/// the thread compiling it.
inline constexpr std::size_t kMaxParseNesting = 256;

/// The error message for input nested deeper than kMaxParseNesting.
std::string NestingLimitMessage();

}  // namespace xqmft

#endif  // XQMFT_UTIL_STRINGS_H_
