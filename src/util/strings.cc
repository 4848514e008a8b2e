#include "util/strings.h"

#include <cstdarg>
#include <cstdio>

namespace xqmft {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::size_t XmlEscapedSize(std::string_view s) {
  std::size_t n = s.size();
  for (char c : s) {
    switch (c) {
      case '&': n += 4; break;  // &amp;
      case '<': n += 3; break;  // &lt;
      case '>': n += 3; break;  // &gt;
      default: break;
    }
  }
  return n;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

std::string NestingLimitMessage() {
  return StrFormat("nesting exceeds the limit of %zu levels", kMaxParseNesting);
}

std::string HumanBytes(std::size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  return StrFormat("%.1f %s", v, units[u]);
}

}  // namespace xqmft
