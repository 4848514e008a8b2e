// Shared character classification for the XML lexer.
//
// The parser's three bulk-scan states (text runs, names, whitespace — plus
// attribute values, which scan like text with a different stop set) all
// classify bytes against one 256-entry table. The table used to live inside
// sax_parser.cc; it is shared here so the scalar loops and the SIMD scanners
// in char_class.cc classify from the same definition and cannot drift.
//
// The Scan* helpers are the lexer's inner loops: each returns the length of
// the maximal prefix of [p, p+n) matching its class, dispatching to a SIMD
// implementation (SSE2 on x86-64, NEON on AArch64 — 16 bytes classified per
// step) when available and enabled, with the scalar table loop as the always
// -present fallback. The two paths are differential-tested against each
// other (tests/xml_test.cc).
//
// SIMD is a pure speedup: it never changes which byte a scan stops at, so
// the tokenization (and the pretok header's flags byte) is the same with it
// on or off. The process-wide toggle exists for A/B benchmarking: env
// XQMFT_SIMD=off, or SetSimdScanEnabled(false).
#ifndef XQMFT_XML_CHAR_CLASS_H_
#define XQMFT_XML_CHAR_CLASS_H_

#include <cstddef>

namespace xqmft {

enum : unsigned char {
  kClsNameStart = 1,  // [A-Za-z_:]
  kClsNameChar = 2,   // name start plus [0-9.-]
  kClsWs = 4,         // space \t \n \r
};

struct CharClassTable {
  unsigned char cls[256] = {};
  constexpr CharClassTable() {
    for (int c = 'a'; c <= 'z'; ++c) cls[c] = kClsNameStart | kClsNameChar;
    for (int c = 'A'; c <= 'Z'; ++c) cls[c] = kClsNameStart | kClsNameChar;
    cls[static_cast<unsigned char>('_')] = kClsNameStart | kClsNameChar;
    cls[static_cast<unsigned char>(':')] = kClsNameStart | kClsNameChar;
    for (int c = '0'; c <= '9'; ++c) cls[c] = kClsNameChar;
    cls[static_cast<unsigned char>('-')] = kClsNameChar;
    cls[static_cast<unsigned char>('.')] = kClsNameChar;
    cls[static_cast<unsigned char>(' ')] = kClsWs;
    cls[static_cast<unsigned char>('\t')] = kClsWs;
    cls[static_cast<unsigned char>('\n')] = kClsWs;
    cls[static_cast<unsigned char>('\r')] = kClsWs;
  }
};

inline constexpr CharClassTable kCharClassTable{};

inline unsigned char CharClassOf(char c) {
  return kCharClassTable.cls[static_cast<unsigned char>(c)];
}

inline bool IsAllWhitespace(const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!(CharClassOf(p[i]) & kClsWs)) return false;
  }
  return true;
}

/// Process-wide SIMD toggle. Defaults to on where compiled in; env
/// XQMFT_SIMD=off (or 0) disables at startup. Relaxed-atomic: safe to flip
/// between runs, never changes scan results either way.
bool SimdScanEnabled();
void SetSimdScanEnabled(bool on);
/// True when a SIMD implementation is compiled into this binary.
bool SimdScanAvailable();

/// Length of the prefix of [p, p+n) containing neither '<' nor '&' (a text
/// content run). `*all_ws` is ANDed with "every scanned byte is whitespace",
/// folding the old separate IsAllWs pass into the same sweep.
std::size_t ScanTextRun(const char* p, std::size_t n, bool* all_ws);

/// Length of the prefix of [p, p+n) of kClsNameChar bytes.
std::size_t ScanNameRun(const char* p, std::size_t n);

/// Length of the prefix of [p, p+n) of kClsWs bytes.
std::size_t ScanWsRun(const char* p, std::size_t n);

/// Length of the prefix of [p, p+n) containing neither `quote` nor '&' (an
/// attribute value run). `quote` is '"' or '\''.
std::size_t ScanAttrRun(const char* p, std::size_t n, char quote);

}  // namespace xqmft

#endif  // XQMFT_XML_CHAR_CLASS_H_
