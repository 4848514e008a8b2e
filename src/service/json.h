// Minimal JSON reading/writing for the serving frontend.
//
// The serve loop speaks newline-delimited JSON on stdin/stdout; the
// container ships no JSON dependency, so this is a small, strict RFC-8259
// subset parser: objects, arrays, strings (with escapes incl. \uXXXX),
// numbers, booleans, null. It exists for request/response framing — small
// messages, not documents — so values are plain owning structs and the
// parser is a straightforward recursive descent with a depth cap.
#ifndef XQMFT_SERVICE_JSON_H_
#define XQMFT_SERVICE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace xqmft {

/// \brief One parsed JSON value (owning tree).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;  ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First field with this key, or null (objects only).
  const JsonValue* Find(std::string_view key) const;

  /// 2^53, the largest count a number field may carry (exact in a double,
  /// and in every integer type a count is cast to).
  static constexpr double kMaxCount = 9007199254740992.0;
};

/// Parses exactly one JSON value spanning all of `text` (surrounding
/// whitespace allowed; trailing garbage is an error).
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `s` as a quoted JSON string (escaping controls, quotes,
/// backslashes) to `out`.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace xqmft

#endif  // XQMFT_SERVICE_JSON_H_
