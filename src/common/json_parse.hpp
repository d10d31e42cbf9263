// Minimal recursive-descent JSON parser — the reading counterpart of
// common/json.hpp's JsonWriter, used by the tests to golden-parse the
// --json reports, sweep documents and Perfetto traces the simulator
// writes. Parses a complete document into a small DOM and rejects
// trailing garbage. Numbers keep their raw token alongside the strtod
// double, so integer fields above 2^53 (e.g. 64-bit counters) can be
// re-read exactly with as_u64().
//
// Deliberately small: JSON-standard escapes only (\uXXXX keeps the low
// byte — every document the simulator writes is ASCII), no streaming,
// no comments.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace virec {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string number_raw;  // exact token, for as_u64/as_i64
  std::string string;
  std::vector<JsonValue> array;
  // Insertion order preserved; duplicate keys rejected at parse time.
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Member lookup; throws JsonParseError when absent.
  const JsonValue& at(const std::string& key) const;

  /// Exact integer re-parse of a number token; throws JsonParseError if
  /// this is not a number or does not parse as the requested type.
  u64 as_u64() const;
  i64 as_i64() const;
};

class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Parse a full document; throws JsonParseError on any syntax error,
/// including trailing non-whitespace.
JsonValue json_parse(const std::string& text);

}  // namespace virec
