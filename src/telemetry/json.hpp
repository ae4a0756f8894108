#pragma once

// Minimal JSON emission for the telemetry layer: enough to write flat run
// records as JSON Lines, plus json_text to write a parsed util::JsonValue
// back out.  Numbers round-trip (shortest round-trip decimal); non-finite
// doubles degrade to null per RFC 8259.
//
// Every writer appends in place: JsonObject and json_text escape strings
// and format numbers (std::to_chars) straight into one string, and
// append_json_number / append_json_integer do the same for callers that
// write their own arrays, so an answer of many numbers grows one buffer
// instead of building a string per value.  json_escape and json_number
// return the same bytes as a new string.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace eus {

namespace util {
class JsonValue;
}  // namespace util

/// Appends the shortest round-trip decimal for a double; "null" for
/// NaN/infinity.
void append_json_number(std::string& out, double value);

/// Appends an integer's decimal digits.
template <std::integral T>
void append_json_integer(std::string& out, T value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

/// Escapes `text` for use inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Shortest round-trip decimal for a double; "null" for NaN/infinity.
[[nodiscard]] std::string json_number(double value);

/// The JSON text of a parsed value, objects in key order.  Parsing it back
/// gives an equal value (a non-finite number comes back as null).
[[nodiscard]] std::string json_text(const util::JsonValue& value);

/// Incremental builder for one flat JSON object: {"k":v,...}.  Values are
/// escaped/formatted; raw() splices a pre-rendered JSON value (for nested
/// arrays/objects).
class JsonObject {
 public:
  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const char* value);
  JsonObject& field(std::string_view key, double value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, std::int64_t value);
  JsonObject& field(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, std::string_view json_value);

  /// The finished object, e.g. {"a":1,"b":"x"}.  The rvalue form hands
  /// over the body without copying it.
  [[nodiscard]] std::string str() const&;
  [[nodiscard]] std::string str() &&;

 private:
  void key(std::string_view k);
  std::string body_ = "{";  ///< the object without its closing brace
};

}  // namespace eus
