#pragma once

// Minimal JSON reader shared by the bench harness (bench/baselines.json,
// BENCH_results.json) and the serve protocol (length-prefixed request
// frames).  The telemetry layer only emits JSON; everything that needs to
// read it back comes through here.  Recursive descent over the full
// RFC 8259 grammar, tuned for clarity over throughput — these documents
// are kilobytes.

#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace eus::util {

/// Malformed input; `what()` carries a byte offset and a short reason.
class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value.  A tagged aggregate rather than a variant: the
/// documents are tiny, so the wasted members cost nothing and every
/// accessor stays trivial.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind == Kind::kArray;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  /// Member `key` as a number/string, or the fallback when absent or of
  /// the wrong kind.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
};

/// The one conversion from a JSON number to a count or index: an integer
/// in [min, 2^53], else nullopt (also for nullptr and non-numbers).  Above
/// 2^53 doubles no longer hold every integer, and from 2^64 on — infinity,
/// which an out-of-range literal such as 1e400 parses to, included — the
/// cast to std::size_t is undefined.
[[nodiscard]] std::optional<std::size_t> to_size(const JsonValue* v,
                                                 double min);

/// Parses one JSON document (trailing whitespace allowed, trailing content
/// rejected).  Throws JsonParseError on malformed input.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads and parses a whole file.  Throws std::runtime_error when the file
/// cannot be read, JsonParseError when it is not valid JSON.
[[nodiscard]] JsonValue parse_json_file(const std::string& path);

}  // namespace eus::util
