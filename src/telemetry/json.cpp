#include "telemetry/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/json_value.hpp"

namespace eus {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::array<char, 32> buf{};
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), value);
  if (ec != std::errc()) return "null";
  return std::string(buf.data(), ptr);
}

std::string json_text(const util::JsonValue& value) {
  using Kind = util::JsonValue::Kind;
  switch (value.kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return value.boolean ? "true" : "false";
    case Kind::kNumber:
      return json_number(value.number);
    case Kind::kString:
      return '"' + json_escape(value.string) + '"';
    case Kind::kArray: {
      std::string out = "[";
      for (const util::JsonValue& element : value.array) {
        if (out.size() > 1) out += ',';
        out += json_text(element);
      }
      return out + ']';
    }
    case Kind::kObject: {
      std::string out = "{";
      for (const auto& [key, member] : value.object) {
        if (out.size() > 1) out += ',';
        out += '"' + json_escape(key) + "\":" + json_text(member);
      }
      return out + '}';
    }
  }
  return "null";
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json_value) {
  key(k);
  body_ += json_value;
  return *this;
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

}  // namespace eus
