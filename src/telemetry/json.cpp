#include "telemetry/json.hpp"

#include <cmath>
#include <utility>

#include "util/json_value.hpp"

namespace eus {

namespace {

/// Appends `text` escaped for use inside a JSON string literal (no quotes
/// added): the quote, the backslash and the control bytes below 0x20.
/// Bytes that need no escape are copied in runs between escapes.
void append_json_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr std::string_view kHex = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4U],
                               kHex[c & 0xFU]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

}  // namespace

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char digits[32];
  const auto [ptr, ec] = std::to_chars(digits, digits + sizeof digits, value);
  if (ec != std::errc()) {
    out += "null";
    return;
  }
  out.append(digits, ptr);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

std::string json_number(double value) {
  std::string out;
  append_json_number(out, value);
  return out;
}

namespace {

void append_json_text(std::string& out, const util::JsonValue& value) {
  using Kind = util::JsonValue::Kind;
  switch (value.kind) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += value.boolean ? "true" : "false";
      return;
    case Kind::kNumber:
      append_json_number(out, value.number);
      return;
    case Kind::kString:
      out += '"';
      append_json_escaped(out, value.string);
      out += '"';
      return;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const util::JsonValue& element : value.array) {
        if (!first) out += ',';
        first = false;
        append_json_text(out, element);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) out += ',';
        first = false;
        out += '"';
        append_json_escaped(out, key);
        out += "\":";
        append_json_text(out, member);
      }
      out += '}';
      return;
    }
  }
  out += "null";
}

}  // namespace

std::string json_text(const util::JsonValue& value) {
  std::string out;
  append_json_text(out, value);
  return out;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ',';
  body_ += '"';
  append_json_escaped(body_, k);
  body_ += "\":";
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  append_json_escaped(body_, value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  append_json_number(body_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t value) {
  key(k);
  append_json_integer(body_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t value) {
  key(k);
  append_json_integer(body_, value);
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

std::string JsonObject::str() const& { return body_ + '}'; }

std::string JsonObject::str() && {
  body_ += '}';
  return std::move(body_);
}

}  // namespace eus
