#include "json_parse.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace virec {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw JsonParseError("missing key: " + key);
  return *v;
}

u64 JsonValue::as_u64() const {
  if (!is_number()) throw JsonParseError("not a number");
  errno = 0;
  char* end = nullptr;
  const u64 out = std::strtoull(number_raw.c_str(), &end, 10);
  if (number_raw.empty() || end != number_raw.c_str() + number_raw.size() ||
      errno == ERANGE || number_raw[0] == '-') {
    throw JsonParseError("not a u64: " + number_raw);
  }
  return out;
}

i64 JsonValue::as_i64() const {
  if (!is_number()) throw JsonParseError("not a number");
  errno = 0;
  char* end = nullptr;
  const i64 out = std::strtoll(number_raw.c_str(), &end, 10);
  if (number_raw.empty() || end != number_raw.c_str() + number_raw.size() ||
      errno == ERANGE) {
    throw JsonParseError("not an i64: " + number_raw);
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("json error at offset " + std::to_string(pos_) +
                         ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (v.find(key) != nullptr) fail("duplicate key " + key);
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            // Every document the simulator writes is ASCII; keep the
            // low byte of the unit.
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number " + token);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    v.number_raw = token;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace virec
