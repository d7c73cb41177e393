#include "sim/json_reader.h"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace dresar {

namespace {
[[noreturn]] void kindError(const char* want, JsonValue::Kind got) {
  static const char* names[] = {"null", "bool", "number", "string", "array", "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           names[static_cast<int>(got)]);
}
}  // namespace

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) kindError("bool", kind_);
  return bool_;
}
double JsonValue::asNumber() const {
  if (kind_ != Kind::Number) kindError("number", kind_);
  return num_;
}
const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) kindError("string", kind_);
  return str_;
}
const std::vector<JsonValue>& JsonValue::asArray() const {
  if (kind_ != Kind::Array) kindError("array", kind_);
  return arr_;
}
const std::vector<std::pair<std::string, JsonValue>>& JsonValue::asObject() const {
  if (kind_ != Kind::Object) kindError("object", kind_);
  return obj_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  return *v;
}

/// Recursive-descent parser over a string_view. Depth-limited so a hostile
/// document cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " + std::to_string(pos_));
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parseValue(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skipWs();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"':
        v.kind_ = JsonValue::Kind::String;
        v.str_ = parseString();
        return v;
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        v.kind_ = JsonValue::Kind::Bool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return v;
      default: return parseNumber();
    }
  }

  JsonValue parseObject(int depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::Object;
    expect('{');
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      v.obj_.emplace_back(std::move(key), parseValue(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parseArray(int depth) {
    JsonValue v;
    v.kind_ = JsonValue::Kind::Array;
    expect('[');
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr_.push_back(parseValue(depth + 1));
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (our writer only escapes
          // control characters, so surrogate pairs do not occur).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || ptr != text_.data() + pos_) fail("malformed number");
    JsonValue v;
    v.kind_ = JsonValue::Kind::Number;
    v.num_ = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) { return JsonParser(text).run(); }

}  // namespace dresar
