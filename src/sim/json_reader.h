// Minimal JSON parser — the read-side counterpart of json_writer.h. Parses
// the job-store lines and record blocks this repo writes (RFC 8259 subset: no
// surrogate-pair decoding beyond verbatim \uXXXX copy-through) into an
// immutable value tree. Numbers are held as double, which is exact for the
// integer counters we serialize (they stay below 2^53). No external
// dependencies, same as the writer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dresar {

/// Immutable parsed JSON value. Object members preserve document order and
/// are looked up linearly — documents here are small (tens of keys).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool isNumber() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isArray() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::runtime_error on kind mismatch so a malformed
  /// job-store line or record block fails with a message instead of UB.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& asArray() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// find() that throws with the key name when the member is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Parse one complete document (trailing whitespace allowed, trailing
  /// garbage rejected). Throws std::runtime_error with a byte offset on
  /// malformed input.
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace dresar
