// Minimal streaming JSON writer for bench result files. No external
// dependencies; emits a compact, valid document (RFC 8259) with string
// escaping and finite-number handling (NaN/inf become null, since JSON has
// no encoding for them).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dresar {

class JsonValue;

/// Streaming JSON emitter. The caller drives structure with beginObject /
/// beginArray / end*; the writer tracks nesting and inserts commas. Keys are
/// only legal inside objects, bare values only inside arrays (or as the
/// root). Misuse throws std::logic_error, so tests can assert on shape.
class JsonWriter {
 public:
  /// Doubles go out at %.12g, the documented result-document format. With
  /// `roundTripDoubles` they go out at %.17g, so strtod() of the text
  /// recovers the exact bit pattern: internal persistence (the sweep job
  /// store) uses this so a re-serialized value is byte-identical to the
  /// original document's.
  explicit JsonWriter(std::ostream& out, bool roundTripDoubles = false)
      : out_(out), roundTripDoubles_(roundTripDoubles) {}

  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Emit `"key":` — must be inside an object and followed by a value.
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b);
  void value(double d);
  void value(std::uint64_t u);
  void value(std::int64_t i);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(unsigned u) { value(static_cast<std::uint64_t>(u)); }
  /// A parsed value, recursively. Integral numbers up to 2^53 go out as
  /// integers, so a counter read back from a document prints as it was
  /// written; every other number goes out at this writer's precision.
  void value(const JsonValue& v);

  /// key(k) + value(v) in one call.
  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// True once the root value is complete and all scopes are closed.
  [[nodiscard]] bool done() const { return rootDone_ && stack_.empty(); }

  static std::string escape(std::string_view s);

 private:
  enum class Scope : std::uint8_t { Object, Array };
  struct Level {
    Scope scope;
    bool first = true;     ///< no element written yet at this level
    bool keyOpen = false;  ///< a key was written, value pending (objects)
  };

  void beforeValue();  ///< comma/placement bookkeeping shared by all values
  void afterValue();

  std::ostream& out_;
  bool roundTripDoubles_;
  std::vector<Level> stack_;
  bool rootDone_ = false;
};

}  // namespace dresar
