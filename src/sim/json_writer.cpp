#include "sim/json_writer.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dresar {

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::beforeValue() {
  if (rootDone_) throw std::logic_error("JsonWriter: value after document end");
  if (stack_.empty()) return;  // root value
  Level& top = stack_.back();
  if (top.scope == Scope::Object) {
    if (!top.keyOpen) throw std::logic_error("JsonWriter: value in object without key");
    top.keyOpen = false;
  } else {
    if (!top.first) out_ << ',';
    top.first = false;
  }
}

void JsonWriter::afterValue() {
  if (stack_.empty()) rootDone_ = true;
}

void JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back().scope != Scope::Object) {
    throw std::logic_error("JsonWriter: key outside object");
  }
  Level& top = stack_.back();
  if (top.keyOpen) throw std::logic_error("JsonWriter: key after key");
  if (!top.first) out_ << ',';
  top.first = false;
  top.keyOpen = true;
  out_ << '"' << escape(k) << "\":";
}

void JsonWriter::beginObject() {
  beforeValue();
  stack_.push_back({Scope::Object});
  out_ << '{';
}

void JsonWriter::endObject() {
  if (stack_.empty() || stack_.back().scope != Scope::Object || stack_.back().keyOpen) {
    throw std::logic_error("JsonWriter: endObject mismatch");
  }
  stack_.pop_back();
  out_ << '}';
  afterValue();
}

void JsonWriter::beginArray() {
  beforeValue();
  stack_.push_back({Scope::Array});
  out_ << '[';
}

void JsonWriter::endArray() {
  if (stack_.empty() || stack_.back().scope != Scope::Array) {
    throw std::logic_error("JsonWriter: endArray mismatch");
  }
  stack_.pop_back();
  out_ << ']';
  afterValue();
}

void JsonWriter::value(std::string_view s) {
  beforeValue();
  out_ << '"' << escape(s) << '"';
  afterValue();
}

void JsonWriter::value(bool b) {
  beforeValue();
  out_ << (b ? "true" : "false");
  afterValue();
}

void JsonWriter::value(double d) {
  beforeValue();
  if (!std::isfinite(d)) {
    out_ << "null";  // JSON cannot express NaN/inf
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, roundTripDoubles_ ? "%.17g" : "%.12g", d);
    out_ << buf;
  }
  afterValue();
}

void JsonWriter::value(std::uint64_t u) {
  beforeValue();
  out_ << u;
  afterValue();
}

void JsonWriter::value(std::int64_t i) {
  beforeValue();
  out_ << i;
  afterValue();
}

}  // namespace dresar
