#include "sim/json_reader.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/json_writer.h"

namespace dresar {
namespace {

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").isNull());
  EXPECT_TRUE(JsonValue::parse("true").asBool());
  EXPECT_FALSE(JsonValue::parse("false").asBool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").asNumber(), -350.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").asString(), "hi");
}

TEST(JsonReader, ParsesStringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d\n\t")").asString(), "a\"b\\c/d\n\t");
  // A = 'A'; two-byte and three-byte UTF-8 encodings.
  EXPECT_EQ(JsonValue::parse(R"("A")").asString(), "A");
  EXPECT_EQ(JsonValue::parse(R"("é")").asString(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse(R"("€")").asString(), "\xe2\x82\xac");
}

TEST(JsonReader, ParsesNestedStructure) {
  const JsonValue v = JsonValue::parse(R"({"a": [1, 2, {"b": true}], "c": {"d": null}})");
  ASSERT_TRUE(v.isObject());
  const auto& a = v.at("a").asArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].asNumber(), 2.0);
  EXPECT_TRUE(a[2].at("b").asBool());
  EXPECT_TRUE(v.at("c").at("d").isNull());
}

TEST(JsonReader, ObjectOrderPreservedAndFind) {
  const JsonValue v = JsonValue::parse(R"({"z": 1, "a": 2})");
  EXPECT_EQ(v.asObject()[0].first, "z");
  EXPECT_EQ(v.asObject()[1].first, "a");
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
}

TEST(JsonReader, KindMismatchThrows) {
  const JsonValue v = JsonValue::parse("[1]");
  EXPECT_THROW((void)v.asObject(), std::runtime_error);
  EXPECT_THROW((void)v.asNumber(), std::runtime_error);
  EXPECT_THROW((void)v.asString(), std::runtime_error);
  EXPECT_THROW((void)v.asBool(), std::runtime_error);
  EXPECT_EQ(v.find("x"), nullptr);  // non-object find is a safe nullptr
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("1 2"), std::runtime_error);  // trailing garbage
  EXPECT_THROW((void)JsonValue::parse(R"("\q")"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"("\u12g4")"), std::runtime_error);
}

TEST(JsonReader, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW((void)JsonValue::parse(deep), std::runtime_error);
}

TEST(JsonReader, ErrorsCarryByteOffset) {
  try {
    (void)JsonValue::parse("[1, x]");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(JsonReader, RoundTripsWriterOutput) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.field("name", "bench \"quoted\" \\ path");
  w.field("count", std::uint64_t{123456789});
  w.field("ratio", 0.125);
  w.key("values");
  w.beginArray();
  for (int i = 0; i < 3; ++i) w.value(static_cast<double>(i) * 1.5);
  w.endArray();
  w.endObject();

  const JsonValue v = JsonValue::parse(os.str());
  EXPECT_EQ(v.at("name").asString(), "bench \"quoted\" \\ path");
  EXPECT_DOUBLE_EQ(v.at("count").asNumber(), 123456789.0);
  EXPECT_DOUBLE_EQ(v.at("ratio").asNumber(), 0.125);
  EXPECT_DOUBLE_EQ(v.at("values").asArray()[2].asNumber(), 3.0);
}

}  // namespace
}  // namespace dresar
