// Tests for the streaming JSON writer and the run records it serializes into
// the sweep result document: document shape, string escaping, non-finite
// handling, misuse detection, and the optional per-run blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "harness/aggregate.h"
#include "sim/json_writer.h"
#include "sim/run_recorder.h"

namespace dresar {
namespace {

std::string emit(const std::function<void(JsonWriter&)>& body) {
  std::ostringstream os;
  JsonWriter w(os);
  body(w);
  EXPECT_TRUE(w.done());
  return os.str();
}

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(emit([](JsonWriter& w) {
              w.beginObject();
              w.endObject();
            }),
            "{}");
  EXPECT_EQ(emit([](JsonWriter& w) {
              w.beginArray();
              w.endArray();
            }),
            "[]");
}

TEST(JsonWriter, ObjectFieldsAndCommas) {
  const std::string out = emit([](JsonWriter& w) {
    w.beginObject();
    w.field("a", 1);
    w.field("b", std::string_view("x"));
    w.field("c", true);
    w.endObject();
  });
  EXPECT_EQ(out, "{\"a\":1,\"b\":\"x\",\"c\":true}");
}

TEST(JsonWriter, NestedStructures) {
  const std::string out = emit([](JsonWriter& w) {
    w.beginObject();
    w.key("runs");
    w.beginArray();
    w.beginObject();
    w.field("n", std::uint64_t{7});
    w.endObject();
    w.value(2);
    w.endArray();
    w.endObject();
  });
  EXPECT_EQ(out, "{\"runs\":[{\"n\":7},2]}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  const std::string out = emit([](JsonWriter& w) {
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.endArray();
  });
  EXPECT_EQ(out, "[null,null,1.5]");
}

TEST(JsonWriter, MisuseThrows) {
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key outside object
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("k");
    EXPECT_THROW(w.endObject(), std::logic_error);  // dangling key
  }
}

/// The sweep result document over `rec`'s runs, wall-clock fields included.
std::string sweepDoc(const RunRecorder& rec) {
  return harness::sweepToJson(rec, harness::aggregate(rec.runs()), {});
}

TEST(RunRecorder, EmitsLatencyStagesWhenTraced) {
  RunRecorder rec;
  RunRecord r;
  r.app = "SOR";
  r.config = "sd-512";
  r.kind = "scientific";
  r.hasTrace = true;
  r.traceReadTxns = 10;
  r.traceReadEndToEnd = 1500.0;
  r.traceReadStage[static_cast<std::size_t>(TxnStage::RequestNet)] = 600.0;
  r.traceReadStage[static_cast<std::size_t>(TxnStage::HomeDir)] = 900.0;
  rec.add(r);
  RunRecord untraced;  // no tracer ran: no latency_stages block
  untraced.app = "SOR";
  untraced.config = "base";
  untraced.kind = "scientific";
  rec.add(untraced);

  const std::string json = sweepDoc(rec);
  const std::size_t first = json.find("\"latency_stages\":{\"read\":{");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("\"latency_stages\"", first + 1), std::string::npos);
  EXPECT_NE(json.find("\"txns\":10"), std::string::npos);
  EXPECT_NE(json.find("\"end_to_end_cycles\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"request_net\":600"), std::string::npos);
  EXPECT_NE(json.find("\"home_dir\":900"), std::string::npos);
  EXPECT_NE(json.find("\"write\":{"), std::string::npos);
  EXPECT_NE(json.find("\"backoff\":0"), std::string::npos);
}

TEST(RunRecorder, TotalsAggregateAcrossRuns) {
  RunRecorder rec;
  for (int i = 0; i < 3; ++i) {
    RunRecord r;
    r.app = "app" + std::to_string(i);
    r.config = "base";
    r.kind = "trace";
    r.wallSeconds = 0.5;
    r.events = 100;
    rec.add(r);
  }
  const std::string json = sweepDoc(rec);
  EXPECT_NE(json.find("\"wall_seconds_total\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"events\":100"), std::string::npos);
  EXPECT_EQ(rec.runs().size(), 3u);
}

TEST(RunRecorder, BalancedDocument) {
  // Structural sanity without a parser: every brace/bracket closes, and the
  // document never dips below depth zero.
  RunRecorder rec;
  RunRecord r;
  r.app = "a \"quoted\" name";  // must be escaped, not break the document
  r.config = "base";
  r.kind = "trace";
  rec.add(r);
  const std::string json = sweepDoc(rec);

  int depth = 0;
  bool inString = false;
  bool escaped = false;
  for (const char ch : json) {
    if (inString) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        inString = false;
      }
      continue;
    }
    if (ch == '"') {
      inString = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(inString);
  EXPECT_NE(json.find("a \\\"quoted\\\" name"), std::string::npos);
}

}  // namespace
}  // namespace dresar
