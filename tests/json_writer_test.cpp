// Tests for the streaming JSON writer and the run records it serializes into
// the sweep result document: document shape, string escaping, non-finite
// handling, misuse detection, re-emitting parsed values, and the optional
// per-run blocks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "harness/aggregate.h"
#include "harness/run_context.h"
#include "sim/json_reader.h"
#include "sim/json_writer.h"
#include "sim/run_recorder.h"
#include "sim/simulation.h"

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

/// `v` emitted by a writer at the document (%.12g) or store (%.17g)
/// precision.
std::string reemit(const JsonValue& v, bool roundTripDoubles) {
  std::ostringstream os;
  JsonWriter w(os, roundTripDoubles);
  w.value(v);
  EXPECT_TRUE(w.done());
  return os.str();
}

TEST(JsonWriter, ReemitsParsedValuesAtBothPrecisions) {
  // Written once at round-trip precision, parsed, then re-emitted: at %.17g
  // the bytes come back unchanged; at %.12g they equal a direct %.12g write.
  // Integral numbers up to 2^53 print as integers at both precisions.
  const auto body = [](JsonWriter& w) {
    w.beginObject();
    w.field("count", std::uint64_t{9007199254740992});  // 2^53
    w.field("zero", std::uint64_t{0});
    w.field("neg", -42);
    w.field("whole", 1500.0);
    w.field("third", 1.0 / 3.0);
    w.field("tenth", 0.1 + 0.2);
    w.field("tiny", 1e-300 / 3.0);
    w.field("big", 1e300 / 7.0);
    w.field("on", true);
    w.field("off", false);
    w.field("nan", std::numeric_limits<double>::quiet_NaN());
    w.field("name", std::string_view("a \"b\"\n"));
    w.key("empty");
    w.beginArray();
    w.endArray();
    w.key("rows");
    w.beginArray();
    w.beginObject();
    w.field("mean", 2.0 / 3.0);
    w.key("hist");
    w.beginArray();
    for (const std::uint64_t v : {1, 0, 2}) w.value(v);
    w.endArray();
    w.key("inner");
    w.beginObject();
    w.endObject();
    w.endObject();
    w.value(std::uint64_t{7});
    w.endArray();
    w.endObject();
  };
  for (const bool roundTrip : {false, true}) {
    std::ostringstream direct;
    JsonWriter w(direct, roundTrip);
    body(w);
    std::ostringstream store;
    JsonWriter ws(store, /*roundTripDoubles=*/true);
    body(ws);
    EXPECT_EQ(reemit(JsonValue::parse(store.str()), roundTrip), direct.str()) << roundTrip;
  }
  const std::string text = reemit(JsonValue::parse(R"({"a":[null,true,4.0,-0.5]})"), false);
  EXPECT_EQ(text, R"({"a":[null,true,4,-0.5]})");
}

/// The sweep result document over `runs`, wall-clock fields included.
std::string sweepDoc(const std::vector<RunRecord>& runs) {
  return harness::sweepToJson(runs, harness::aggregate(runs), {});
}

TEST(RunRecorder, EmitsLatencyStagesWhenTraced) {
  // A traced run's producer writes the block; an untraced one writes none.
  harness::JobSpec job;
  job.app = "sor";
  job.sdEntries = 512;
  job.scale = WorkloadScale::tiny();
  job.traceTxns = true;
  harness::JobSpec untraced = job;
  untraced.sdEntries = 0;
  untraced.traceTxns = false;
  const std::vector<harness::JobResult> results = harness::runJobs({job, untraced}, 1);
  ASSERT_TRUE(results[0].ok && results[1].ok);
  // The same traced run, straight from the simulator: the block must hold
  // its numbers.
  Simulation sim(harness::systemConfigOf(job));
  const RunMetrics m = sim.run({.workload = job.app, .scale = job.scale});
  ASSERT_GT(m.traceReadTxns, 0u);
  EXPECT_EQ(results[1].record.block("latency_stages"), nullptr);

  const std::string json = sweepDoc(harness::canonicalRecords(results));
  const std::size_t first = json.find("\"latency_stages\":{\"read\":{");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json.find("\"latency_stages\"", first + 1), std::string::npos);
  const JsonValue& stages = *results[0].record.block("latency_stages");
  const JsonValue& read = stages.at("read");
  EXPECT_EQ(read.at("txns").asNumber(), static_cast<double>(m.traceReadTxns));
  EXPECT_EQ(read.at("end_to_end_cycles").asNumber(), m.traceReadEndToEnd);
  ASSERT_EQ(read.at("stages").asObject().size(), kTxnStageCount);
  for (std::size_t s = 0; s < kTxnStageCount; ++s) {
    const char* name = toString(static_cast<TxnStage>(s));
    EXPECT_EQ(read.at("stages").at(name).asNumber(), m.traceReadStage[s]) << name;
  }
  EXPECT_EQ(stages.at("write").at("txns").asNumber(), static_cast<double>(m.traceWriteTxns));
}

TEST(RunRecorder, TotalsAggregateAcrossRuns) {
  std::vector<RunRecord> rec;
  for (int i = 0; i < 3; ++i) {
    RunRecord r;
    r.app = "app" + std::to_string(i);
    r.config = "base";
    r.kind = "trace";
    r.wallSeconds = 0.5;
    r.events = 100;
    rec.push_back(r);
  }
  const std::string json = sweepDoc(rec);
  EXPECT_NE(json.find("\"wall_seconds_total\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"events\":100"), std::string::npos);
}

TEST(RunRecorder, BalancedDocument) {
  // Structural sanity without a parser: every brace/bracket closes, and the
  // document never dips below depth zero.
  RunRecord r;
  r.app = "a \"quoted\" name";  // must be escaped, not break the document
  r.config = "base";
  r.kind = "trace";
  const std::string json = sweepDoc({r});

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
