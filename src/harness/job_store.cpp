#include "harness/job_store.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/json_reader.h"
#include "sim/json_writer.h"

namespace dresar::harness {

std::string jobKeyOf(const JobSpec& job) {
  return std::string(kindName(job.kind)) + "|" + job.displayApp() + "|" + job.configTag() + "|" +
         std::to_string(job.seed);
}

JobStore::~JobStore() {
  if (out_ != nullptr) std::fclose(out_);
}

bool JobStore::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) std::fclose(out_);
  out_ = std::fopen(path.c_str(), "wb");
  return out_ != nullptr;
}

void JobStore::append(const StoredJob& job) {
  const std::string line = serializeLine(job) + "\n";
  const std::lock_guard<std::mutex> lock(mu_);
  if (out_ == nullptr) return;
  // One whole line per write, flushed immediately: a kill between jobs loses
  // nothing, a kill mid-write leaves at most one torn final line, which the
  // loader ignores.
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fflush(out_);
}

std::string JobStore::serializeLine(const StoredJob& job) {
  std::ostringstream os;
  JsonWriter w(os, /*roundTripDoubles=*/true);
  w.beginObject();
  w.field("key", job.key);
  w.field("ok", job.ok);
  if (!job.ok) {
    w.field("error", job.error);
    w.endObject();
    return os.str();
  }
  w.field("schema", job.stamp.schema);
  w.field("scale", job.stamp.scale);
  w.field("trace_refs", job.stamp.traceRefs);
  w.key("record");
  writeRunRecord(w, job.record, RecordForm::StoreLine);
  w.endObject();
  return os.str();
}

namespace {

std::uint64_t asU64(const JsonValue& v) {
  return static_cast<std::uint64_t>(v.asNumber());
}

/// The record's own fields; every other member is a block.
constexpr std::array<std::string_view, 8> kHeadline = {
    "app", "config", "kind", "sd_entries", "seed", "wall_seconds", "events", "metrics"};

/// The job a parsed store line holds; throws on a missing field or an
/// unknown block.
StoredJob storedJobOf(const JsonValue& doc) {
  StoredJob j;
  j.key = doc.at("key").asString();
  j.ok = doc.at("ok").asBool();
  if (!j.ok) {
    if (const JsonValue* e = doc.find("error")) j.error = e->asString();
    return j;
  }
  if (const JsonValue* v = doc.find("schema")) j.stamp.schema = v->asString();
  if (const JsonValue* v = doc.find("scale")) j.stamp.scale = v->asString();
  if (const JsonValue* v = doc.find("trace_refs")) j.stamp.traceRefs = asU64(*v);
  const JsonValue& rec = doc.at("record");
  RunRecord& r = j.record;
  r.app = rec.at("app").asString();
  r.config = rec.at("config").asString();
  r.kind = rec.at("kind").asString();
  r.sdEntries = asU64(rec.at("sd_entries"));
  r.seed = asU64(rec.at("seed"));
  r.wallSeconds = rec.at("wall_seconds").asNumber();
  r.events = asU64(rec.at("events"));
  for (const auto& [k, v] : rec.at("metrics").asObject()) r.metric(k, v.asNumber());
  for (const auto& [name, v] : rec.asObject()) {
    if (std::find(kHeadline.begin(), kHeadline.end(), name) != kHeadline.end()) continue;
    if (!isRecordBlock(name)) {
      throw std::runtime_error("job store: unknown record block '" + name + "'");
    }
    r.blocks.emplace_back(name, v);
  }
  return j;
}

}  // namespace

StoredJob JobStore::parseLine(const std::string& line) {
  return storedJobOf(JsonValue::parse(line));
}

std::vector<StoredJob> JobStore::loadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("job store: cannot read '" + path + "'");
  const auto fail = [&path](std::size_t lineNo, const std::string& why) {
    return std::runtime_error("job store '" + path + "' line " + std::to_string(lineNo) +
                              ": " + why);
  };
  std::vector<StoredJob> out;
  std::string line;
  std::string torn;  // a line that is not JSON: a torn write if nothing follows
  std::size_t tornLineNo = 0;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    if (!torn.empty()) throw fail(tornLineNo, torn);
    JsonValue doc;
    try {
      doc = JsonValue::parse(line);
    } catch (const std::exception& e) {
      torn = e.what();
      tornLineNo = lineNo;
      continue;
    }
    try {
      out.push_back(storedJobOf(doc));
    } catch (const std::exception& e) {
      throw fail(lineNo, e.what());
    }
  }
  return out;
}

}  // namespace dresar::harness
