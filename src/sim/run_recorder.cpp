#include "sim/run_recorder.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "sim/json_writer.h"

namespace dresar {

void RunRecord::addBlock(std::string name, const std::function<void(JsonWriter&)>& write) {
  std::ostringstream os;
  JsonWriter w(os, /*roundTripDoubles=*/true);
  write(w);
  blocks.emplace_back(std::move(name), JsonValue::parse(os.str()));
}

double RunRecord::value(std::string_view name) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return 0.0;
}

const JsonValue* RunRecord::block(std::string_view name) const {
  for (const auto& [n, v] : blocks) {
    if (n == name) return &v;
  }
  return nullptr;
}

bool isRecordBlock(std::string_view name) {
  constexpr std::array<std::string_view, 4> kNames = {"fault", "traffic", "congestion",
                                                      "latency_stages"};
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

void writeRunRecord(JsonWriter& w, const RunRecord& r, RecordForm form) {
  const bool store = form == RecordForm::StoreLine;
  w.beginObject();
  w.field("app", r.app);
  w.field("config", r.config);
  w.field("kind", r.kind);
  w.field("sd_entries", r.sdEntries);
  if (store || r.seed != 0) w.field("seed", r.seed);
  if (form != RecordForm::DeterministicDocument) w.field("wall_seconds", r.wallSeconds);
  w.field("events", r.events);
  w.key("metrics");
  w.beginObject();
  for (const auto& [k, v] : r.metrics) w.field(k, v);
  w.endObject();
  for (const auto& [name, v] : r.blocks) {
    w.key(name);
    w.value(v);
  }
  w.endObject();
}

}  // namespace dresar
