// Host-time spans recorded by the benchmark around its calls into each
// simulator layer.
//
// Every span adds its *self* time (duration minus the time its child spans
// cover) to a per-round total keyed by span name, in traced and untraced
// rounds alike, so both run the same code. Only traced rounds also keep the
// span itself in memory; they are written out once, at exit, as Chrome
// trace_event JSON (loadable in Perfetto next to the simulator's own
// `--trace` output, which uses small pids; the benchmark's host spans use
// kHostPid).
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class SpanRecorder {
 public:
  static constexpr std::uint32_t kHostPid = 1000;

  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  /// Keep (write out) the spans of the following rounds or not.
  void setKeep(bool keep) { keep_ = keep; }
  /// The simulation cell that spans opened from now on belong to; spans of
  /// one cell share this identifier in the written trace.
  void setCell(std::int32_t cell) { cell_ = cell; }

  /// Self seconds per span name since the last takeRound().
  std::map<std::string, double> takeRound() { return std::exchange(round_, {}); }

  void writeChromeTrace(std::ostream& os) const {
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kHostPid
       << ",\"args\":{\"name\":\"perfbench host spans\"}}";
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Kept& k = kept_[i];
      os << ",\n{\"name\":\"" << k.name << "\",\"cat\":\"" << category(k.name)
         << "\",\"ph\":\"X\",\"pid\":" << kHostPid << ",\"tid\":1,\"ts\":" << k.startUs
         << ",\"dur\":" << k.durUs << ",\"args\":{\"id\":" << i << ",\"parent\":" << k.parent
         << ",\"cell\":" << k.cell << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

  /// RAII span: opens on construction, closes (even on unwind) on
  /// destruction. `name` must outlive the recorder (string literals).
  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name) : r_(r) { r_.open(name); }
    ~Scope() { r_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
  };

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double childSeconds = 0.0;
    std::int64_t keptIndex = -1;
  };
  struct Kept {
    const char* name;
    double startUs = 0.0;
    double durUs = 0.0;
    std::int64_t parent = -1;
    std::int32_t cell = -1;
  };

  static std::string category(const char* name) {
    const std::string s(name);
    return s.substr(0, s.find('.'));
  }

  void open(const char* name) {
    Frame f{name, Clock::now()};
    if (keep_) {
      f.keptIndex = static_cast<std::int64_t>(kept_.size());
      kept_.push_back({name, 1e6 * secondsBetween(origin_, f.start), 0.0,
                       stack_.empty() ? -1 : stack_.back().keptIndex, cell_});
    }
    stack_.push_back(f);
  }

  void close() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = secondsBetween(f.start, Clock::now());
    round_[f.name] += dur - f.childSeconds;
    if (!stack_.empty()) stack_.back().childSeconds += dur;
    if (f.keptIndex >= 0) kept_[static_cast<std::size_t>(f.keptIndex)].durUs = 1e6 * dur;
  }

  Clock::time_point origin_;
  bool keep_ = false;
  std::int32_t cell_ = -1;
  std::vector<Frame> stack_;
  std::vector<Kept> kept_;
  std::map<std::string, double> round_;
};

}  // namespace perfbench
