#include "harness/sweep_spec.h"

#include "harness/run_context.h"
#include "interconnect/routing.h"
#include "switchdir/sd_policy.h"
#include "traffic/traffic_model.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>

namespace dresar::harness {

namespace {

using Options = std::vector<std::pair<std::string, std::string>>;

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> splitList(const std::string& v) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= v.size()) {
    std::size_t comma = v.find(',', pos);
    if (comma == std::string::npos) comma = v.size();
    out.push_back(trim(v.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

/// Where a spec value came from, for "<source>:<line>: ..." errors.
struct Where {
  const std::string& source;
  int line;
};

[[noreturn]] void fail(const Where& at, const std::string& why) {
  throw std::runtime_error(at.source + ":" + std::to_string(at.line) + ": " + why);
}

std::uint64_t parseUnsigned(const Where& at, const std::string& s, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (s.empty() || ec != std::errc() || ptr != last || v > max) {
    fail(at, "expected an unsigned integer, got '" + s + "'");
  }
  return v;
}

double parseNumber(const Where& at, const std::string& s) {
  if (s.empty()) fail(at, "empty value in list");
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) fail(at, "expected a number, got '" + s + "'");
  return x;
}

// --------------------------------------------------------------- cells --
// One list item -> one typed axis cell, throwing with the spec's source:line.

std::uint32_t anyCount(const Where& at, const std::string& s) {
  return static_cast<std::uint32_t>(parseUnsigned(at, s, UINT32_MAX));
}

std::uint32_t positiveCount(const Where& at, const std::string& s) {
  const std::uint32_t x = anyCount(at, s);
  if (x == 0) fail(at, "value must be positive: '" + s + "'");
  return x;
}

/// A system size the BMIN can be built for (its depth is derived per size).
std::uint32_t nodeCount(const Where& at, const std::string& s) {
  SystemConfig probe;
  probe.numNodes = positiveCount(at, s);
  const std::vector<std::string> errs = probe.validationErrors();
  if (!errs.empty()) fail(at, "unsupported nodes value " + s + ": " + errs.front());
  return probe.numNodes;
}

/// An on/off cell: 0 or 1.
std::uint32_t switchCell(const Where& at, const std::string& s) {
  const std::uint32_t x = anyCount(at, s);
  if (x > 1) fail(at, "expected 0 or 1, got '" + s + "'");
  return x;
}

/// A probability in [0, 1].
double rate(const Where& at, const std::string& s) {
  const double x = parseNumber(at, s);
  if (!(x >= 0.0 && x <= 1.0)) fail(at, "rate must be in [0, 1], got '" + s + "'");
  return x;
}

double nonNegative(const Where& at, const std::string& s) {
  const double x = parseNumber(at, s);
  if (!(x >= 0.0)) fail(at, "value must be >= 0, got '" + s + "'");
  return x;
}

double positive(const Where& at, const std::string& s) {
  const double x = parseNumber(at, s);
  if (!(x > 0.0)) fail(at, "value must be > 0, got '" + s + "'");
  return x;
}

std::string routingCell(const Where& at, const std::string& s) {
  if (!isRoutingPolicy(s)) {
    fail(at, "unknown routing policy '" + s + "' (valid: " + routingPolicyList() + ")");
  }
  return s;
}

std::string mixCell(const Where& at, const std::string& s) {
  if (!isTrafficMix(s)) fail(at, "unknown mix '" + s + "' (valid: readmostly, writeheavy)");
  return s;
}

/// One sd_policy cell: "repl-arb" or a bare replacement name (which keeps the
/// default fifo arbitration). Both halves are validated against the policy
/// registries so a typo'd cell dies at parse time with the valid names.
SdPolicyChoice policyCell(const Where& at, const std::string& item) {
  SdPolicyChoice c;
  const std::size_t dash = item.find('-');
  if (dash == std::string::npos) {
    c.replacement = item;
  } else {
    c.replacement = item.substr(0, dash);
    c.arbitration = item.substr(dash + 1);
  }
  if (!isSdReplacementPolicy(c.replacement)) {
    fail(at, "unknown replacement policy '" + c.replacement + "' in sd_policy '" + item +
                 "' (valid: " + sdReplacementPolicyList() + ")");
  }
  if (!isSdArbitrationPolicy(c.arbitration)) {
    fail(at, "unknown arbitration policy '" + c.arbitration + "' in sd_policy '" + item +
                 "' (valid: " + sdArbitrationPolicyList() + ")");
  }
  return c;
}

/// A cell as the document's options spell it.
std::string cellText(std::uint32_t v) { return std::to_string(v); }
std::string cellText(double v) { return JobSpec::rateTag(v); }
std::string cellText(const std::string& v) { return v; }
std::string cellText(const SdPolicyChoice& v) { return v.label(); }
std::string cellText(bool v) { return v ? "1" : "0"; }

// --------------------------------------------------------------- axes --

/// The workloads an axis applies to. An axis off its default on any other
/// workload would be silently ignored, so parse() rejects the spec.
struct Scope {
  const char* name;
  bool (*covers)(const std::string& workload);  ///< nullptr = every workload
};

constexpr Scope kAnyWorkload{"any workload", nullptr};
constexpr Scope kExecutionDriven{
    "execution-driven workloads",
    [](const std::string& w) { return workloadKind(w) == JobKind::Scientific; }};
constexpr Scope kTrafficModels{"traffic workloads (oltp/kv)",
                               [](const std::string& w) { return isTrafficWorkload(w); }};
constexpr Scope kCongestionProfiles{
    "the hotspot/incast congestion profiles",
    [](const std::string& w) { return w == "hotspot" || w == "incast"; }};

/// How a job whose field is off the JobSpec default marks its config tag.
struct Suffix {
  const char* text = "";       ///< "-a": the job's value follows, unless bare
  bool bare = false;           ///< "-wh", "-flit": the text alone
  bool switchDirOnly = false;  ///< dropped on "base" configs
};

struct Axis;
using RecordFn = void (*)(const Axis&, const SweepSpec&, Options&);

/// One sweep axis, declared once. Its cells live in a SweepSpec vector, from
/// which parse/size/offDefault/csv are generated; apply and tag are generated
/// from the JobSpec field a cell lands in, or written by hand.
struct Axis {
  const char* key;     ///< spec key, also the document-option key
  const Scope* scope;  ///< workloads the axis applies to
  RecordFn record;     ///< document-options rule; nullptr = never recorded
  Suffix suffix;
  void (*parse)(SweepSpec&, const Where&, const std::string& value);
  std::size_t (*size)(const SweepSpec&);
  bool (*offDefault)(const SweepSpec&);
  std::string (*csv)(const SweepSpec&);  ///< the cells, comma-joined
  void (*apply)(const SweepSpec&, std::size_t cell, JobSpec&);
  /// Append the job's suffix; nothing when the job sits on the axis default.
  void (*tag)(const Axis&, const JobSpec&, std::string&);
};

template <auto Cells>
std::size_t sizeOf(const SweepSpec& s) {
  return (s.*Cells).size();
}

template <auto Cells>
bool differsFromDefault(const SweepSpec& s) {
  static const SweepSpec kDefault;
  return s.*Cells != kDefault.*Cells;
}

template <auto Cells>
std::string csvOf(const SweepSpec& s) {
  std::string out;
  for (const auto& v : s.*Cells) {
    if (!out.empty()) out += ',';
    out += cellText(v);
  }
  return out;
}

template <auto Cells, auto Cell>
void parseInto(SweepSpec& s, const Where& at, const std::string& value) {
  auto& cells = s.*Cells;
  cells.clear();
  for (const std::string& item : splitList(value)) {
    auto c = Cell(at, item);
    // A repeated cell would repeat its config tag, and tags key the store.
    if (std::find(cells.begin(), cells.end(), c) != cells.end()) {
      fail(at, "duplicate cell '" + cellText(c) + "'");
    }
    cells.push_back(std::move(c));
  }
}

// `Field` is a member path into JobSpec (&JobSpec::fault, &FaultPlan::msgDropRate).
template <auto Cells, auto... Field>
void applyCell(const SweepSpec& s, std::size_t i, JobSpec& j) {
  (j .* ... .* Field) = (s.*Cells)[i];
}

template <auto... Field>
void tagField(const Axis& a, const JobSpec& j, std::string& t) {
  static const JobSpec kDefault;
  const auto& v = (j .* ... .* Field);
  if (v == (kDefault .* ... .* Field) || (a.suffix.switchDirOnly && j.sdEntries == 0)) return;
  t += a.suffix.text;
  if (!a.suffix.bare) t += cellText(v);
}

/// An axis whose cell lands in one JobSpec field and whose tag suffix is that
/// field's value whenever it differs from the JobSpec default.
template <auto Cells, auto Cell, auto... Field>
constexpr Axis axis(const char* key, const Scope& scope, RecordFn record, Suffix suffix,
                    bool (*offDefault)(const SweepSpec&) = &differsFromDefault<Cells>) {
  return {key, &scope, record, suffix, &parseInto<Cells, Cell>, &sizeOf<Cells>,
          offDefault, &csvOf<Cells>, &applyCell<Cells, Field...>, &tagField<Field...>};
}

/// An axis with a hand-written cell binding and tag rule.
template <auto Cells, auto Cell>
constexpr Axis axis(const char* key, const Scope& scope, RecordFn record,
                    void (*apply)(const SweepSpec&, std::size_t, JobSpec&),
                    void (*tag)(const Axis&, const JobSpec&, std::string&)) {
  return {key, &scope, record, {}, &parseInto<Cells, Cell>, &sizeOf<Cells>,
          &differsFromDefault<Cells>, &csvOf<Cells>, apply, tag};
}

void recordOffDefault(const Axis& a, const SweepSpec& s, Options& out) {
  if (a.offDefault(s)) out.emplace_back(a.key, a.csv(s));
}

/// The last fault axis also carries the group's scalar keys: a spec that
/// can inject records its whole fault plan.
void recordFaultPlan(const Axis& a, const SweepSpec& s, Options& out) {
  if (!a.offDefault(s)) return;
  out.emplace_back(a.key, a.csv(s));
  out.emplace_back("fault_seed", std::to_string(s.faultSeed));
  const LinkStallSpec& ls = s.faultLinkStall;
  if (ls.active()) {
    out.emplace_back("fault_link_stall",
                     std::to_string(ls.stage) + "," + std::to_string(ls.index) + "," +
                         std::to_string(ls.startCycle) + "," + std::to_string(ls.lengthCycles));
  }
}

/// Fault axes are off their default when the spec can inject at all, so a
/// zero-rate axis stays legal on trace workloads.
bool canInject(const SweepSpec& s) { return s.injectsFaults(); }

/// The sweep axes in config-tag order, which is also the expansion order
/// (last axis fastest) and the document-options order. Adding an axis is a
/// JobSpec field, one entry here and one line in the job's config builder
/// (run_context.cpp).
constexpr Axis kAxes[] = {
    axis<&SweepSpec::entries, anyCount>(
        "entries", kAnyWorkload, nullptr, &applyCell<&SweepSpec::entries, &JobSpec::sdEntries>,
        [](const Axis&, const JobSpec& j, std::string& t) {
          t += j.sdEntries == 0 ? "base" : "sd-" + std::to_string(j.sdEntries);
        }),
    axis<&SweepSpec::assoc, positiveCount, &JobSpec::assoc>(
        "assoc", kAnyWorkload, nullptr, {.text = "-a", .switchDirOnly = true}),
    axis<&SweepSpec::pendingBuffer, anyCount, &JobSpec::pendingBuffer>(
        "pending_buffer", kAnyWorkload, nullptr, {.text = "-pb", .switchDirOnly = true}),
    // Policy suffixes are the bare policy names ("sd-1024-random-phase");
    // replacement and arbitration name sets are disjoint, so the tag stays
    // unambiguous.
    axis<&SweepSpec::sdPolicy, policyCell>(
        "sd_policy", kAnyWorkload, recordOffDefault,
        [](const SweepSpec& s, std::size_t i, JobSpec& j) {
          j.sdReplacement = s.sdPolicy[i].replacement;
          j.sdArbitration = s.sdPolicy[i].arbitration;
        },
        [](const Axis&, const JobSpec& j, std::string& t) {
          if (j.sdEntries == 0) return;
          if (j.sdReplacement != "lru") t += "-" + j.sdReplacement;
          if (j.sdArbitration != "fifo") t += "-" + j.sdArbitration;
        }),
    axis<&SweepSpec::nodes, nodeCount, &JobSpec::numNodes>(
        "nodes", kAnyWorkload, recordOffDefault, {.text = "-n"}),
    axis<&SweepSpec::trafficTenants, positiveCount, &JobSpec::trafficTenants>(
        "tenants", kTrafficModels, nullptr, {.text = "-t"}),
    axis<&SweepSpec::trafficSkew, nonNegative, &JobSpec::trafficSkew>(
        "skew", kTrafficModels, nullptr, {.text = "-z"}),
    axis<&SweepSpec::trafficBurst, positive, &JobSpec::trafficBurst>(
        "burst", kTrafficModels, nullptr, {.text = "-b"}),
    axis<&SweepSpec::trafficMix, mixCell, &JobSpec::trafficMix>(
        "mix", kTrafficModels, nullptr, {.text = "-wh", .bare = true}),
    // Fault suffixes apply to "base" as well: a faulty base run is not the
    // base run.
    axis<&SweepSpec::faultDropRate, rate, &JobSpec::fault, &FaultPlan::msgDropRate>(
        "fault_drop_rate", kExecutionDriven, recordOffDefault, {.text = "-fd"}, canInject),
    axis<&SweepSpec::faultDelayRate, rate, &JobSpec::fault, &FaultPlan::msgDelayRate>(
        "fault_delay_rate", kExecutionDriven, recordOffDefault, {.text = "-fy"}, canInject),
    axis<&SweepSpec::faultSdLossRate, rate, &JobSpec::fault, &FaultPlan::sdEntryLossRate>(
        "fault_sd_loss_rate", kExecutionDriven, recordFaultPlan, {.text = "-fl"}, canInject),
    axis<&SweepSpec::routing, routingCell, &JobSpec::routing>(
        "routing", kExecutionDriven, recordOffDefault, {.text = "-"}),
    axis<&SweepSpec::offeredLoad, positive, &JobSpec::offeredLoad>(
        "offered_load", kCongestionProfiles, recordOffDefault, {.text = "-ol"}),
    axis<&SweepSpec::flitLevel, switchCell, &JobSpec::flitLevel>(
        "flit_level", kExecutionDriven, recordOffDefault, {.text = "-flit", .bare = true}),
    // Ablation knobs: each exposes one config field of the paper's machine.
    axis<&SweepSpec::snoopInval, switchCell, &JobSpec::snoopInval>(
        "snoop_inval", kExecutionDriven, recordOffDefault,
        {.text = "-si", .bare = true, .switchDirOnly = true}),
    axis<&SweepSpec::switchCache, anyCount, &JobSpec::switchCacheEntries>(
        "switch_cache", kExecutionDriven, recordOffDefault, {.text = "-sc"}),
    axis<&SweepSpec::coreDelay, positiveCount, &JobSpec::coreDelay>(
        "core_delay", kExecutionDriven, recordOffDefault, {.text = "-cd"}),
    axis<&SweepSpec::linkCycles, positiveCount, &JobSpec::linkCycles>(
        "link_cycles", kExecutionDriven, recordOffDefault, {.text = "-lc"}),
    axis<&SweepSpec::bufferFlits, positiveCount, &JobSpec::bufferFlits>(
        "buffer_flits", kExecutionDriven, recordOffDefault, {.text = "-bf"}),
};

}  // namespace

JobKind workloadKind(const std::string& w) {
  return isTrafficWorkload(w)         ? JobKind::Traffic
         : w == "tpcc" || w == "tpcd" ? JobKind::Trace
                                      : JobKind::Scientific;
}

std::string JobSpec::configTag() const {
  std::string t;
  for (const Axis& a : kAxes) a.tag(a, *this, t);
  return t;
}

SweepSpec SweepSpec::parse(std::istream& in, const std::string& source) {
  SweepSpec spec;
  spec.workloads = {"fft", "tc", "sor", "fwa", "gauss", "tpcc", "tpcd"};

  static const std::set<std::string> knownWorkloads = {"fft",  "tc",   "sor",     "fwa",
                                                       "gauss", "tpcc", "tpcd",    "oltp",
                                                       "kv",    "hotspot", "incast"};
  std::set<std::string> seenKeys;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const Where at{source, line};
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string t = trim(raw);
    if (t.empty()) continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) fail(at, "expected 'key = value', got '" + t + "'");
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) fail(at, "empty key");
    if (value.empty()) fail(at, "empty value for '" + key + "'");
    if (!seenKeys.insert(key).second) fail(at, "duplicate key '" + key + "'");

    if (key == "name") {
      spec.name = value;
    } else if (key == "workloads") {
      spec.workloads = splitList(value);
      for (const std::string& w : spec.workloads) {
        if (knownWorkloads.count(w) == 0) fail(at, "unknown workload '" + w + "'");
      }
    } else if (key == "seeds") {
      spec.seeds = parseUnsigned(at, value, 10'000);
      if (spec.seeds == 0) fail(at, "seeds must be positive");
    } else if (key == "scale") {
      if (value != "tiny" && value != "default" && value != "paper") {
        fail(at, "scale must be tiny|default|paper, got '" + value + "'");
      }
      spec.scale = value;
    } else if (key == "trace_refs") {
      spec.traceRefs = parseUnsigned(at, value, UINT64_MAX);
      if (spec.traceRefs == 0) fail(at, "trace_refs must be positive");
    } else if (key == "fault_seed") {
      spec.faultSeed = parseUnsigned(at, value, UINT64_MAX);
      if (spec.faultSeed == 0) fail(at, "fault_seed must be positive");
    } else if (key == "fault_link_stall") {
      try {
        spec.faultLinkStall = FaultPlan::parseLinkStall(value);
      } catch (const std::invalid_argument& e) {
        fail(at, e.what());
      }
    } else {
      const auto* a = std::find_if(std::begin(kAxes), std::end(kAxes),
                                   [&](const Axis& x) { return key == x.key; });
      if (a == std::end(kAxes)) fail(at, "unknown key '" + key + "'");
      a->parse(spec, at, value);
    }
  }

  // An axis off its default is silently ignored by a workload outside its
  // scope: reject the spec instead.
  for (const Axis& a : kAxes) {
    if (a.scope->covers == nullptr || !a.offDefault(spec)) continue;
    for (const std::string& w : spec.workloads) {
      if (!a.scope->covers(w)) {
        throw std::runtime_error(source + ": " + a.key + " only applies to " + a.scope->name +
                                 "; remove '" + w + "' or the " + a.key + " key");
      }
    }
  }

  // Build every cell's simulator config and validate it, so a bad
  // combination (a link-stall port the machine size lacks, a traffic cell
  // the model rejects) dies at parse time naming the cell, not mid-sweep.
  for (const JobSpec& j : spec.expand()) {
    if (j.seed != 1) continue;  // replicas differ from their cell only in seeds
    const std::vector<std::string> errs = configErrors(j);
    if (errs.empty()) continue;
    std::string msg =
        source + ": invalid configuration for " + j.displayApp() + " " + j.configTag() + ":";
    for (const std::string& e : errs) msg += "\n  - " + e;
    throw std::runtime_error(msg);
  }
  return spec;
}

bool SweepSpec::injectsFaults() const {
  const auto anyNonZero = [](const std::vector<double>& v) {
    return std::any_of(v.begin(), v.end(), [](double x) { return x > 0.0; });
  };
  return anyNonZero(faultDropRate) || anyNonZero(faultDelayRate) ||
         anyNonZero(faultSdLossRate) || faultLinkStall.active();
}

SweepSpec SweepSpec::parseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open sweep spec '" + path + "'");
  return parse(in, path);
}

void SweepSpec::overrideScale(const std::string& s) {
  scale = s;
  if (s == "tiny") {
    traceRefs = std::min<std::uint64_t>(traceRefs, 200'000);
  } else if (s == "paper") {
    traceRefs = 16'000'000;
  }
}

std::vector<std::pair<std::string, std::string>> SweepSpec::documentOptions() const {
  Options out = {{"scale", scale},
                 {"seeds", std::to_string(seeds)},
                 {"trace_refs", std::to_string(traceRefs)}};
  for (const Axis& a : kAxes) {
    if (a.record != nullptr) a.record(a, *this, out);
  }
  return out;
}

WorkloadScale SweepSpec::workloadScale() const {
  return scale == "tiny"    ? WorkloadScale::tiny()
         : scale == "paper" ? WorkloadScale::paper()
                            : WorkloadScale{};
}

std::vector<JobSpec> SweepSpec::expand() const {
  std::vector<JobSpec> jobs;
  for (const Axis& a : kAxes) {
    if (a.size(*this) == 0) return jobs;
  }
  // Odometer over the axis table: one digit per axis, the last one fastest.
  std::array<std::size_t, std::size(kAxes)> digit{};
  const auto advance = [&] {
    for (std::size_t a = digit.size(); a-- > 0;) {
      if (++digit[a] < kAxes[a].size(*this)) return true;
      digit[a] = 0;
    }
    return false;
  };
  for (const std::string& w : workloads) {
    JobSpec j;
    j.kind = workloadKind(w);
    j.app = w;
    j.scale = workloadScale();
    j.traceRefs = traceRefs;
    j.fault.linkStall = faultLinkStall;
    // Switch-directory-only axes do not mark "base" tags, so their cells
    // collapse there: each (workload, tag) runs once, at its first cell.
    std::set<std::string> tags;
    do {
      for (std::size_t a = 0; a < digit.size(); ++a) kAxes[a].apply(*this, digit[a], j);
      if (!tags.insert(j.configTag()).second) continue;
      for (std::uint64_t s = 1; s <= seeds; ++s) {
        j.seed = s;
        // Replicas of one faulted cell draw independent injector streams;
        // replica 1 keeps the base seed.
        j.fault.seed = faultSeed + (s - 1);
        jobs.push_back(j);
      }
    } while (advance());
  }
  return jobs;
}

}  // namespace dresar::harness
