#include "harness/sweep_spec.h"

#include "interconnect/routing.h"
#include "switchdir/sd_policy.h"
#include "traffic/traffic_model.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace dresar::harness {

namespace {

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

[[noreturn]] void fail(const std::string& source, int line, const std::string& why) {
  throw std::runtime_error(source + ":" + std::to_string(line) + ": " + why);
}

std::uint64_t parseUnsigned(const std::string& source, int line, const std::string& s,
                            std::uint64_t max) {
  std::uint64_t v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (s.empty() || ec != std::errc() || ptr != last || v > max) {
    fail(source, line, "expected an unsigned integer, got '" + s + "'");
  }
  return v;
}

std::vector<std::uint32_t> parseU32List(const std::string& source, int line,
                                        const std::string& v, bool allowZero) {
  std::vector<std::uint32_t> out;
  for (const std::string& item : splitList(v)) {
    const std::uint64_t x = parseUnsigned(source, line, item, UINT32_MAX);
    if (x == 0 && !allowZero) fail(source, line, "value must be positive: '" + item + "'");
    out.push_back(static_cast<std::uint32_t>(x));
  }
  if (out.empty()) fail(source, line, "list must not be empty");
  return out;
}

/// Comma-separated probabilities, each in [0, 1].
std::vector<double> parseRateList(const std::string& source, int line, const std::string& v) {
  std::vector<double> out;
  for (const std::string& item : splitList(v)) {
    if (item.empty()) fail(source, line, "empty rate in list");
    char* end = nullptr;
    const double x = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + item.size()) {
      fail(source, line, "expected a number, got '" + item + "'");
    }
    if (!(x >= 0.0 && x <= 1.0)) {
      fail(source, line, "rate must be in [0, 1], got '" + item + "'");
    }
    out.push_back(x);
  }
  if (out.empty()) fail(source, line, "list must not be empty");
  return out;
}

bool isTraceWorkload(const std::string& w) { return w == "tpcc" || w == "tpcd"; }

/// Event-driven congestion profiles: the only workloads where offered_load
/// has meaning (their traffic models expose an arrival-rate multiplier).
bool isCongestionProfile(const std::string& w) { return w == "hotspot" || w == "incast"; }

/// Comma-separated doubles, each >= `min`.
std::vector<double> parseDoubleList(const std::string& source, int line, const std::string& v,
                                    double min, const char* what) {
  std::vector<double> out;
  for (const std::string& item : splitList(v)) {
    if (item.empty()) fail(source, line, std::string("empty ") + what + " in list");
    char* end = nullptr;
    const double x = std::strtod(item.c_str(), &end);
    if (end != item.c_str() + item.size()) {
      fail(source, line, "expected a number, got '" + item + "'");
    }
    if (!(x >= min)) {
      std::ostringstream os;
      os << what << " must be >= " << min << ", got '" << item << "'";
      fail(source, line, os.str());
    }
    out.push_back(x);
  }
  if (out.empty()) fail(source, line, "list must not be empty");
  return out;
}

/// Parse one sd_policy token: "repl-arb" or a bare replacement name (which
/// keeps the default fifo arbitration). Both halves are validated against the
/// policy registries so a typo'd cell dies at parse time with the valid names.
SdPolicyChoice parsePolicyChoice(const std::string& source, int line, const std::string& item) {
  SdPolicyChoice c;
  const std::size_t dash = item.find('-');
  if (dash == std::string::npos) {
    c.replacement = item;
  } else {
    c.replacement = item.substr(0, dash);
    c.arbitration = item.substr(dash + 1);
  }
  if (!isSdReplacementPolicy(c.replacement)) {
    fail(source, line, "unknown replacement policy '" + c.replacement +
                           "' in sd_policy '" + item +
                           "' (valid: " + sdReplacementPolicyList() + ")");
  }
  if (!isSdArbitrationPolicy(c.arbitration)) {
    fail(source, line, "unknown arbitration policy '" + c.arbitration +
                           "' in sd_policy '" + item +
                           "' (valid: " + sdArbitrationPolicyList() + ")");
  }
  return c;
}

}  // namespace

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
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string t = trim(raw);
    if (t.empty()) continue;
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) fail(source, line, "expected 'key = value', got '" + t + "'");
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) fail(source, line, "empty key");
    if (value.empty()) fail(source, line, "empty value for '" + key + "'");
    if (!seenKeys.insert(key).second) fail(source, line, "duplicate key '" + key + "'");

    if (key == "name") {
      spec.name = value;
    } else if (key == "workloads") {
      spec.workloads = splitList(value);
      for (const std::string& w : spec.workloads) {
        if (knownWorkloads.count(w) == 0) fail(source, line, "unknown workload '" + w + "'");
      }
      if (spec.workloads.empty()) fail(source, line, "workloads list must not be empty");
    } else if (key == "entries") {
      spec.entries = parseU32List(source, line, value, /*allowZero=*/true);
    } else if (key == "assoc") {
      spec.assoc = parseU32List(source, line, value, /*allowZero=*/false);
    } else if (key == "pending_buffer") {
      spec.pendingBuffer = parseU32List(source, line, value, /*allowZero=*/false);
    } else if (key == "nodes") {
      spec.nodes = parseU32List(source, line, value, /*allowZero=*/false);
      for (const std::uint32_t n : spec.nodes) {
        SystemConfig probe;
        probe.numNodes = n;
        if (!probe.validationErrors().empty()) {
          fail(source, line, "unsupported nodes value " + std::to_string(n) +
                                 ": " + probe.validationErrors().front());
        }
      }
    } else if (key == "sd_policy") {
      spec.sdPolicy.clear();
      for (const std::string& item : splitList(value)) {
        if (item.empty()) fail(source, line, "empty sd_policy cell in list");
        const SdPolicyChoice c = parsePolicyChoice(source, line, item);
        if (std::find(spec.sdPolicy.begin(), spec.sdPolicy.end(), c) != spec.sdPolicy.end()) {
          fail(source, line, "duplicate sd_policy cell '" + c.label() + "'");
        }
        spec.sdPolicy.push_back(c);
      }
      if (spec.sdPolicy.empty()) fail(source, line, "sd_policy list must not be empty");
    } else if (key == "seeds") {
      spec.seeds = parseUnsigned(source, line, value, 10'000);
      if (spec.seeds == 0) fail(source, line, "seeds must be positive");
    } else if (key == "scale") {
      if (value != "tiny" && value != "default" && value != "paper") {
        fail(source, line, "scale must be tiny|default|paper, got '" + value + "'");
      }
      spec.scale = value;
    } else if (key == "trace_refs") {
      spec.traceRefs = parseUnsigned(source, line, value, UINT64_MAX);
      if (spec.traceRefs == 0) fail(source, line, "trace_refs must be positive");
    } else if (key == "fault_drop_rate") {
      spec.faultDropRate = parseRateList(source, line, value);
    } else if (key == "fault_delay_rate") {
      spec.faultDelayRate = parseRateList(source, line, value);
    } else if (key == "fault_sd_loss_rate") {
      spec.faultSdLossRate = parseRateList(source, line, value);
    } else if (key == "fault_seed") {
      spec.faultSeed = parseUnsigned(source, line, value, UINT64_MAX);
      if (spec.faultSeed == 0) fail(source, line, "fault_seed must be positive");
    } else if (key == "fault_link_stall") {
      try {
        spec.faultLinkStall = FaultPlan::parseLinkStall(value);
      } catch (const std::invalid_argument& e) {
        fail(source, line, e.what());
      }
    } else if (key == "tenants") {
      spec.trafficTenants = parseU32List(source, line, value, /*allowZero=*/false);
    } else if (key == "skew") {
      spec.trafficSkew = parseDoubleList(source, line, value, 0.0, "skew");
    } else if (key == "burst") {
      spec.trafficBurst = parseDoubleList(source, line, value, 0.0, "burst");
      for (const double b : spec.trafficBurst) {
        if (b <= 0.0) fail(source, line, "burst multiplier must be > 0");
      }
    } else if (key == "routing") {
      spec.routing.clear();
      for (const std::string& item : splitList(value)) {
        if (!isRoutingPolicy(item)) {
          fail(source, line,
               "unknown routing policy '" + item + "' (valid: " + routingPolicyList() + ")");
        }
        if (std::find(spec.routing.begin(), spec.routing.end(), item) != spec.routing.end()) {
          fail(source, line, "duplicate routing cell '" + item + "'");
        }
        spec.routing.push_back(item);
      }
      if (spec.routing.empty()) fail(source, line, "routing list must not be empty");
    } else if (key == "offered_load") {
      spec.offeredLoad = parseDoubleList(source, line, value, 0.0, "offered_load");
      for (const double ol : spec.offeredLoad) {
        if (ol <= 0.0) fail(source, line, "offered_load must be > 0");
      }
    } else if (key == "flit_level") {
      spec.flitLevel = parseU32List(source, line, value, /*allowZero=*/true);
      for (const std::uint32_t fl : spec.flitLevel) {
        if (fl > 1) fail(source, line, "flit_level cells must be 0 or 1");
      }
    } else if (key == "mix") {
      spec.trafficMix = splitList(value);
      for (const std::string& m : spec.trafficMix) {
        if (!isTrafficMix(m)) {
          fail(source, line, "unknown mix '" + m + "' (valid: readmostly, writeheavy)");
        }
      }
      if (spec.trafficMix.empty()) fail(source, line, "mix list must not be empty");
    } else {
      fail(source, line, "unknown key '" + key + "'");
    }
  }

  if (spec.hasTrafficAxes()) {
    // Traffic axes parameterize the traffic models only; on any other
    // workload they would be silently ignored — reject instead.
    for (const std::string& w : spec.workloads) {
      if (!isTrafficWorkload(w)) {
        throw std::runtime_error(source + ": traffic axes (tenants/skew/burst/mix) only "
                                          "apply to traffic workloads; remove '" + w +
                                          "' or the traffic keys");
      }
    }
    // Probe every traffic cell against the model validator so a bad
    // combination dies at parse time, not mid-sweep.
    for (const std::string& w : spec.workloads) {
      for (const std::uint32_t tn : spec.trafficTenants) {
        for (const double z : spec.trafficSkew) {
          for (const double b : spec.trafficBurst) {
            for (const std::string& m : spec.trafficMix) {
              TrafficConfig probe = TrafficConfig::byName(w, 1);
              if (tn != 0) probe.tenants = tn;
              if (z >= 0.0) probe.skew = z;
              if (b > 0.0) probe.burstMultiplier = b;
              probe.applyMix(m);
              const std::vector<std::string> errs = probe.validationErrors();
              if (!errs.empty()) {
                std::string msg = source + ": invalid traffic configuration:";
                for (const std::string& e : errs) msg += "\n  - " + e;
                throw std::runtime_error(msg);
              }
            }
          }
        }
      }
    }
  }

  const bool routingAxis = spec.routing.size() > 1 || spec.routing[0] != "lca";
  const bool flitAxis = spec.flitLevel.size() > 1 || spec.flitLevel[0] != 0;
  const bool offeredAxis = spec.offeredLoad.size() > 1 || spec.offeredLoad[0] != 0.0;
  if (routingAxis || flitAxis) {
    // Only the execution-driven System owns an interconnect network; the
    // trace/traffic simulators model service classes, not routes.
    for (const std::string& w : spec.workloads) {
      if (isTraceWorkload(w) || isTrafficWorkload(w)) {
        throw std::runtime_error(source + ": routing/flit_level only apply to "
                                          "execution-driven workloads; remove '" + w +
                                          "' or the congestion keys");
      }
    }
    // Probe every routing x flit cell against the config validator so a bad
    // combination dies at parse time with the validator's wording.
    for (const std::string& r : spec.routing) {
      for (const std::uint32_t fl : spec.flitLevel) {
        SystemConfig probe;
        probe.net.routing = r;
        probe.net.flitLevel = fl != 0;
        const std::vector<std::string> errs = probe.validationErrors();
        if (!errs.empty()) {
          std::string msg = source + ": invalid congestion configuration:";
          for (const std::string& e : errs) msg += "\n  - " + e;
          throw std::runtime_error(msg);
        }
      }
    }
  }
  if (offeredAxis) {
    // offered_load scales the congestion profiles' arrival clocks; on any
    // other workload it would be silently ignored — reject instead.
    for (const std::string& w : spec.workloads) {
      if (!isCongestionProfile(w)) {
        throw std::runtime_error(source + ": offered_load only applies to the hotspot/"
                                          "incast congestion profiles; remove '" + w +
                                          "' or the offered_load key");
      }
    }
  }

  if (spec.hasFaultAxes()) {
    // Fault injection runs on the execution-driven System only.
    for (const std::string& w : spec.workloads) {
      if (isTraceWorkload(w) || isTrafficWorkload(w)) {
        throw std::runtime_error(source + ": fault axes only apply to execution-driven "
                                          "workloads; remove '" + w + "' or the fault keys");
      }
    }
    // Probe the worst-case fault combination against the full config
    // validator so geometry errors (e.g. a link-stall port that does not
    // exist) surface at parse time, not mid-sweep.
    SystemConfig probe;
    probe.fault.msgDropRate = *std::max_element(spec.faultDropRate.begin(),
                                                spec.faultDropRate.end());
    probe.fault.msgDelayRate = *std::max_element(spec.faultDelayRate.begin(),
                                                 spec.faultDelayRate.end());
    probe.fault.sdEntryLossRate = *std::max_element(spec.faultSdLossRate.begin(),
                                                    spec.faultSdLossRate.end());
    probe.fault.linkStall = spec.faultLinkStall;
    probe.fault.seed = spec.faultSeed;
    const std::vector<std::string> errs = probe.validationErrors();
    if (!errs.empty()) {
      std::string msg = source + ": invalid fault configuration:";
      for (const std::string& e : errs) msg += "\n  - " + e;
      throw std::runtime_error(msg);
    }
  }
  return spec;
}

bool SweepSpec::hasFaultAxes() const {
  const auto anyNonZero = [](const std::vector<double>& v) {
    return std::any_of(v.begin(), v.end(), [](double x) { return x > 0.0; });
  };
  return anyNonZero(faultDropRate) || anyNonZero(faultDelayRate) ||
         anyNonZero(faultSdLossRate) || faultLinkStall.active();
}

bool SweepSpec::hasTrafficAxes() const {
  const bool defaultTenants = trafficTenants.size() == 1 && trafficTenants[0] == 0;
  const bool defaultSkew = trafficSkew.size() == 1 && trafficSkew[0] < 0.0;
  const bool defaultBurst = trafficBurst.size() == 1 && trafficBurst[0] == 0.0;
  const bool defaultMix = trafficMix.size() == 1 && trafficMix[0] == "readmostly";
  return !(defaultTenants && defaultSkew && defaultBurst && defaultMix);
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

std::vector<JobSpec> SweepSpec::expand() const {
  WorkloadScale ws;
  if (scale == "tiny") {
    ws = WorkloadScale::tiny();
  } else if (scale == "paper") {
    ws = WorkloadScale::paper();
  }

  std::vector<JobSpec> jobs;
  jobs.reserve(jobCount());
  for (const std::string& w : workloads) {
    for (const std::uint32_t e : entries) {
      for (const std::uint32_t a : assoc) {
        for (const std::uint32_t pb : pendingBuffer) {
          for (const std::uint32_t n : nodes) {
            for (const SdPolicyChoice& pol : sdPolicy) {
              for (const double fd : faultDropRate) {
                for (const double fy : faultDelayRate) {
                  for (const double fl : faultSdLossRate) {
                    for (const std::uint32_t tn : trafficTenants) {
                      for (const double z : trafficSkew) {
                        for (const double b : trafficBurst) {
                          for (const std::string& mx : trafficMix) {
                            for (const std::string& rt : routing) {
                            for (const double ol : offeredLoad) {
                            // NB: must not shadow `fl` (faultSdLossRate) above —
                            // j.fault.sdEntryLossRate reads it below.
                            for (const std::uint32_t flit : flitLevel) {
                            for (std::uint64_t s = 1; s <= seeds; ++s) {
                              JobSpec j;
                              j.kind = isTrafficWorkload(w) ? JobKind::Traffic
                                       : isTraceWorkload(w) ? JobKind::Trace
                                                            : JobKind::Scientific;
                              j.app = w;
                              j.sdEntries = e;
                              j.assoc = a;
                              j.pendingBuffer = pb;
                              j.sdReplacement = pol.replacement;
                              j.sdArbitration = pol.arbitration;
                              j.numNodes = n;
                              j.seed = s;
                              j.scale = ws;
                              j.traceRefs = traceRefs;
                              j.fault.msgDropRate = fd;
                              j.fault.msgDelayRate = fy;
                              j.fault.sdEntryLossRate = fl;
                              j.fault.linkStall = faultLinkStall;
                              // Replicas of one faulted cell draw independent
                              // injector streams; replica 1 keeps the base seed.
                              j.fault.seed = faultSeed + (s - 1);
                              j.trafficTenants = tn;
                              j.trafficSkew = z;
                              j.trafficBurst = b;
                              j.trafficMix = mx;
                              j.routing = rt;
                              j.offeredLoad = ol;
                              j.flitLevel = flit != 0;
                              jobs.push_back(std::move(j));
                            }
                            }
                            }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return jobs;
}

}  // namespace dresar::harness
