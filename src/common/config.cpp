#include "common/config.h"

#include <bit>
#include <stdexcept>

#include "interconnect/routing.h"
#include "switchdir/sd_policy.h"

namespace dresar {

namespace {
bool isPow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Validate the two policy names of a switch-dir/switch-cache config,
/// appending one error per unknown name (`what` = "switch directory" /
/// "switch cache"). Both names are checked so a doubly-misconfigured sweep
/// surfaces every violation in one round trip.
void appendPolicyErrors(std::vector<std::string>& errs, const std::string& what,
                        const std::string& replacement, const std::string& arbitration) {
  if (!isSdReplacementPolicy(replacement)) {
    errs.push_back(what + " replacement policy '" + replacement +
                   "' unknown (valid: " + sdReplacementPolicyList() + ")");
  }
  if (!isSdArbitrationPolicy(arbitration)) {
    errs.push_back(what + " arbitration policy '" + arbitration +
                   "' unknown (valid: " + sdArbitrationPolicyList() + ")");
  }
}

/// Power-of-two node counts in [4, kMaxNodes] that tile a BMIN of this
/// radix, rendered for validation messages.
std::string supportedNodeCounts(std::uint32_t switchRadix) {
  std::string out;
  for (std::uint32_t n = 4; n <= kMaxNodes; n *= 2) {
    if (butterflyStages(n, switchRadix) == 0) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(n);
  }
  return out.empty() ? "none" : out;
}
}  // namespace

std::uint32_t butterflyStages(std::uint32_t numNodes, std::uint32_t switchRadix) {
  const std::uint32_t half = switchRadix / 2;
  if (switchRadix < 2 || switchRadix % 2 != 0 || half == 0) return 0;
  if (numNodes == 0 || numNodes % half != 0) return 0;
  const std::uint32_t perStage = numNodes / half;
  if (half == 1) return perStage == 1 ? 2 : 0;
  std::uint32_t k = 2;
  std::uint64_t reach = half;  // half^(k-1)
  while (reach < perStage) {
    reach *= half;
    ++k;
  }
  // The top digit has base m = perStage / half^(k-2); it must divide evenly.
  if (perStage % (reach / half) != 0) return 0;
  return k;
}

std::vector<std::string> NetworkConfig::validationErrors() const {
  std::vector<std::string> errs;
  const auto require = [&errs](bool ok, const char* why) {
    if (!ok) errs.emplace_back(why);
  };
  require(virtualChannels >= 1, "virtualChannels must be >= 1");
  // The flit model holds ports x VCs x bufferFlits input slots per switch;
  // the cap keeps that array bounded.
  require(virtualChannels <= 256,
          "virtualChannels must be <= 256 (flit model input buffers per port)");
  require(bufferFlits >= 1, "bufferFlits must be >= 1");
  require(flitBytes >= 1, "flitBytes must be >= 1");
  require(linkCyclesPerFlit >= 1, "linkCyclesPerFlit must be >= 1");
  if (!isRoutingPolicy(routing)) {
    errs.push_back("routing policy '" + routing +
                   "' unknown (valid: " + routingPolicyList() + ")");
  }
  return errs;
}

std::uint32_t SystemConfig::lineOffsetBits() const {
  return static_cast<std::uint32_t>(std::countr_zero(lineBytes));
}

std::vector<std::string> SystemConfig::validationErrors() const {
  std::vector<std::string> errs;
  const auto require = [&errs](bool ok, const char* why) {
    if (!ok) errs.emplace_back(why);
  };

  require(isPow2(numNodes), "numNodes must be a power of two");
  require(isPow2(lineBytes), "lineBytes must be a power of two");
  require(isPow2(pageBytes) && pageBytes >= lineBytes,
          "pageBytes must be a power of two >= lineBytes");
  require(l1Assoc >= 1, "l1Assoc must be >= 1");
  require(l2Assoc >= 1, "l2Assoc must be >= 1");
  if (l1Assoc >= 1 && lineBytes != 0) {
    // A cache must hold at least one full set; divisibility alone lets
    // l1Bytes == 0 slip through (0 % n == 0).
    require(l1Bytes >= lineBytes * l1Assoc, "L1 smaller than one set (lineBytes * l1Assoc)");
    require(l1Bytes % (lineBytes * l1Assoc) == 0, "L1 size not divisible by assoc*line");
  }
  if (l2Assoc >= 1 && lineBytes != 0) {
    require(l2Bytes >= lineBytes * l2Assoc, "L2 smaller than one set (lineBytes * l2Assoc)");
    require(l2Bytes % (lineBytes * l2Assoc) == 0, "L2 size not divisible by assoc*line");
  }
  require(issueWidth >= 1, "issueWidth must be >= 1");
  for (std::string& e : net.validationErrors()) errs.push_back(std::move(e));
  require(net.switchRadix >= 2 && net.switchRadix % 2 == 0,
          "switchRadix must be an even number >= 2");
  require(numNodes <= kMaxNodes,
          "numNodes exceeds 128 (NodeMask sharer bitmaps cap the system size)");
  if (net.switchRadix >= 2 && net.switchRadix % 2 == 0) {
    const std::uint32_t half = net.switchRadix / 2;
    if (numNodes % half != 0) {
      errs.emplace_back("numNodes must be a multiple of switchRadix/2");
    } else if (net.stagesFor(numNodes) == 0) {
      errs.emplace_back("numNodes=" + std::to_string(numNodes) + " does not tile a radix-" +
                        std::to_string(net.switchRadix) +
                        " BMIN; supported power-of-two node counts for this radix: " +
                        supportedNodeCounts(net.switchRadix));
    }
  }
  if (switchDir.enabled()) {
    require(switchDir.associativity != 0 && switchDir.entries % switchDir.associativity == 0,
            "switch directory entries must divide by associativity");
    appendPolicyErrors(errs, "switch directory", switchDir.replacementPolicy,
                       switchDir.arbitrationPolicy);
  }
  if (switchCache.enabled()) {
    require(switchCache.associativity != 0 &&
                switchCache.entries % switchCache.associativity == 0,
            "switch cache entries must divide by associativity");
    appendPolicyErrors(errs, "switch cache", switchCache.replacementPolicy,
                       switchCache.arbitrationPolicy);
  }
  require(writeBufferEntries >= 1, "writeBufferEntries must be >= 1");
  require(mshrEntries >= 2, "mshrEntries must be >= 2");
  require(retryBackoffCycles >= 1, "retryBackoffCycles must be >= 1");
  require(switchDir.retryBackoffMaxCycles >= retryBackoffCycles,
          "retryBackoffMaxCycles must be >= retryBackoffCycles");
  if (txnTrace.enabled) {
    require(txnTrace.maxEventsPerTxn >= 2, "txnTrace.maxEventsPerTxn must be >= 2");
  }
  fault.appendValidationErrors(errs);
  if (fault.linkStall.active() && net.switchRadix >= 2 && net.switchRadix % 2 == 0) {
    const std::uint32_t stages = net.stagesFor(numNodes);
    require(stages == 0 || fault.linkStall.stage < stages,
            "fault.linkStall stage out of range for the derived BMIN depth");
    require(fault.linkStall.index < numNodes / (net.switchRadix / 2),
            "fault.linkStall port index exceeds switches per stage");
  }
  return errs;
}

void SystemConfig::validate() const {
  const std::vector<std::string> errs = validationErrors();
  if (errs.empty()) return;
  std::string msg =
      "invalid SystemConfig (" + std::to_string(errs.size()) + " violation(s)):";
  for (const std::string& e : errs) msg += "\n  - " + e;
  throw std::invalid_argument(msg);
}

void SystemConfig::dump(std::ostream& os) const {
  os << "Multiprocessor System - " << numNodes << " processors\n"
     << "  Processor   speed 200MHz, issue " << issueWidth << "-way\n"
     << "  L1 Cache    " << l1Bytes / 1024 << "KB, line " << lineBytes << "B, set size " << l1Assoc
     << ", access " << l1AccessCycles << "\n"
     << "  L2 Cache    " << l2Bytes / 1024 << "KB, line " << lineBytes << "B, set size " << l2Assoc
     << ", access " << l2AccessCycles << "\n"
     << "  Memory      access " << memAccessCycles << ", interleaving " << memInterleave
     << ", dir lookup " << dirLookupCycles << ", dir occupancy " << dirOccupancyCycles << "\n"
     << "  Network     switch " << net.switchRadix << "x" << net.switchRadix << ", core delay "
     << net.coreDelay << ", link 16 bits @200MHz, flit " << net.flitBytes << "B ("
     << net.linkCyclesPerFlit << " link cycles), VCs " << net.virtualChannels << ", buf "
     << net.bufferFlits << " flits";
  // Non-default routing is called out; the default line stays byte-identical
  // to the historical dump.
  if (net.routing != "lca") os << ", routing " << net.routing;
  os << "\n"
     << "  SwitchDir   ";
  if (switchDir.enabled()) {
    os << switchDir.entries << " entries, " << switchDir.associativity << "-way, "
       << switchDir.snoopPortsPerCycle << " snoop ports, pending buffer "
       << (switchDir.usePendingBuffer ? std::to_string(switchDir.pendingBufferEntries) : "off");
    // Non-default policies are called out; the default line stays
    // byte-identical to the historical dump.
    if (switchDir.replacementPolicy != "lru" || switchDir.arbitrationPolicy != "fifo") {
      os << ", policy " << switchDir.replacementPolicy << "/" << switchDir.arbitrationPolicy;
    }
    os << "\n";
  } else {
    os << "disabled (Base system)\n";
  }
}

std::vector<std::string> TraceConfig::validationErrors() const {
  std::vector<std::string> errs;
  const auto require = [&errs](bool ok, const char* why) {
    if (!ok) errs.emplace_back(why);
  };

  require(isPow2(numNodes), "numNodes must be a power of two");
  require(numNodes <= kMaxNodes,
          "numNodes exceeds 128 (NodeMask sharer bitmaps cap the system size)");
  // The trace simulator models the reference radix-8 BMIN.
  if (isPow2(numNodes) && butterflyStages(numNodes, 8) == 0) {
    errs.emplace_back("numNodes=" + std::to_string(numNodes) +
                      " does not tile the radix-8 BMIN; supported power-of-two node counts: " +
                      supportedNodeCounts(8));
  }
  require(isPow2(lineBytes), "lineBytes must be a power of two");
  require(cacheAssoc >= 1, "cacheAssoc must be >= 1");
  if (cacheAssoc >= 1 && lineBytes != 0) {
    require(cacheBytes >= lineBytes * cacheAssoc,
            "cache smaller than one set (lineBytes * cacheAssoc)");
    require(cacheBytes % (lineBytes * cacheAssoc) == 0,
            "cache size not divisible by assoc*line");
  }
  require(isPow2(pageBytes) && pageBytes >= lineBytes,
          "pageBytes must be a power of two >= lineBytes");
  if (switchDir.enabled()) {
    require(switchDir.associativity != 0 && switchDir.entries % switchDir.associativity == 0,
            "switch directory entries must divide by associativity");
    appendPolicyErrors(errs, "switch directory", switchDir.replacementPolicy,
                       switchDir.arbitrationPolicy);
  }
  return errs;
}

void TraceConfig::validate() const {
  const std::vector<std::string> errs = validationErrors();
  if (errs.empty()) return;
  std::string msg =
      "invalid TraceConfig (" + std::to_string(errs.size()) + " violation(s)):";
  for (const std::string& e : errs) msg += "\n  - " + e;
  throw std::invalid_argument(msg);
}

void TraceConfig::dump(std::ostream& os) const {
  os << "Trace-driven simulation - " << numNodes << " processors\n"
     << "  Cache            " << cacheBytes / (1024 * 1024) << "MB, " << cacheAssoc << "-way, line "
     << lineBytes << "B, access " << cacheAccess << " cycles\n"
     << "  Local memory     " << localMemory << " cycles\n"
     << "  CtoC local home  " << ctocLocalHome << " cycles\n"
     << "  Remote memory    " << remoteMemory << " cycles\n"
     << "  CtoC remote home " << ctocRemoteHome << " cycles\n"
     << "  SwitchDir hit    " << switchDirHit << " cycles\n"
     << "  SwitchDir        ";
  if (switchDir.enabled()) {
    os << switchDir.entries << " entries, " << switchDir.associativity << "-way\n";
  } else {
    os << "disabled (Base system)\n";
  }
}

}  // namespace dresar
