#include "common/config.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dresar {
namespace {

TEST(SystemConfig, DefaultsMatchPaperTable2) {
  SystemConfig c;
  EXPECT_EQ(c.numNodes, 16u);
  EXPECT_EQ(c.issueWidth, 4u);
  EXPECT_EQ(c.l1Bytes, 16u * 1024);
  EXPECT_EQ(c.l1Assoc, 2u);
  EXPECT_EQ(c.l1AccessCycles, 1u);
  EXPECT_EQ(c.l2Bytes, 128u * 1024);
  EXPECT_EQ(c.l2Assoc, 4u);
  EXPECT_EQ(c.l2AccessCycles, 8u);
  EXPECT_EQ(c.lineBytes, 32u);
  EXPECT_EQ(c.memAccessCycles, 40u);
  EXPECT_EQ(c.memInterleave, 4u);
  EXPECT_EQ(c.net.switchRadix, 8u);
  EXPECT_EQ(c.net.coreDelay, 4u);
  EXPECT_EQ(c.net.linkCyclesPerFlit, 4u);
  EXPECT_EQ(c.net.flitBytes, 8u);
  EXPECT_EQ(c.net.virtualChannels, 2u);
  EXPECT_EQ(c.net.bufferFlits, 4u);
  EXPECT_EQ(c.switchDir.entries, 1024u);
  EXPECT_EQ(c.switchDir.associativity, 4u);
  EXPECT_NO_THROW(c.validate());
}

TEST(SystemConfig, HomeAndBlockMapping) {
  SystemConfig c;
  EXPECT_EQ(c.blockOf(0x1234), 0x1220u);  // 32B lines
  EXPECT_EQ(c.homeOf(0), 0u);
  EXPECT_EQ(c.homeOf(4096), 1u);
  EXPECT_EQ(c.homeOf(4096ull * 16), 0u);  // wraps at numNodes pages
}

TEST(SystemConfig, ValidationCatchesBadGeometry) {
  SystemConfig c;
  c.lineBytes = 48;  // not a power of two
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig{};
  c.numNodes = 12;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig{};
  c.switchDir.entries = 1000;  // not divisible by assoc=4? 1000/4=250 ok; use assoc 3
  c.switchDir.associativity = 3;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig{};
  c.writeBufferEntries = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidationErrorsCollectsEveryViolation) {
  SystemConfig c;
  c.lineBytes = 48;          // not a power of two
  c.writeBufferEntries = 0;  // independent violation
  c.mshrEntries = 1;         // and a third
  const std::vector<std::string> errs = c.validationErrors();
  EXPECT_GE(errs.size(), 3u);
  // validate() reports them all in one exception, not just the first.
  try {
    c.validate();
    FAIL() << "validate() must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lineBytes"), std::string::npos) << what;
    EXPECT_NE(what.find("writeBufferEntries"), std::string::npos) << what;
    EXPECT_NE(what.find("mshrEntries"), std::string::npos) << what;
  }
}

TEST(SystemConfig, ValidationCatchesRadixCapacity) {
  SystemConfig c;
  c.numNodes = 256;  // beyond the 128-node NodeMask cap
  c.net.switchRadix = 8;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  // Larger power-of-two sizes now derive deeper networks instead of failing.
  c = SystemConfig{};
  c.net.switchRadix = 8;
  for (const std::uint32_t n : {32u, 64u, 128u}) {
    c.numNodes = n;
    EXPECT_NO_THROW(c.validate()) << n;
  }

  // A non-tiling combination names the supported sizes.
  c = SystemConfig{};
  c.numNodes = 8;
  c.net.switchRadix = 32;  // 8/16 = half a switch per stage
  try {
    c.validate();
    FAIL() << "validate() must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("multiple of switchRadix/2"), std::string::npos)
        << e.what();
  }
}

TEST(SystemConfig, ValidationCatchesCacheSmallerThanOneSet) {
  SystemConfig c;
  c.l1Bytes = 0;  // divisible by anything, but holds no set
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SystemConfig{};
  c.l2Bytes = c.lineBytes;  // one line, but assoc 4 needs 4
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SystemConfig, ValidationCatchesBadFaultRates) {
  SystemConfig c;
  c.fault.msgDropRate = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SystemConfig{};
  c.fault.sdEntryLossRate = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SystemConfig{};
  c.fault.msgDelayRate = 0.1;
  c.fault.msgDelayCycles = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SystemConfig{};
  c.fault.linkStall = {5, 0, 0, 100};  // stage out of range
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = SystemConfig{};
  c.fault.msgDropRate = 0.02;  // a sane plan passes
  EXPECT_NO_THROW(c.validate());
}

TEST(SystemConfig, ValidationCatchesUnknownSdPolicies) {
  SystemConfig c;
  c.switchDir.replacementPolicy = "plru";
  c.switchDir.arbitrationPolicy = "lottery";
  c.switchCache.entries = 1024;  // enable, with its own bad pair
  c.switchCache.replacementPolicy = "mru";
  c.switchCache.arbitrationPolicy = "priority";
  const std::vector<std::string> errs = c.validationErrors();
  EXPECT_GE(errs.size(), 4u);  // every violation collected, not just the first
  const auto mentioned = [&](const std::string& name) {
    for (const std::string& e : errs) {
      if (e.find("'" + name + "'") != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(mentioned("plru"));
  EXPECT_TRUE(mentioned("lottery"));
  EXPECT_TRUE(mentioned("mru"));
  EXPECT_TRUE(mentioned("priority"));
  // Each error names the valid alternatives.
  EXPECT_NE(errs.front().find("valid:"), std::string::npos) << errs.front();

  // A disabled structure's policy strings are never validated (entries=0
  // means the knobs are inert).
  c = SystemConfig{};
  c.switchDir.entries = 0;
  c.switchDir.replacementPolicy = "plru";
  EXPECT_TRUE(c.validationErrors().empty());
}

TEST(SystemConfig, ValidationCatchesNetworkCongestionKnobs) {
  // The flit model sizes its per-port input buffers by the VC count.
  SystemConfig c;
  c.net.virtualChannels = 257;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.net.virtualChannels = 256;
  EXPECT_NO_THROW(c.validate());

  // Routing policy names come from the interconnect registry and the error
  // lists the valid alternatives.
  c = SystemConfig{};
  c.net.routing = "valiant";
  const std::vector<std::string> errs = c.validationErrors();
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NE(errs.front().find("'valiant'"), std::string::npos) << errs.front();
  EXPECT_NE(errs.front().find("lca"), std::string::npos) << errs.front();
  EXPECT_NE(errs.front().find("adaptive"), std::string::npos) << errs.front();
  c.net.routing = "adaptive";
  EXPECT_NO_THROW(c.validate());
}

TEST(SystemConfig, DumpNamesNonDefaultRoutingOnly) {
  SystemConfig c;
  std::ostringstream os;
  c.dump(os);
  EXPECT_EQ(os.str().find("routing"), std::string::npos);  // default stays silent

  c.net.routing = "adaptive";
  std::ostringstream os2;
  c.dump(os2);
  EXPECT_NE(os2.str().find("routing adaptive"), std::string::npos) << os2.str();
}

TEST(SystemConfig, DumpNamesNonDefaultPoliciesOnly) {
  SystemConfig c;
  std::ostringstream os;
  c.dump(os);
  EXPECT_EQ(os.str().find("policy"), std::string::npos);  // default stays silent

  c.switchDir.replacementPolicy = "random";
  c.switchDir.arbitrationPolicy = "phase";
  std::ostringstream os2;
  c.dump(os2);
  EXPECT_NE(os2.str().find("random/phase"), std::string::npos) << os2.str();
}

TEST(SystemConfig, DisabledSwitchDirIsBaseSystem) {
  SystemConfig c;
  c.switchDir.entries = 0;
  EXPECT_FALSE(c.switchDir.enabled());
  EXPECT_NO_THROW(c.validate());
  std::ostringstream os;
  c.dump(os);
  EXPECT_NE(os.str().find("Base system"), std::string::npos);
}

TEST(TraceConfig, DefaultsMatchPaperTable3) {
  TraceConfig t;
  EXPECT_EQ(t.cacheBytes, 2u * 1024 * 1024);
  EXPECT_EQ(t.cacheAssoc, 4u);
  EXPECT_EQ(t.cacheAccess, 8u);
  EXPECT_EQ(t.localMemory, 100u);
  EXPECT_EQ(t.ctocLocalHome, 220u);
  EXPECT_EQ(t.remoteMemory, 260u);
  EXPECT_EQ(t.ctocRemoteHome, 320u);
  EXPECT_EQ(t.switchDirHit, 200u);
  EXPECT_NO_THROW(t.validate());
}

TEST(TraceConfig, Dump) {
  TraceConfig t;
  std::ostringstream os;
  t.dump(os);
  EXPECT_NE(os.str().find("220"), std::string::npos);
  EXPECT_NE(os.str().find("320"), std::string::npos);
}

}  // namespace
}  // namespace dresar
