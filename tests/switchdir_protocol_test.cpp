// Exhaustive unit tests of the DRESAR snoop FSM (paper Figure 4 / Table 1):
// every message type against every entry state, plus the marked-message
// annotations and the port-occupancy model.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "switchdir/dresar.h"

namespace dresar {
namespace {

class DresarFsm : public ::testing::Test {
 protected:
  DresarFsm() : topo_(16, 8), mgr_(cfg(), topo_, 32, 16, stats_) {}

  static SwitchDirConfig cfg() {
    SwitchDirConfig c;
    c.entries = 64;
    c.associativity = 4;
    return c;
  }

  Message msg(MsgType t, Endpoint src, Endpoint dst, Addr a, NodeId req = kInvalidNode,
              bool marked = false) {
    Message m;
    m.type = t;
    m.src = src;
    m.dst = dst;
    m.addr = a;
    m.requester = req;
    m.marked = marked;
    return m;
  }

  /// Run a snoop at switch (1,0) — the root switch of memories 0..3.
  SnoopOutcome snoop(Message& m, std::vector<Message>& spawn, Cycle now = 0) {
    return mgr_.onMessage(sw_, now, m, spawn);
  }

  /// Deposit a MODIFIED entry for `a` owned by `owner` (WriteReply snoop).
  void deposit(Addr a, NodeId owner) {
    Message wr = msg(MsgType::WriteReply, memEp(0), procEp(owner), a, owner);
    std::vector<Message> spawn;
    ASSERT_TRUE(snoop(wr, spawn).pass);
    ASSERT_TRUE(spawn.empty());
  }

  /// Move an entry to TRANSIENT by snooping a read from `req`.
  void makeTransient(Addr a, NodeId owner, NodeId req) {
    deposit(a, owner);
    Message rd = msg(MsgType::ReadRequest, procEp(req), memEp(0), a, req);
    std::vector<Message> spawn;
    ASSERT_FALSE(snoop(rd, spawn).pass);
    ASSERT_EQ(spawn.size(), 1u);
  }

  const SDEntry* entry(Addr a) { return mgr_.cacheAt(sw_).peek(a); }

  StatRegistry stats_;
  Butterfly topo_;
  DresarManager mgr_;
  SwitchId sw_{1, 0};
};

TEST_F(DresarFsm, WriteReplyDepositsModifiedEntry) {
  deposit(0x100, 7);
  const SDEntry* e = entry(0x100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, SDState::Modified);
  EXPECT_EQ(e->owner, 7u);
  EXPECT_EQ(mgr_.deposits(), 1u);
}

TEST_F(DresarFsm, WriteReplyUpdatesOwnerInPlace) {
  deposit(0x100, 7);
  deposit(0x100, 9);
  EXPECT_EQ(entry(0x100)->owner, 9u);
}

TEST_F(DresarFsm, ReadRequestMissPassesUntouched) {
  Message rd = msg(MsgType::ReadRequest, procEp(2), memEp(0), 0x200, 2);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(rd, spawn).pass);
  EXPECT_TRUE(spawn.empty());
  EXPECT_EQ(entry(0x200), nullptr);
}

TEST_F(DresarFsm, ReadHitOnModifiedSinksAndRoutesToOwner) {
  deposit(0x100, 7);
  Message rd = msg(MsgType::ReadRequest, procEp(2), memEp(0), 0x100, 2);
  std::vector<Message> spawn;
  EXPECT_FALSE(snoop(rd, spawn).pass);  // sunk
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::CtoCRequest);
  EXPECT_EQ(spawn[0].dst, procEp(7));
  EXPECT_EQ(spawn[0].requester, 2u);
  EXPECT_TRUE(spawn[0].marked);
  EXPECT_TRUE(spawn[0].viaSwitchDir);
  // Entry records the transaction.
  const SDEntry* e = entry(0x100);
  EXPECT_EQ(e->state, SDState::Transient);
  EXPECT_EQ(e->requester, 2u);
  EXPECT_EQ(mgr_.ctocInitiated(), 1u);
}

TEST_F(DresarFsm, ReadHitOnTransientRetriesRequester) {
  makeTransient(0x100, 7, 2);
  Message rd = msg(MsgType::ReadRequest, procEp(3), memEp(0), 0x100, 3);
  std::vector<Message> spawn;
  EXPECT_FALSE(snoop(rd, spawn).pass);
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::Retry);
  EXPECT_EQ(spawn[0].dst, procEp(3));
  EXPECT_TRUE(spawn[0].marked);
  // The original transaction is untouched.
  EXPECT_EQ(entry(0x100)->requester, 2u);
  EXPECT_EQ(mgr_.readRetries(), 1u);
}

TEST_F(DresarFsm, StaleSelfReadDropsEntryAndPasses) {
  deposit(0x100, 7);
  Message rd = msg(MsgType::ReadRequest, procEp(7), memEp(0), 0x100, 7);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(rd, spawn).pass);
  EXPECT_TRUE(spawn.empty());
  EXPECT_EQ(entry(0x100), nullptr);
  EXPECT_EQ(mgr_.staleSelfHits(), 1u);
}

TEST_F(DresarFsm, WriteRequestInvalidatesModifiedAndPasses) {
  deposit(0x100, 7);
  Message wr = msg(MsgType::WriteRequest, procEp(3), memEp(0), 0x100, 3);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(wr, spawn).pass);
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, WriteRequestOnTransientIsSunkWithRetry) {
  makeTransient(0x100, 7, 2);
  Message wr = msg(MsgType::WriteRequest, procEp(3), memEp(0), 0x100, 3);
  std::vector<Message> spawn;
  EXPECT_FALSE(snoop(wr, spawn).pass);
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::Retry);
  EXPECT_EQ(spawn[0].dst, procEp(3));
  EXPECT_EQ(mgr_.writeRetries(), 1u);
  EXPECT_EQ(entry(0x100)->state, SDState::Transient);
}

TEST_F(DresarFsm, HomeCtoCRequestInvalidatesModified) {
  deposit(0x100, 7);
  Message fwd = msg(MsgType::CtoCRequest, memEp(0), procEp(7), 0x100, 3);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(fwd, spawn).pass);
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, CtoCRequestPassesThroughTransient) {
  // Deliberate deviation from the paper's Table (which sinks here): a sunk
  // home request deadlocks when this switch's own transfer fails on a stale
  // owner; passing is always safe (see dresar.cpp).
  makeTransient(0x100, 7, 2);
  Message fwd = msg(MsgType::CtoCRequest, memEp(0), procEp(7), 0x100, 3);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(fwd, spawn).pass);
  EXPECT_TRUE(spawn.empty());
  EXPECT_EQ(entry(0x100)->state, SDState::Transient);
}

TEST_F(DresarFsm, CopyBackClearsModifiedEntry) {
  deposit(0x100, 7);
  Message cb = msg(MsgType::CopyBack, procEp(7), memEp(0), 0x100, 3);
  cb.carriedSharers = 1u << 3;
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(cb, spawn).pass);
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, CopyBackMatchingTransientJustClears) {
  makeTransient(0x100, 7, 2);
  Message cb = msg(MsgType::CopyBack, procEp(7), memEp(0), 0x100, 2, /*marked=*/true);
  cb.carriedSharers = 1u << 2;  // it serves our requester
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(cb, spawn).pass);
  EXPECT_TRUE(spawn.empty());
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, CopyBackForOtherRequesterServesOursFromData) {
  makeTransient(0x100, 7, 2);
  // A copyback produced by a different transaction (serving proc 5) passes.
  Message cb = msg(MsgType::CopyBack, procEp(7), memEp(0), 0x100, 5, /*marked=*/true);
  cb.carriedSharers = 1u << 5;
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(cb, spawn).pass);
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::ReadReply);
  EXPECT_EQ(spawn[0].dst, procEp(2));
  EXPECT_TRUE(spawn[0].marked);
  // The pass-through message now carries our requester to the home too.
  EXPECT_NE(cb.carriedSharers & (1u << 2), 0u);
  EXPECT_EQ(entry(0x100), nullptr);
  EXPECT_EQ(mgr_.copyBackServes(), 1u);
}

TEST_F(DresarFsm, WriteBackServesTransientRequesterAndAnnotates) {
  makeTransient(0x100, 7, 2);
  Message wb = msg(MsgType::WriteBack, procEp(7), memEp(0), 0x100);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(wb, spawn).pass);
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::ReadReply);
  EXPECT_EQ(spawn[0].dst, procEp(2));
  EXPECT_TRUE(wb.marked);
  EXPECT_NE(wb.carriedSharers & (1u << 2), 0u);
  EXPECT_EQ(entry(0x100), nullptr);
  EXPECT_EQ(mgr_.writeBackServes(), 1u);
}

TEST_F(DresarFsm, WriteBackClearsModifiedSilently) {
  deposit(0x100, 7);
  Message wb = msg(MsgType::WriteBack, procEp(7), memEp(0), 0x100);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(wb, spawn).pass);
  EXPECT_TRUE(spawn.empty());
  EXPECT_FALSE(wb.marked);
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, MarkedOwnerRetryClearsTransientAndBouncesRequester) {
  makeTransient(0x100, 7, 2);
  Message rt = msg(MsgType::Retry, procEp(7), memEp(0), 0x100, 2, /*marked=*/true);
  std::vector<Message> spawn;
  // Passes onward so any other TRANSIENT switch on the path is cleared too.
  EXPECT_TRUE(snoop(rt, spawn).pass);
  ASSERT_EQ(spawn.size(), 1u);
  EXPECT_EQ(spawn[0].type, MsgType::Retry);
  EXPECT_EQ(spawn[0].dst, procEp(2));
  EXPECT_EQ(entry(0x100), nullptr);
}

TEST_F(DresarFsm, MarkedOwnerRetryPassesWhenEntryGone) {
  Message rt = msg(MsgType::Retry, procEp(7), memEp(0), 0x100, 2, /*marked=*/true);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(rt, spawn).pass);  // home will drop it
  EXPECT_TRUE(spawn.empty());
}

TEST_F(DresarFsm, RetryTowardProcessorIsIgnored) {
  makeTransient(0x100, 7, 2);
  Message rt = msg(MsgType::Retry, procEp(3), procEp(3), 0x100, 3, /*marked=*/true);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(rt, spawn).pass);
  EXPECT_EQ(entry(0x100)->state, SDState::Transient);  // untouched
}

TEST_F(DresarFsm, InvalidationIgnoredByDefault) {
  deposit(0x100, 7);
  Message inv = msg(MsgType::Invalidation, memEp(0), procEp(7), 0x100);
  std::vector<Message> spawn;
  EXPECT_TRUE(snoop(inv, spawn).pass);
  EXPECT_NE(entry(0x100), nullptr);
}

TEST_F(DresarFsm, DataRepliesNeedNoProcessing) {
  deposit(0x100, 7);
  for (const MsgType t : {MsgType::ReadReply, MsgType::CtoCReply, MsgType::InvalAck}) {
    Message m = msg(t, memEp(0), procEp(1), 0x100, 1);
    std::vector<Message> spawn;
    EXPECT_TRUE(snoop(m, spawn).pass);
    EXPECT_TRUE(spawn.empty());
    EXPECT_NE(entry(0x100), nullptr);
  }
}

TEST_F(DresarFsm, TransientCountTracksPendingBufferOccupancy) {
  makeTransient(0x100, 7, 2);
  makeTransient(0x200, 8, 3);
  EXPECT_EQ(mgr_.transientEntries(), 2u);
  Message cb = msg(MsgType::CopyBack, procEp(7), memEp(0), 0x100, 2, true);
  cb.carriedSharers = 1u << 2;
  std::vector<Message> spawn;
  snoop(cb, spawn);
  EXPECT_EQ(mgr_.transientEntries(), 1u);
}

TEST_F(DresarFsm, PortContentionDelaysBurstOfRequests) {
  // 2 snoop ports per cycle: the third request in one cycle waits.
  deposit(0x100, 7);
  std::vector<Message> spawn;
  Cycle totalDelay = 0;
  for (int i = 0; i < 4; ++i) {
    Message rd = msg(MsgType::ReadRequest, procEp(2), memEp(0), 0x200 + i * 0x1000ull, 2);
    totalDelay += snoop(rd, spawn, /*now=*/100).extraDelay;
  }
  EXPECT_GT(totalDelay, 0u);
}

class DresarInvalSnoop : public DresarFsm {};

TEST_F(DresarFsm, DisabledManagerPassesEverything) {
  SwitchDirConfig off;
  off.entries = 0;
  DresarManager mgr(off, topo_, 32, 16, stats_);
  Message rd = msg(MsgType::ReadRequest, procEp(2), memEp(0), 0x100, 2);
  std::vector<Message> spawn;
  EXPECT_TRUE(mgr.onMessage(sw_, 0, rd, spawn).pass);
  EXPECT_FALSE(mgr.enabled());
}

TEST(DresarInvalSnoopOpt, InvalidationSnoopClearsModified) {
  StatRegistry stats;
  Butterfly topo(16, 8);
  SwitchDirConfig c;
  c.entries = 64;
  c.associativity = 4;
  c.snoopInvalidations = true;
  DresarManager mgr(c, topo, 32, 16, stats);
  const SwitchId sw{1, 0};
  Message wr;
  wr.type = MsgType::WriteReply;
  wr.src = memEp(0);
  wr.dst = procEp(7);
  wr.addr = 0x100;
  std::vector<Message> spawn;
  mgr.onMessage(sw, 0, wr, spawn);
  ASSERT_NE(mgr.cacheAt(sw).peek(0x100), nullptr);
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(0);
  inv.dst = procEp(7);
  inv.addr = 0x100;
  EXPECT_TRUE(mgr.onMessage(sw, 0, inv, spawn).pass);
  EXPECT_EQ(mgr.cacheAt(sw).peek(0x100), nullptr);
}

TEST(DresarPendingBuffer, FullBufferFallsBackToMainPorts) {
  // Regression for the capacity comparison in reservePorts: with N pending
  // buffer entries, transientCount == N means the buffer is full and
  // pending-eligible snoops must fall back to the 2-wide main directory
  // ports. The old `<=` admitted that boundary case to the 4-wide
  // pending-buffer ports, under-reporting contention.
  StatRegistry stats;
  Butterfly topo(16, 8);
  SwitchDirConfig c;
  c.entries = 64;
  c.associativity = 4;
  c.pendingBufferEntries = 1;
  DresarManager mgr(c, topo, 32, 16, stats);
  const SwitchId sw{1, 0};

  // A CtoCRequest that misses the directory is pass-through but still pays
  // for its snoop; its port-contention delay exposes which port pool served
  // it (pending buffer: 4/cycle, main directory: 2/cycle).
  const auto ctocMiss = [&](Addr a, Cycle now) {
    Message m;
    m.type = MsgType::CtoCRequest;
    m.src = procEp(2);
    m.dst = procEp(7);
    m.addr = a;
    m.requester = 2;
    std::vector<Message> spawn;
    const SnoopOutcome out = mgr.onMessage(sw, now, m, spawn);
    EXPECT_TRUE(out.pass);
    EXPECT_TRUE(spawn.empty());
    return out.extraDelay;
  };

  // Buffer has a free slot: a 5-snoop burst on the 4-wide pending ports pays
  // exactly one cycle of contention (delays 0,0,0,0,1).
  Cycle burst = 0;
  for (int i = 0; i < 5; ++i) burst += ctocMiss(0x10000 + i * 0x1000ull, /*now=*/100);
  EXPECT_EQ(burst, 1u);

  // Occupy the single pending-buffer slot: deposit MODIFIED, then a foreign
  // read moves the entry to TRANSIENT.
  {
    Message wr;
    wr.type = MsgType::WriteReply;
    wr.src = memEp(0);
    wr.dst = procEp(7);
    wr.addr = 0x100;
    wr.requester = 7;
    std::vector<Message> spawn;
    ASSERT_TRUE(mgr.onMessage(sw, 110, wr, spawn).pass);
    Message rd;
    rd.type = MsgType::ReadRequest;
    rd.src = procEp(2);
    rd.dst = memEp(0);
    rd.addr = 0x100;
    rd.requester = 2;
    ASSERT_FALSE(mgr.onMessage(sw, 120, rd, spawn).pass);
  }
  ASSERT_EQ(mgr.transientEntries(), 1u);

  // transientCount == pendingBufferEntries: the buffer is full, so the same
  // burst now runs on the 2-wide main ports (delays 0,0,1,1,2).
  burst = 0;
  for (int i = 0; i < 5; ++i) burst += ctocMiss(0x20000 + i * 0x1000ull, /*now=*/200);
  EXPECT_EQ(burst, 4u);
}

}  // namespace
}  // namespace dresar
