// CacheController unit tests with a scripted home: the directory side is
// replaced by capture-and-reply handlers so each protocol case is exercised
// in isolation.
#include "coherence/cache_controller.h"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/sim_kernel.h"
#include "common/stats.h"
#include "interconnect/network.h"

namespace dresar {
namespace {

/// A load record that keeps its outcome for the test to inspect.
struct TestLoad : LoadWaiter {
  TestLoad() {
    complete = [](LoadWaiter& w) { static_cast<TestLoad&>(w).result = w.readResult(); };
  }
  std::optional<ReadResult> result;
};

/// A store record that counts its acceptances into `*accepted`.
struct TestStore : StoreWaiter {
  explicit TestStore(std::uint32_t* counter) : accepted(counter) {
    complete = [](StoreWaiter& w) { ++*static_cast<TestStore&>(w).accepted; };
  }
  std::uint32_t* accepted;
};

class CacheCtrlTest : public ::testing::Test {
 protected:
  CacheCtrlTest()
      : net_(cfg_.net, cfg_.numNodes, cfg_.lineBytes, kernel_.queue(), kernel_.stats(),
             NetworkHooks{&sink_, nullptr, nullptr, nullptr}),
        ctrl_(0, cfg_, kernel_.queue(), net_, kernel_.stats()) {
    sink_.on(procEp(0), [this](const Message& m) { ctrl_.onMessage(m); });
    for (NodeId n = 1; n < cfg_.numNodes; ++n) {
      sink_.on(procEp(n), [this](const Message& m) { toProcs_.push_back(m); });
    }
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
      sink_.on(memEp(n), [this](const Message& m) { toHome_.push_back(m); });
    }
  }

  /// Address homed at node 1 (remote for our controller at node 0).
  Addr remoteAddr(std::uint32_t i = 0) const { return cfg_.pageBytes + i * cfg_.lineBytes; }

  void reply(MsgType t, Addr block, bool marked = false, bool viaSwitchDir = false) {
    Message m;
    m.type = t;
    m.src = t == MsgType::CtoCReply ? procEp(5) : memEp(cfg_.homeOf(block));
    m.dst = procEp(0);
    m.addr = block;
    m.requester = 0;
    m.marked = marked;
    m.viaSwitchDir = viaSwitchDir;
    net_.send(m);
  }

  /// Issue a load whose record the fixture keeps alive.
  TestLoad& load(Addr a) {
    TestLoad& w = loads_.emplace_back();
    ctrl_.cpuRead(a, w);
    return w;
  }

  /// Issue a store; `accepted` (if given) counts its acceptance.
  void store(Addr a, std::uint32_t* accepted = nullptr) {
    TestStore& w = stores_.emplace_back(accepted != nullptr ? accepted : &ignored_);
    ctrl_.cpuWrite(a, w);
  }

  /// NAK the outstanding request for `block` and let the backoff reissue it.
  void nakAndReissue(Addr block) {
    Message rt;
    rt.type = MsgType::Retry;
    rt.src = procEp(0);
    rt.dst = procEp(0);
    rt.addr = block;
    rt.requester = 0;
    rt.marked = true;
    net_.send(rt);
    kernel_.run();
  }

  std::optional<Message> lastHomeMsg(MsgType t) {
    for (auto it = toHome_.rbegin(); it != toHome_.rend(); ++it) {
      if (it->type == t) return *it;
    }
    return std::nullopt;
  }

  SystemConfig cfg_;
  SimKernel kernel_;
  FnSink sink_;
  Network net_;
  CacheController ctrl_;
  StatRegistry& stats_ = kernel_.stats();
  std::vector<Message> toHome_;
  std::vector<Message> toProcs_;
  std::deque<TestLoad> loads_;  ///< deque: records keep their addresses
  std::deque<TestStore> stores_;
  std::uint32_t ignored_ = 0;
};

TEST_F(CacheCtrlTest, ReadMissSendsReadRequestAndFillsShared) {
  const Addr a = remoteAddr();
  const std::optional<ReadResult>& result = load(a).result;
  kernel_.run();
  ASSERT_TRUE(lastHomeMsg(MsgType::ReadRequest).has_value());
  EXPECT_FALSE(result.has_value());  // blocked until the reply
  reply(MsgType::ReadReply, a);
  kernel_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->service, ReadService::CleanMemory);
  EXPECT_GT(result->latency, 0u);
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::S);
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, SecondReadIsAHit) {
  const Addr a = remoteAddr();
  load(a);
  kernel_.run();
  reply(MsgType::ReadReply, a);
  kernel_.run();
  const std::optional<ReadResult>& r2 = load(a).result;
  kernel_.run();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->service, ReadService::L1Hit);
  EXPECT_EQ(r2->latency, cfg_.l1AccessCycles);
}

TEST_F(CacheCtrlTest, CtoCReplyClassifiesByOrigin) {
  const Addr a = remoteAddr();
  const std::optional<ReadResult>& result = load(a).result;
  kernel_.run();
  reply(MsgType::CtoCReply, a, /*marked=*/false, /*viaSwitchDir=*/true);
  kernel_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->service, ReadService::CtoCSwitchDir);
}

TEST_F(CacheCtrlTest, MarkedReadReplyIsSwitchWriteBackService) {
  const Addr a = remoteAddr();
  const std::optional<ReadResult>& result = load(a).result;
  kernel_.run();
  reply(MsgType::ReadReply, a, /*marked=*/true);
  kernel_.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->service, ReadService::SwitchWriteBack);
}

TEST_F(CacheCtrlTest, StoreRetiresImmediatelyOwnershipInBackground) {
  const Addr a = remoteAddr();
  std::uint32_t retired = 0;
  store(a, &retired);
  kernel_.run();
  EXPECT_EQ(retired, 1u);  // release consistency: the core never waited
  ASSERT_TRUE(lastHomeMsg(MsgType::WriteRequest).has_value());
  EXPECT_FALSE(ctrl_.quiescent());
  reply(MsgType::WriteReply, a);
  kernel_.run();
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::M);
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, DrainWaitsForOutstandingStores) {
  const Addr a = remoteAddr();
  store(a);
  bool drained = false;
  kernel_.run();
  ctrl_.drainWrites([&] { drained = true; });
  EXPECT_FALSE(drained);
  reply(MsgType::WriteReply, a);
  kernel_.run();
  EXPECT_TRUE(drained);
}

TEST_F(CacheCtrlTest, WriteBufferFullStallsExtraStores) {
  // Fill the write buffer with distinct-miss stores, then one more.
  std::uint32_t accepted = 0;
  for (std::uint32_t i = 0; i <= cfg_.writeBufferEntries; ++i) {
    store(remoteAddr(i), &accepted);
  }
  kernel_.run();
  EXPECT_EQ(accepted, cfg_.writeBufferEntries);
  EXPECT_GT(stats_.counterValue("cache.0.wb_full_stalls"), 0u);
  // Completing one store releases the stalled one.
  reply(MsgType::WriteReply, remoteAddr(0));
  kernel_.run();
  EXPECT_EQ(accepted, cfg_.writeBufferEntries + 1);
}

TEST_F(CacheCtrlTest, LoadMergesIntoPendingStoreMshr) {
  const Addr a = remoteAddr();
  store(a);
  kernel_.run();
  const std::optional<ReadResult>& result = load(a).result;
  kernel_.run();
  // Only one request went to the home.
  std::size_t requests = 0;
  for (const auto& m : toHome_) {
    if (m.type == MsgType::WriteRequest || m.type == MsgType::ReadRequest) ++requests;
  }
  EXPECT_EQ(requests, 1u);
  reply(MsgType::WriteReply, a);
  kernel_.run();
  ASSERT_TRUE(result.has_value());
}

TEST_F(CacheCtrlTest, LoadsMergedIntoALiveReadMshrCompleteWithTheFill) {
  const Addr a = remoteAddr();
  const Cycle firstStart = kernel_.now();
  const TestLoad& first = load(a);
  kernel_.run();
  nakAndReissue(a);  // the transaction now has one retry
  const Cycle secondStart = kernel_.now();
  const TestLoad& second = load(a);
  kernel_.run();
  EXPECT_FALSE(first.result.has_value());
  EXPECT_FALSE(second.result.has_value());
  EXPECT_EQ(stats_.counterValue("cache.0.read_merged"), 1u);
  EXPECT_EQ(stats_.counterValue("cache.0.read_misses"), 1u);
  reply(MsgType::CtoCReply, a, /*marked=*/false, /*viaSwitchDir=*/true);
  kernel_.run();
  const Cycle fill = kernel_.now();
  ASSERT_TRUE(first.result.has_value());
  ASSERT_TRUE(second.result.has_value());
  for (const auto& [r, start] : {std::pair{*first.result, firstStart},
                                 std::pair{*second.result, secondStart}}) {
    EXPECT_EQ(r.service, ReadService::CtoCSwitchDir);
    EXPECT_EQ(r.latency, fill - start);
    EXPECT_EQ(r.retries, 1u);
  }
  EXPECT_GT(first.result->latency, second.result->latency);
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, LoadsMergedIntoAStoreOwnershipFetchCompleteWithTheGrant) {
  const Addr a = remoteAddr();
  store(a);
  kernel_.run();
  nakAndReissue(a);
  const Cycle firstStart = kernel_.now();
  const TestLoad& first = load(a);
  kernel_.run();
  const Cycle secondStart = kernel_.now();
  const TestLoad& second = load(a);
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("cache.0.read_merged"), 2u);
  reply(MsgType::WriteReply, a);
  kernel_.run();
  const Cycle fill = kernel_.now();
  ASSERT_TRUE(first.result.has_value());
  ASSERT_TRUE(second.result.has_value());
  for (const auto& [r, start] : {std::pair{*first.result, firstStart},
                                 std::pair{*second.result, secondStart}}) {
    EXPECT_EQ(r.service, ReadService::CleanMemory);
    EXPECT_EQ(r.latency, fill - start);
    EXPECT_EQ(r.retries, 1u);
  }
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::M);
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, StoreAfterReadUpgradesViaSecondRequest) {
  const Addr a = remoteAddr();
  load(a);
  kernel_.run();
  reply(MsgType::ReadReply, a);
  kernel_.run();
  store(a);
  kernel_.run();
  ASSERT_TRUE(lastHomeMsg(MsgType::WriteRequest).has_value());
  reply(MsgType::WriteReply, a);
  kernel_.run();
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::M);
}

TEST_F(CacheCtrlTest, InvalidationOfSharedLineAcks) {
  const Addr a = remoteAddr();
  load(a);
  kernel_.run();
  reply(MsgType::ReadReply, a);
  kernel_.run();
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(1);
  inv.dst = procEp(0);
  inv.addr = a;
  net_.send(inv);
  kernel_.run();
  EXPECT_TRUE(lastHomeMsg(MsgType::InvalAck).has_value());
  EXPECT_EQ(ctrl_.l2().peek(a), nullptr);
}

TEST_F(CacheCtrlTest, RecallOfDirtyLineCopiesBack) {
  const Addr a = remoteAddr();
  store(a);
  kernel_.run();
  reply(MsgType::WriteReply, a);
  kernel_.run();
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(1);
  inv.dst = procEp(0);
  inv.addr = a;
  inv.recall = true;
  net_.send(inv);
  kernel_.run();
  const auto cb = lastHomeMsg(MsgType::CopyBack);
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(cb->recall);
  EXPECT_EQ(ctrl_.l2().peek(a), nullptr);
}

TEST_F(CacheCtrlTest, RecallWithUngratedWriteAcksImmediately) {
  // The home's per-destination FIFO guarantees a recall can never overtake
  // the WriteReply that granted ownership, so a recall that finds the line
  // gone — even with our own (re-)request outstanding — is from an epoch we
  // already left and must be acked at once (deferring would deadlock the
  // home, whose queue holds our request).
  const Addr a = remoteAddr();
  store(a);
  kernel_.run();  // WriteRequest out, MSHR waiting
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(1);
  inv.dst = procEp(0);
  inv.addr = a;
  inv.recall = true;
  net_.send(inv);
  kernel_.run();
  EXPECT_TRUE(lastHomeMsg(MsgType::InvalAck).has_value());
  reply(MsgType::WriteReply, a);
  kernel_.run();
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::M);
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, CtoCRequestSuppliesDataAndCopiesBack) {
  const Addr a = remoteAddr();
  store(a);
  kernel_.run();
  reply(MsgType::WriteReply, a);
  kernel_.run();
  Message req;
  req.type = MsgType::CtoCRequest;
  req.src = memEp(1);
  req.dst = procEp(0);
  req.addr = a;
  req.requester = 5;
  net_.send(req);
  kernel_.run();
  ASSERT_FALSE(toProcs_.empty());
  EXPECT_EQ(toProcs_.back().type, MsgType::CtoCReply);
  EXPECT_EQ(toProcs_.back().dst, procEp(5));
  const auto cb = lastHomeMsg(MsgType::CopyBack);
  ASSERT_TRUE(cb.has_value());
  EXPECT_EQ(cb->carriedSharers, 1ull << 5);
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::S);
}

TEST_F(CacheCtrlTest, MarkedCtoCOnMissingLineRetriesTowardHome) {
  Message req;
  req.type = MsgType::CtoCRequest;
  req.src = procEp(5);
  req.dst = procEp(0);
  req.addr = remoteAddr();
  req.requester = 5;
  req.marked = true;
  net_.send(req);
  kernel_.run();
  const auto rt = lastHomeMsg(MsgType::Retry);
  ASSERT_TRUE(rt.has_value());
  EXPECT_TRUE(rt->marked);
  EXPECT_EQ(rt->requester, 5u);
  EXPECT_EQ(rt->dst, memEp(1));
}

TEST_F(CacheCtrlTest, UnmarkedCtoCOnMissingLineIsDropped) {
  Message req;
  req.type = MsgType::CtoCRequest;
  req.src = memEp(1);
  req.dst = procEp(0);
  req.addr = remoteAddr();
  req.requester = 5;
  net_.send(req);
  kernel_.run();
  EXPECT_FALSE(lastHomeMsg(MsgType::Retry).has_value());
  EXPECT_GT(stats_.counterValue("cache.0.ctoc_dropped_wb_race"), 0u);
}

TEST_F(CacheCtrlTest, RetryReissuesAfterBackoff) {
  const Addr a = remoteAddr();
  load(a);
  kernel_.run();
  const std::size_t before = toHome_.size();
  Message rt;
  rt.type = MsgType::Retry;
  rt.src = procEp(0);
  rt.dst = procEp(0);
  rt.addr = a;
  rt.requester = 0;
  rt.marked = true;
  net_.send(rt);
  kernel_.run();
  EXPECT_GT(toHome_.size(), before);  // re-issued ReadRequest
  EXPECT_EQ(toHome_.back().type, MsgType::ReadRequest);
  EXPECT_EQ(stats_.counterValue("cache.0.retries"), 1u);
  reply(MsgType::ReadReply, a);
  kernel_.run();
  EXPECT_TRUE(ctrl_.quiescent());
}

TEST_F(CacheCtrlTest, SpuriousRetryAndFillAreCounted) {
  Message rt;
  rt.type = MsgType::Retry;
  rt.src = procEp(0);
  rt.dst = procEp(0);
  rt.addr = remoteAddr();
  rt.requester = 0;
  net_.send(rt);
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("cache.0.spurious_retries"), 1u);
  reply(MsgType::ReadReply, remoteAddr());
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("cache.0.spurious_fills"), 1u);
}

TEST_F(CacheCtrlTest, FillThenInvalidateDeliversDataButKillsLine) {
  const Addr a = remoteAddr();
  const std::optional<ReadResult>& result = load(a).result;
  kernel_.run();
  // Invalidation for the in-flight fill (write serialized after our read).
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(1);
  inv.dst = procEp(0);
  inv.addr = a;
  net_.send(inv);
  kernel_.run();
  EXPECT_TRUE(lastHomeMsg(MsgType::InvalAck).has_value());
  reply(MsgType::ReadReply, a);
  kernel_.run();
  ASSERT_TRUE(result.has_value());        // the load completed...
  EXPECT_EQ(ctrl_.l2().peek(a), nullptr); // ...but the line is dead
}

TEST_F(CacheCtrlTest, DirtyEvictionEmitsWriteBack) {
  // Fill one set (4 ways at 128KB/4-way/32B => set stride 32KB * ... use
  // addresses that map to the same set: stride = numSets*line = 32KB).
  const Addr stride = cfg_.l2Bytes / cfg_.l2Assoc;
  for (std::uint32_t i = 0; i <= cfg_.l2Assoc; ++i) {
    const Addr a = cfg_.pageBytes + i * stride;
    store(a);
    kernel_.run();
    reply(MsgType::WriteReply, a);
    kernel_.run();
  }
  EXPECT_TRUE(lastHomeMsg(MsgType::WriteBack).has_value());
  EXPECT_GT(stats_.counterValue("cache.0.writebacks"), 0u);
}

TEST_F(CacheCtrlTest, RmwCompletesHoldingOwnership) {
  const Addr a = remoteAddr();
  bool done = false;
  ctrl_.cpuRmw(a, [&] { done = true; });
  kernel_.run();
  EXPECT_FALSE(done);
  reply(MsgType::WriteReply, a);
  kernel_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(ctrl_.l2().peek(a)->state, CacheState::M);
}

}  // namespace
}  // namespace dresar
