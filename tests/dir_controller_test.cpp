// DirController unit tests with scripted caches: every directory transition,
// the BUSY pending queue, marked copyback/writeback handling, and the
// per-destination FIFO property of the home's output port.
#include "coherence/dir_controller.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/sim_kernel.h"
#include "common/stats.h"
#include "interconnect/network.h"

namespace dresar {
namespace {

class DirCtrlTest : public ::testing::Test {
 protected:
  DirCtrlTest()
      : net_(cfg_.net, cfg_.numNodes, cfg_.lineBytes, kernel_.queue(), kernel_.stats(),
             NetworkHooks{&sink_, nullptr, nullptr, nullptr}),
        home_(0, cfg_, kernel_.queue(), net_, kernel_.stats()) {
    sink_.on(memEp(0), [this](const Message& m) { home_.onMessage(m); });
    for (NodeId n = 1; n < cfg_.numNodes; ++n) {
      sink_.on(memEp(n), [](const Message&) {});
    }
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
      sink_.on(procEp(n), [this, n](const Message& m) {
        toProc_[n].push_back(m);
      });
    }
  }

  // Block homed at node 0.
  static constexpr Addr kBlock = 0x40;

  void send(MsgType t, NodeId from, Addr a = kBlock, NodeId requester = kInvalidNode,
            std::uint64_t carried = 0, bool marked = false, bool recall = false) {
    Message m;
    m.type = t;
    m.src = procEp(from);
    m.dst = memEp(0);
    m.addr = a;
    m.requester = requester == kInvalidNode ? from : requester;
    m.carriedSharers = carried;
    m.marked = marked;
    m.recall = recall;
    net_.send(m);
  }

  std::optional<Message> lastTo(NodeId n, MsgType t) {
    for (auto it = toProc_[n].rbegin(); it != toProc_[n].rend(); ++it) {
      if (it->type == t) return *it;
    }
    return std::nullopt;
  }

  SystemConfig cfg_;
  SimKernel kernel_;
  FnSink sink_;
  Network net_;
  DirController home_;
  StatRegistry& stats_ = kernel_.stats();
  std::vector<Message> toProc_[16];
};

TEST_F(DirCtrlTest, ReadOfUncachedBlockRepliesAndShares) {
  send(MsgType::ReadRequest, 2);
  kernel_.run();
  ASSERT_TRUE(lastTo(2, MsgType::ReadReply).has_value());
  const auto* e = home_.peek(kBlock);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_EQ(e->sharers, 1ull << 2);
}

TEST_F(DirCtrlTest, WriteOfUncachedBlockGrantsOwnership) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  ASSERT_TRUE(lastTo(3, MsgType::WriteReply).has_value());
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Modified);
  EXPECT_EQ(home_.peek(kBlock)->owner, 3u);
}

TEST_F(DirCtrlTest, SoleSharerUpgradesWithoutInvalidations) {
  send(MsgType::ReadRequest, 3);
  kernel_.run();
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  EXPECT_TRUE(lastTo(3, MsgType::WriteReply).has_value());
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_FALSE(lastTo(n, MsgType::Invalidation).has_value());
  }
  EXPECT_EQ(home_.peek(kBlock)->owner, 3u);
}

TEST_F(DirCtrlTest, WriteToSharedInvalidatesOthersThenGrants) {
  send(MsgType::ReadRequest, 2);
  send(MsgType::ReadRequest, 4);
  kernel_.run();
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  // Invalidations went to 2 and 4; grant withheld until both ack.
  ASSERT_TRUE(lastTo(2, MsgType::Invalidation).has_value());
  ASSERT_TRUE(lastTo(4, MsgType::Invalidation).has_value());
  EXPECT_FALSE(lastTo(3, MsgType::WriteReply).has_value());
  send(MsgType::InvalAck, 2);
  kernel_.run();
  EXPECT_FALSE(lastTo(3, MsgType::WriteReply).has_value());
  send(MsgType::InvalAck, 4);
  kernel_.run();
  EXPECT_TRUE(lastTo(3, MsgType::WriteReply).has_value());
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Modified);
  EXPECT_TRUE(home_.quiescent());
}

TEST_F(DirCtrlTest, ReadOfModifiedBlockForwardsCtoC) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::ReadRequest, 5);
  kernel_.run();
  const auto fwd = lastTo(3, MsgType::CtoCRequest);
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->requester, 5u);
  EXPECT_FALSE(fwd->marked);
  EXPECT_EQ(home_.homeCtoCForwards(), 1u);
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::BusyRead);
  // The owner's copyback (carrying the served requester) completes it.
  send(MsgType::CopyBack, 3, kBlock, 5, /*carried=*/1ull << 5);
  kernel_.run();
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Shared);
  EXPECT_EQ(home_.peek(kBlock)->sharers, (1ull << 3) | (1ull << 5));
  // Requester got its data from the owner, not the home.
  EXPECT_FALSE(lastTo(5, MsgType::ReadReply).has_value());
}

TEST_F(DirCtrlTest, CopyBackServingSomeoneElseMakesHomeServeRequester) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::ReadRequest, 5);
  kernel_.run();
  // A switch-initiated transfer served proc 7 instead; its marked copyback
  // arrives at the busy home.
  send(MsgType::CopyBack, 3, kBlock, 7, /*carried=*/1ull << 7, /*marked=*/true);
  kernel_.run();
  EXPECT_TRUE(lastTo(5, MsgType::ReadReply).has_value());  // home serves 5 itself
  EXPECT_EQ(home_.peek(kBlock)->sharers, (1ull << 3) | (1ull << 5) | (1ull << 7));
  EXPECT_TRUE(home_.quiescent());
}

TEST_F(DirCtrlTest, QueuedRequestsDrainAfterBusy) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::ReadRequest, 5);
  kernel_.run();
  send(MsgType::ReadRequest, 6);  // queued behind BusyRead
  send(MsgType::ReadRequest, 7);
  kernel_.run();
  EXPECT_GT(stats_.counterValue("dir.0.queued"), 0u);
  send(MsgType::CopyBack, 3, kBlock, 5, 1ull << 5);
  kernel_.run();
  // Queue drained: 6 and 7 served clean from the now-shared block.
  EXPECT_TRUE(lastTo(6, MsgType::ReadReply).has_value());
  EXPECT_TRUE(lastTo(7, MsgType::ReadReply).has_value());
  EXPECT_TRUE(home_.quiescent());
}

TEST_F(DirCtrlTest, WriteToModifiedRecallsOwner) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::WriteRequest, 4);
  kernel_.run();
  const auto inv = lastTo(3, MsgType::Invalidation);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(inv->recall);
  send(MsgType::CopyBack, 3, kBlock, kInvalidNode, 0, false, /*recall=*/true);
  kernel_.run();
  EXPECT_TRUE(lastTo(4, MsgType::WriteReply).has_value());
  EXPECT_EQ(home_.peek(kBlock)->owner, 4u);
}

TEST_F(DirCtrlTest, WriteBackFromOwnerUncachesBlock) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::WriteBack, 3);
  kernel_.run();
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Uncached);
}

TEST_F(DirCtrlTest, MarkedWriteBackLeavesSwitchServedSharers) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  // The victim writeback was annotated at a switch: proc 9 was served.
  send(MsgType::WriteBack, 3, kBlock, kInvalidNode, 1ull << 9, /*marked=*/true);
  kernel_.run();
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Shared);
  EXPECT_EQ(home_.peek(kBlock)->sharers, 1ull << 9);
}

TEST_F(DirCtrlTest, WriteBackResolvesBusyRead) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::ReadRequest, 5);
  kernel_.run();
  // Owner evicted the block before the forwarded request arrived.
  send(MsgType::WriteBack, 3);
  kernel_.run();
  EXPECT_TRUE(lastTo(5, MsgType::ReadReply).has_value());
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Shared);
  EXPECT_TRUE(home_.quiescent());
}

TEST_F(DirCtrlTest, MarkedCopyBackInModifiedTransitionsToShared) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  // A switch-initiated transfer completed with no home involvement: the
  // "minor modification" of paper 3.2.
  send(MsgType::CopyBack, 3, kBlock, 6, 1ull << 6, /*marked=*/true);
  kernel_.run();
  EXPECT_EQ(home_.peek(kBlock)->state, DirState::Shared);
  EXPECT_EQ(home_.peek(kBlock)->sharers, (1ull << 3) | (1ull << 6));
}

TEST_F(DirCtrlTest, CarriedSharersDuringWriteGetInvalidated) {
  send(MsgType::WriteRequest, 3);
  kernel_.run();
  send(MsgType::WriteRequest, 4);  // recall in flight to 3
  kernel_.run();
  // Before acking, the owner served a switch transfer for proc 8; its marked
  // copyback reaches the busy home, so 8 must now be invalidated too.
  send(MsgType::CopyBack, 3, kBlock, 8, 1ull << 8, /*marked=*/true);
  kernel_.run();
  ASSERT_TRUE(lastTo(8, MsgType::Invalidation).has_value());
  EXPECT_FALSE(lastTo(4, MsgType::WriteReply).has_value());
  send(MsgType::InvalAck, 8);
  kernel_.run();
  EXPECT_FALSE(lastTo(4, MsgType::WriteReply).has_value());  // still awaiting 3
  send(MsgType::InvalAck, 3);  // owner had downgraded to S, acks plain
  kernel_.run();
  EXPECT_TRUE(lastTo(4, MsgType::WriteReply).has_value());
  EXPECT_EQ(home_.peek(kBlock)->owner, 4u);
  EXPECT_TRUE(home_.quiescent());
}

TEST_F(DirCtrlTest, MarkedRetryIsDropped) {
  send(MsgType::Retry, 3, kBlock, 5, 0, /*marked=*/true);
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("dir.0.retry_dropped"), 1u);
}

TEST_F(DirCtrlTest, PerDestinationFifo) {
  // A grant (delayed by the memory access) followed by a recall to the same
  // node must arrive in order: WriteReply first.
  send(MsgType::ReadRequest, 3);
  kernel_.run();
  toProc_[3].clear();
  send(MsgType::WriteRequest, 3);  // upgrade: grant scheduled +memAccess
  send(MsgType::WriteRequest, 4);  // queued; recall to 3 follows the grant
  kernel_.run();
  ASSERT_GE(toProc_[3].size(), 2u);
  EXPECT_EQ(toProc_[3][0].type, MsgType::WriteReply);
  EXPECT_EQ(toProc_[3][1].type, MsgType::Invalidation);
  EXPECT_TRUE(toProc_[3][1].recall);
}

TEST_F(DirCtrlTest, DistinctBlocksAreIndependent) {
  send(MsgType::WriteRequest, 3, kBlock);
  send(MsgType::WriteRequest, 4, kBlock + cfg_.lineBytes);
  kernel_.run();
  EXPECT_EQ(home_.peek(kBlock)->owner, 3u);
  EXPECT_EQ(home_.peek(kBlock + cfg_.lineBytes)->owner, 4u);
}

TEST_F(DirCtrlTest, AnomaliesAreCountedNotFatal) {
  send(MsgType::CopyBack, 3, kBlock, kInvalidNode, 0, false, /*recall=*/true);
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("dir.0.anomaly.recall_copyback"), 1u);
  send(MsgType::InvalAck, 5);
  kernel_.run();
  EXPECT_EQ(stats_.counterValue("dir.0.anomaly.spurious_inval_ack"), 1u);
}

}  // namespace
}  // namespace dresar
