#include "interconnect/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/sim_kernel.h"
#include "common/stats.h"

namespace dresar {
namespace {

// Observer wiring is immutable (NetworkHooks at construction), so fixtures
// that want a snoop pass it to the constructor; delivery handlers register
// on the FnSink adapter, whose address is what the network captures.
struct Fixture {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  Network net;
  StatRegistry& stats = kernel.stats();

  explicit Fixture(ISwitchSnoop* snoop = nullptr)
      : net(cfg, 16, 32, kernel.queue(), kernel.stats(),
            NetworkHooks{&sink, snoop, nullptr, nullptr}) {}

  void run() { kernel.run(); }
  [[nodiscard]] Cycle now() const { return kernel.now(); }
};

Message mkMsg(MsgType t, Endpoint src, Endpoint dst, Addr a = 0x100) {
  Message m;
  m.type = t;
  m.src = src;
  m.dst = dst;
  m.addr = a;
  m.requester = src.kind == EndpointKind::Proc ? src.node : kInvalidNode;
  return m;
}

TEST(Network, DeliversWithExpectedLatency) {
  Fixture f;
  Cycle arrival = kNoCycle;
  f.sink.on(memEp(9), [&](const Message&) { arrival = f.now(); });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  // Header-only message: 1 flit = 4 link cycles per hop, 3 link traversals
  // (inject, stage0->stage1, stage1->mem) + 2 switch core delays of 4.
  EXPECT_EQ(arrival, 3u * 4 + 2u * 4);
}

TEST(Network, DataMessagesSerializeLonger) {
  Fixture f;
  Cycle headerArrival = 0, dataArrival = 0;
  f.sink.on(memEp(9), [&](const Message& m) {
    (carriesData(m.type) ? dataArrival : headerArrival) = f.now();
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));
  f.run();
  // 8B header + 32B line = 5 flits = 20 link cycles per hop.
  EXPECT_EQ(dataArrival - headerArrival, (3u * 20 + 2u * 4));
}

TEST(Network, ContentionQueuesOnSharedLink) {
  Fixture f;
  std::vector<Cycle> arrivals;
  f.sink.on(memEp(9), [&](const Message&) { arrivals.push_back(f.now()); });
  // Two messages from the same source serialize on the injection link.
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9), 0x100));
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9), 0x200));
  f.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 4u);  // pipelined one flit apart
}

TEST(Network, PerPathFifoOrdering) {
  Fixture f;
  std::vector<Addr> order;
  f.sink.on(memEp(9), [&](const Message& m) { order.push_back(m.addr); });
  // A long data message followed by a short one on the same path must not
  // be overtaken (store-and-forward per-link reservation).
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xA));
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9), 0xB));
  f.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0xAu);
  EXPECT_EQ(order[1], 0xBu);
}

class SinkSnoop : public ISwitchSnoop {
 public:
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>& spawn) override {
    ++seen;
    lastSwitch = sw;
    if (sinkAtRoot && sw.stage == 1) {
      if (spawnReply) {
        Message r;
        r.type = MsgType::Retry;
        r.src = procEp(m.requester);
        r.dst = procEp(m.requester);
        r.addr = m.addr;
        r.requester = m.requester;
        r.marked = true;
        spawn.push_back(r);
      }
      return {false, 0};
    }
    return {true, extraDelay};
  }
  int seen = 0;
  SwitchId lastSwitch;
  bool sinkAtRoot = false;
  bool spawnReply = false;
  Cycle extraDelay = 0;
};

TEST(Network, SnoopSeesEverySwitchOnPath) {
  SinkSnoop snoop;
  Fixture f(&snoop);
  f.sink.on(memEp(9), [](const Message&) {});
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_EQ(snoop.seen, 2);  // leaf + root
}

TEST(Network, SnoopCanSinkMessages) {
  SinkSnoop snoop;
  snoop.sinkAtRoot = true;
  Fixture f(&snoop);
  bool delivered = false;
  f.sink.on(memEp(9), [&](const Message&) { delivered = true; });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.net.messagesSunk(), 1u);
}

TEST(Network, SnoopSpawnedMessageIsRoutedFromSwitch) {
  SinkSnoop snoop;
  snoop.sinkAtRoot = true;
  snoop.spawnReply = true;
  Fixture f(&snoop);
  bool retryArrived = false;
  f.sink.on(memEp(9), [](const Message&) {});
  f.sink.on(procEp(5), [&](const Message& m) {
    retryArrived = m.type == MsgType::Retry && m.marked;
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_TRUE(retryArrived);
}

TEST(Network, SnoopExtraDelaySlowsDelivery) {
  // Identical sends through a plain network and one whose snoop charges 10
  // extra cycles at each of the two switches on the path.
  Fixture plain;
  Cycle base = kNoCycle;
  plain.sink.on(memEp(9), [&](const Message&) { base = plain.now(); });
  plain.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  plain.run();

  SinkSnoop snoop;
  snoop.extraDelay = 10;
  Fixture f(&snoop);
  Cycle delayed = kNoCycle;
  f.sink.on(memEp(9), [&](const Message&) { delayed = f.now(); });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_EQ(delayed - base, 2u * 10);
}

TEST(Network, CountsMessagesByType) {
  Fixture f;
  f.sink.on(memEp(0), [](const Message&) {});
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(1), memEp(0)));
  f.net.send(mkMsg(MsgType::WriteRequest, procEp(2), memEp(0)));
  f.run();
  EXPECT_EQ(f.stats.counterValue("net.msgs.ReadRequest"), 1u);
  EXPECT_EQ(f.stats.counterValue("net.msgs.WriteRequest"), 1u);
  EXPECT_EQ(f.net.messagesSent(), 2u);
}

TEST(Network, SendRejectsUnroutableEndpointsBeforeTouchingState) {
  Fixture f;
  // Proc 16 on a 16-node machine would alias mem 0's vertex; mem 40 would
  // read past the route table's row; mem->mem has no butterfly path.
  EXPECT_THROW(f.net.send(mkMsg(MsgType::CtoCReply, procEp(16), procEp(3))), std::out_of_range);
  EXPECT_THROW(f.net.send(mkMsg(MsgType::CtoCReply, procEp(3), procEp(16))), std::out_of_range);
  EXPECT_THROW(f.net.send(mkMsg(MsgType::CtoCReply, procEp(3), memEp(40))), std::out_of_range);
  EXPECT_THROW(f.net.send(mkMsg(MsgType::CtoCReply, memEp(2), memEp(5))), std::invalid_argument);
  EXPECT_EQ(f.net.messagesSent(), 0u);
  EXPECT_EQ(f.stats.counterValue("net.msgs.CtoCReply"), 0u);
  EXPECT_TRUE(f.kernel.queue().empty());
  // No message id was spent on the rejects.
  std::uint64_t id = 0;
  f.sink.on(procEp(4), [&](const Message& m) { id = m.id; });
  f.net.send(mkMsg(MsgType::CtoCReply, procEp(3), procEp(4)));
  f.run();
  EXPECT_EQ(id, 1u);
}

TEST(Network, MissingHandlerThrows) {
  Fixture f;
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(1), memEp(0)));
  EXPECT_THROW(f.run(), std::logic_error);
}

TEST(Network, ProcToProcSameClusterTurnaround) {
  Fixture f;
  Cycle arrival = kNoCycle;
  f.sink.on(procEp(6), [&](const Message& m) {
    EXPECT_EQ(m.type, MsgType::CtoCReply);
    arrival = f.now();
  });
  f.net.send(mkMsg(MsgType::CtoCReply, procEp(4), procEp(6)));
  f.run();
  // One switch (turnaround at the shared leaf): 2 link traversals of a
  // 5-flit data message + 1 core delay.
  EXPECT_EQ(arrival, 2u * 20 + 4);
}

TEST(Network, ProcToProcCrossClusterTraversesThreeSwitches) {
  SinkSnoop snoop;
  Fixture f(&snoop);
  bool arrived = false;
  f.sink.on(procEp(14), [&](const Message&) { arrived = true; });
  f.net.send(mkMsg(MsgType::CtoCReply, procEp(1), procEp(14)));
  f.run();
  EXPECT_TRUE(arrived);
  EXPECT_EQ(snoop.seen, 3);  // leaf, root, leaf
}

TEST(Network, AllPairsDeliver) {
  Fixture f;
  int count = 0;
  for (NodeId m = 0; m < 16; ++m) {
    f.sink.on(memEp(m), [&](const Message&) { ++count; });
  }
  for (NodeId p = 0; p < 16; ++p) {
    for (NodeId m = 0; m < 16; ++m) {
      f.net.send(mkMsg(MsgType::ReadRequest, procEp(p), memEp(m), 0x40ull * (p * 16 + m)));
    }
  }
  f.run();
  EXPECT_EQ(count, 256);
}

TEST(Network, AdaptiveRoutingDeliversAllPairsIdenticallyRouted) {
  // With zero load every candidate route costs the same, so the adaptive
  // policy's min-cost choice falls back to the LCA baseline digit and the
  // two policies deliver with identical latency.
  NetworkConfig base;
  Fixture lca;
  Cycle lcaArrival = kNoCycle;
  lca.sink.on(procEp(14), [&](const Message&) { lcaArrival = lca.now(); });
  lca.net.send(mkMsg(MsgType::CtoCReply, procEp(1), procEp(14)));
  lca.run();

  SimKernel kernel;
  NetworkConfig cfg;
  cfg.routing = "adaptive";
  FnSink sink;
  Network net(cfg, 16, 32, kernel.queue(), kernel.stats(),
              NetworkHooks{&sink, nullptr, nullptr, nullptr});
  Cycle adaptiveArrival = kNoCycle;
  sink.on(procEp(14), [&](const Message&) { adaptiveArrival = kernel.now(); });
  net.send(mkMsg(MsgType::CtoCReply, procEp(1), procEp(14)));
  kernel.run();
  EXPECT_EQ(adaptiveArrival, lcaArrival);
}

}  // namespace
}  // namespace dresar
