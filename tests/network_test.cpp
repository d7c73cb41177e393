#include "interconnect/network.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/sim_kernel.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "interconnect/flit_network.h"

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

/// Records the flat ids of the switches whose snoop saw each message, by
/// address. A carrier message spawns its `spawns` at switch `at`.
class PathRecorder : public ISwitchSnoop {
 public:
  struct Spawns {
    std::uint32_t at = 0;
    std::vector<Message> msgs;
  };

  explicit PathRecorder(const Butterfly& topo) : topo_(topo) {}

  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>& spawn) override {
    seen[m.addr].push_back(topo_.flat(sw));
    const auto it = carriers.find(m.addr);
    if (it != carriers.end() && it->second.at == topo_.flat(sw)) {
      spawn.insert(spawn.end(), it->second.msgs.begin(), it->second.msgs.end());
    }
    return {true, 0};
  }

  std::map<Addr, std::vector<std::uint32_t>> seen;
  std::map<Addr, Spawns> carriers;

 private:
  const Butterfly& topo_;
};

/// Every proc->mem, mem->proc and proc->proc pair, and every path a switch
/// can spawn, must pass exactly the switches Butterfly::route and
/// routeFromSwitch name, in order, on network model `Net`.
template <typename Net>
void expectSnoopSeesRouteSwitches(std::uint32_t nodes) {
  SCOPED_TRACE(::testing::Message() << nodes << " nodes");
  SimKernel kernel;
  const NetworkConfig cfg;
  const Butterfly topo(nodes, cfg.switchRadix);
  PathRecorder rec(topo);
  FnSink sink;
  std::size_t delivered = 0;
  for (NodeId n = 0; n < nodes; ++n) {
    sink.on(procEp(n), [&](const Message&) { ++delivered; });
    sink.on(memEp(n), [&](const Message&) { ++delivered; });
  }
  Net net(cfg, nodes, 32, kernel.queue(), kernel.stats(),
          NetworkHooks{&sink, &rec, nullptr, nullptr});

  std::map<Addr, std::vector<std::uint32_t>> expected;
  Addr nextAddr = 0;
  const auto expect = [&](const Route& r) {
    nextAddr += 0x40;
    std::vector<std::uint32_t>& sws = expected[nextAddr];
    for (const Hop& h : r) {
      if (h.kind == Hop::Kind::Switch) sws.push_back(topo.flat(h.sw));
    }
    return nextAddr;
  };
  // One proc->mem carrier through every switch.
  std::map<std::uint32_t, std::pair<NodeId, NodeId>> carrierPair;
  for (NodeId p = 0; p < nodes; ++p) {
    for (NodeId m = 0; m < nodes; ++m) {
      for (const SwitchId sw : topo.forwardPath(p, m)) {
        carrierPair.emplace(topo.flat(sw), std::pair{p, m});
      }
    }
  }
  ASSERT_EQ(carrierPair.size(), topo.totalSwitches());
  for (const auto& [f, pm] : carrierPair) {
    const Addr a = expect(topo.route(procEp(pm.first), memEp(pm.second)));
    PathRecorder::Spawns& sp = rec.carriers[a];
    sp.at = f;
    for (NodeId n = 0; n < nodes; ++n) {
      sp.msgs.push_back(mkMsg(MsgType::CtoCRequest, procEp(n), procEp(n),
                              expect(topo.routeFromSwitch(topo.unflat(f), procEp(n)))));
      if (topo.canReachMem(topo.unflat(f), n)) {
        sp.msgs.push_back(mkMsg(MsgType::SharerNotify, procEp(n), memEp(n),
                                expect(topo.routeFromSwitch(topo.unflat(f), memEp(n)))));
      }
    }
    net.send(mkMsg(MsgType::ReadRequest, procEp(pm.first), memEp(pm.second), a));
  }
  for (NodeId p = 0; p < nodes; ++p) {
    for (NodeId q = 0; q < nodes; ++q) {
      net.send(mkMsg(MsgType::ReadRequest, procEp(p), memEp(q),
                     expect(topo.route(procEp(p), memEp(q)))));
      net.send(mkMsg(MsgType::Invalidation, memEp(q), procEp(p),
                     expect(topo.route(memEp(q), procEp(p)))));
      net.send(mkMsg(MsgType::CtoCRequest, procEp(p), procEp(q),
                     expect(topo.route(procEp(p), procEp(q)))));
    }
  }
  kernel.run();
  EXPECT_EQ(delivered, expected.size());
  // A switch spawning toward a processor on its own leaf passes no switch.
  for (const auto& entry : expected) rec.seen[entry.first];
  EXPECT_EQ(rec.seen, expected);
}

TEST(Network, SnoopSeesEverySwitchOnPath) {
  // Both models, on a two-stage and a three-stage butterfly.
  for (const std::uint32_t nodes : {16u, 64u}) {
    expectSnoopSeesRouteSwitches<Network>(nodes);
    expectSnoopSeesRouteSwitches<FlitNetwork>(nodes);
  }
}

TEST(Network, RejectsLinkStallOffTheTopology) {
  // 16 nodes on radix-8 switches: two stages of four switches. {0, 4} would
  // alias switch S(1,0) through a flat index; {1, 4} and {2, 0} name no
  // switch at all. Both models resolve the stall the same way.
  for (const LinkStallSpec bad :
       {LinkStallSpec{2, 0, 0, 10}, LinkStallSpec{1, 4, 0, 10}, LinkStallSpec{0, 4, 0, 10}}) {
    SimKernel kernel;
    FaultPlan plan;
    plan.linkStall = bad;
    FaultInjector inj(plan, kernel.stats());
    FnSink sink;
    const NetworkHooks hooks{&sink, nullptr, nullptr, &inj};
    EXPECT_THROW(Network(NetworkConfig{}, 16, 32, kernel.queue(), kernel.stats(), hooks),
                 std::invalid_argument);
    EXPECT_THROW(FlitNetwork(NetworkConfig{}, 16, 32, kernel.queue(), kernel.stats(), hooks),
                 std::invalid_argument);
  }
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

TEST(Network, AdaptiveRoutingSteersAroundABacklog) {
  // proc 1 -> proc 14 turns around at stage 1, over root S(1,f) for f in
  // [0, 4); its LCA baseline is f = (leaf 0 + leaf 3) % 4 = 3. Write-backs
  // from proc 0 to mem 12 (homed under root 3) hold the leaf 0 -> root 3
  // link when the probe is injected at cycle 30.
  static constexpr Addr kProbe = 0xBEEF;
  const auto probe = [](const char* routing) {
    SimKernel kernel;
    NetworkConfig cfg;
    cfg.routing = routing;
    const Butterfly topo(16, cfg.switchRadix);
    PathRecorder rec(topo);
    FnSink sink;
    sink.on(memEp(12), [](const Message&) {});
    Cycle arrival = kNoCycle;
    sink.on(procEp(14), [&](const Message&) { arrival = kernel.now(); });
    Network net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                NetworkHooks{&sink, &rec, nullptr, nullptr});
    for (Addr i = 0; i < 8; ++i) {
      net.send(mkMsg(MsgType::WriteBack, procEp(0), memEp(12), 0x40 * i));
    }
    kernel.queue().scheduleAt(30, [&net] {
      net.send(mkMsg(MsgType::CtoCReply, procEp(1), procEp(14), kProbe));
    });
    kernel.run();
    const std::vector<std::uint32_t>& sws = rec.seen[kProbe];
    EXPECT_EQ(sws.size(), 3u);
    return std::pair{arrival, sws.at(1)};
  };
  const std::uint32_t baselineRoot = 4 + 3;  // flat id of S(1,3)
  const auto [lcaArrival, lcaRoot] = probe("lca");
  const auto [adaptiveArrival, adaptiveRoot] = probe("adaptive");
  EXPECT_EQ(lcaRoot, baselineRoot);
  EXPECT_NE(adaptiveRoot, baselineRoot);
  EXPECT_LT(adaptiveArrival, lcaArrival);
}

}  // namespace
}  // namespace dresar
