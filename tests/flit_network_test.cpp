// Flit-level wormhole network tests: pipelined latency, per-VC ordering,
// credit backpressure, switch arbitration, snoop sink/spawn at head flits,
// and end-to-end equivalence with the message-level model on a full
// workload.
#include "interconnect/flit_network.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/sim_kernel.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {
namespace {

// Observer wiring is immutable (NetworkHooks at construction): snoops come
// in through the fixture constructor, delivery handlers register on FnSink.
struct Fixture {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  FlitNetwork net;
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

TEST(FlitNetwork, DeliversHeaderMessage) {
  Fixture f;
  Cycle arrival = kNoCycle;
  f.sink.on(memEp(9), [&](const Message& m) {
    EXPECT_EQ(m.addr, 0x100u);
    arrival = f.now();
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_NE(arrival, kNoCycle);
  // 3 link traversals of 4 cycles + 2 core delays of 4, plus pipeline slack.
  EXPECT_GE(arrival, 20u);
  EXPECT_LE(arrival, 32u);
  EXPECT_EQ(f.net.inFlight(), 0u);
}

TEST(FlitNetwork, DataMessagePipelinesFlits) {
  Fixture f;
  Cycle headerArrival = 0, dataArrival = 0;
  f.sink.on(memEp(9), [&](const Message& m) {
    (carriesData(m.type) ? dataArrival : headerArrival) = f.now();
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));
  f.run();
  // Wormhole pipelining: 5 flits cost 4 extra link cycles per flit on the
  // last link only (cut-through), far less than store-and-forward.
  const Cycle dataLatency = dataArrival - headerArrival;
  EXPECT_GT(dataLatency, 12u);   // strictly longer than the 1-flit message
  EXPECT_LT(dataLatency, 3 * 20u);  // but not 3 full serializations
}

TEST(FlitNetwork, PerPathOrderingHolds) {
  Fixture f;
  std::vector<Addr> order;
  f.sink.on(memEp(9), [&](const Message& m) { order.push_back(m.addr); });
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xA));
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9), 0xB));
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xC));
  f.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0xAu);
  EXPECT_EQ(order[1], 0xBu);
  EXPECT_EQ(order[2], 0xCu);
}

TEST(FlitNetwork, ManyToOneContentionDeliversEverything) {
  Fixture f;
  int delivered = 0;
  f.sink.on(memEp(0), [&](const Message&) { ++delivered; });
  for (NodeId p = 0; p < 16; ++p) {
    f.net.send(mkMsg(MsgType::WriteBack, procEp(p), memEp(0), 0x100 + 0x40ull * p));
  }
  f.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(f.net.inFlight(), 0u);
}

TEST(FlitNetwork, TinyBuffersStillDrainViaCredits) {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 1;  // most aggressive backpressure
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                  NetworkHooks{&sink, nullptr, nullptr, nullptr});
  int delivered = 0;
  sink.on(memEp(3), [&](const Message&) { ++delivered; });
  for (int i = 0; i < 8; ++i) {
    Message m = mkMsg(MsgType::WriteBack, procEp(1), memEp(3), 0x40ull * i);
    net.send(m);
  }
  kernel.run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(net.inFlight(), 0u);
}

TEST(FlitNetwork, RejectsLinkStallOffTheTopology) {
  // 16 nodes on radix-8 switches: two stages of four switches.
  for (const LinkStallSpec bad : {LinkStallSpec{2, 0, 0, 10}, LinkStallSpec{1, 4, 0, 10}}) {
    SimKernel kernel;
    FaultPlan plan;
    plan.linkStall = bad;
    FaultInjector inj(plan, kernel.stats());
    FnSink sink;
    EXPECT_THROW(FlitNetwork(NetworkConfig{}, 16, 32, kernel.queue(), kernel.stats(),
                             NetworkHooks{&sink, nullptr, nullptr, &inj}),
                 std::invalid_argument);
  }
}

// Arbitration (paper 4.1): the oldest head wins an output, equal ages go
// to the lower (upstream vertex, vc) input, a switch grants at most four
// flits per cycle (equal ages: lowest output first), and a wormhole-locked
// output serves only the message holding it.

TEST(FlitArbitration, EqualAgeTieGoesToLowerUpstreamVertex) {
  Fixture f;
  std::vector<NodeId> order;
  f.sink.on(memEp(0), [&](const Message& m) { order.push_back(m.requester); });
  // Both worms are born in cycle 0 and reach leaf switch 0 in the same
  // cycle on the same VC, wanting its one port toward memory 0. Send order
  // is the reverse of the key order, so only the key can decide.
  f.net.send(mkMsg(MsgType::WriteBack, procEp(1), memEp(0), 0x140));
  f.net.send(mkMsg(MsgType::WriteBack, procEp(0), memEp(0), 0x100));
  f.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);  // proc 0's input (vertex 0) precedes proc 1's
  EXPECT_EQ(order[1], 1u);
}

TEST(FlitArbitration, AtMostFourGrantsPerSwitchPerCycle) {
  // Freeze leaf switch 0 while eight header messages, all born in cycle 0,
  // queue at its inputs wanting all eight of its outputs: procs 0-3 send up
  // to memories under four different roots, and one memory under each root
  // sends down to each of procs 0-3.
  SimKernel kernel;
  NetworkConfig cfg;
  constexpr Cycle kThaw = 40;
  FaultPlan plan;
  plan.linkStall = LinkStallSpec{/*stage=*/0, /*index=*/0, /*startCycle=*/0,
                                 /*lengthCycles=*/kThaw};
  FaultInjector inj(plan, kernel.stats());
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel.queue(), kernel.stats(),
                  NetworkHooks{&sink, nullptr, nullptr, &inj});
  std::vector<Cycle> down, up;
  for (NodeId i = 0; i < 4; ++i) {
    sink.on(procEp(i), [&](const Message&) { down.push_back(kernel.now()); });
    sink.on(memEp(4 * i), [&](const Message&) { up.push_back(kernel.now()); });
    net.send(mkMsg(MsgType::ReadRequest, procEp(i), memEp(4 * i)));
    net.send(mkMsg(MsgType::Invalidation, memEp(4 * i + 1), procEp(i)));
  }
  kernel.run();
  ASSERT_EQ(down.size(), 4u);
  ASSERT_EQ(up.size(), 4u);
  // The first thawed cycle grants the four lowest ports (the processors'),
  // one hop from delivery; the four root-bound heads go a cycle later and
  // cross one more switch.
  const Cycle hop = cfg.linkCyclesPerFlit + cfg.coreDelay;
  for (const Cycle t : down) EXPECT_EQ(t, kThaw + hop);
  for (const Cycle t : up) EXPECT_EQ(t, kThaw + 1 + 2 * hop);
}

TEST(FlitArbitration, LockedOutputAcceptsOnlyItsOwner) {
  Fixture f;
  std::vector<NodeId> order;
  f.sink.on(memEp(0), [&](const Message& m) { order.push_back(m.requester); });
  f.sink.on(memEp(4), [](const Message&) {});
  // Proc 4 queues a header message elsewhere, then one to memory 0: born
  // in cycle 0, the latter leaves a link slot late. Proc 0's 5-flit worm to
  // memory 0 is born a cycle later, yet reaches root switch (1,0) first and
  // locks its port to memory 0. The older header arrives mid-worm and must
  // wait for the tail instead of cutting in by age.
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(4), memEp(4), 0x200));
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(4), memEp(0), 0x240));
  f.kernel.queue().scheduleAt(1, [&] {
    f.net.send(mkMsg(MsgType::WriteBack, procEp(0), memEp(0), 0x100));
  });
  f.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 4u);
}

class HeadSnoop : public ISwitchSnoop {
 public:
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>& spawn) override {
    ++seen;
    if (sink && sw.stage == 1) {
      if (reply) {
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
    return {};
  }
  int seen = 0;
  bool sink = false;
  bool reply = false;
};

TEST(FlitNetwork, SnoopRunsOncePerSwitch) {
  HeadSnoop snoop;
  Fixture f(&snoop);
  f.sink.on(memEp(9), [](const Message&) {});
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));  // 5 flits
  f.run();
  EXPECT_EQ(snoop.seen, 2);  // once per switch despite 5 flits
}

TEST(FlitNetwork, SunkMessageIsDrainedCompletely) {
  HeadSnoop snoop;
  snoop.sink = true;
  Fixture f(&snoop);
  bool delivered = false;
  f.sink.on(memEp(9), [&](const Message&) { delivered = true; });
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));
  f.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.net.messagesSunk(), 1u);
  EXPECT_EQ(f.net.inFlight(), 0u);  // every flit drained, credits restored
}

/// Sinks every WriteBack past the leaf stage and counts the head snoops it
/// passes: each pass is one output-lock grab at that switch.
class WriteBackSink : public ISwitchSnoop {
 public:
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>&) override {
    if (m.type == MsgType::WriteBack && sw.stage >= 1) return {false, 0};
    ++passes;
    return {};
  }
  std::uint64_t passes = 0;
};

TEST(FlitNetwork, DownstreamSinkReleasesUpstreamLocks) {
  // A 5-flit WriteBack sunk at a root switch has already been granted (and
  // locked) at its leaf switch, whose remaining body flits are drained there.
  // The drain must release that lock, or every later worm wanting the same
  // output port waits forever.
  WriteBackSink snoop;
  Fixture f(&snoop);
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < 16; ++n) {
    f.sink.on(procEp(n), [&](const Message&) { ++delivered; });
    f.sink.on(memEp(n), [&](const Message&) { ++delivered; });
  }
  Rng rng(7);
  std::uint64_t sent = 0, writeBacks = 0;
  std::vector<Message> msgs;  // event closures carry an index, not a Message
  msgs.reserve(400);
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(rng.below(16));
    const auto dst = static_cast<NodeId>((src + 1 + rng.below(15)) % 16);  // != src
    const auto at = static_cast<Cycle>(rng.below(2000));
    Message m;
    switch (rng.below(4)) {
      case 0:
        m = mkMsg(MsgType::ReadRequest, procEp(src), memEp(dst));
        break;
      case 1:
        m = mkMsg(MsgType::WriteBack, procEp(src), memEp(dst));
        ++writeBacks;
        break;
      case 2:
        m = mkMsg(MsgType::CtoCReply, procEp(src), procEp(dst));
        break;
      default:
        m = mkMsg(MsgType::ReadReply, memEp(src), procEp(dst));
        break;
    }
    ++sent;
    msgs.push_back(m);
    f.kernel.queue().scheduleAt(at, [&f, &msgs, k = msgs.size() - 1] { f.net.send(msgs[k]); });
  }
  ASSERT_TRUE(f.kernel.run(200'000)) << "network hung with " << f.net.inFlight()
                                     << " flits/messages live";
  EXPECT_EQ(f.net.messagesSunk(), writeBacks);
  EXPECT_EQ(delivered, sent - writeBacks);
  EXPECT_EQ(f.net.inFlight(), 0u);
  // Every grab was released exactly once (no switch injections here).
  EXPECT_EQ(f.stats.counterValue("net.switch_injected"), 0u);
  EXPECT_EQ(f.net.congestion()->lockHold.count(), snoop.passes);
}

TEST(FlitNetwork, SpawnedMessageUsesInjectionPort) {
  HeadSnoop snoop;
  snoop.sink = true;
  snoop.reply = true;
  Fixture f(&snoop);
  bool retryArrived = false;
  f.sink.on(memEp(9), [](const Message&) {});
  f.sink.on(procEp(5), [&](const Message& m) {
    retryArrived = m.type == MsgType::Retry;
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_TRUE(retryArrived);
  EXPECT_GT(f.stats.counterValue("net.switch_injected"), 0u);
}

// The headline check: the full system produces the same protocol behaviour
// on both network models; only timing differs (and not wildly).
TEST(FlitNetwork, FullSystemMatchesMessageLevelProtocol) {
  RunMetrics msg, flit;
  for (const bool flitLevel : {false, true}) {
    SystemConfig cfg;
    cfg.net.flitLevel = flitLevel;
    cfg.switchDir.entries = 1024;
    System sys(cfg);
    auto w = makeWorkload("sor", WorkloadScale::tiny());
    (flitLevel ? flit : msg) = runWorkload(sys, *w);
  }
  // Deterministic kernels: identical read/miss structure.
  EXPECT_EQ(flit.reads, msg.reads);
  // Protocol shape agrees: switch directories capture transfers under both.
  EXPECT_GT(flit.svcCtoCSwitch + flit.svcSwitchWB, 0u);
  const double c2cRatio =
      static_cast<double>(flit.ctocServiced()) / std::max<std::uint64_t>(1, msg.ctocServiced());
  EXPECT_GT(c2cRatio, 0.7);
  EXPECT_LT(c2cRatio, 1.4);
  // Timing within a sane band of each other (wormhole is usually faster for
  // data messages; queueing detail differs).
  const double execRatio = static_cast<double>(flit.execTime) / static_cast<double>(msg.execTime);
  EXPECT_GT(execRatio, 0.5);
  EXPECT_LT(execRatio, 2.0);
}

}  // namespace
}  // namespace dresar
