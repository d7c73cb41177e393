// Flit-level wormhole interconnect (paper Section 4.1): 8-byte flits over
// 16-bit links (4 link cycles per flit), 4-cycle switch core, input-buffered
// virtual channels with credit-based backpressure, and age-based arbitration
// granting at most four flits per switch per cycle — the SGI SPIDER scheme
// the paper adopts. Virtual channels are partitioned by destination node so
// messages between one source/destination pair can never be reordered.
//
// The switch-directory snoop fires when a message's head flit first reaches
// the front of an input buffer at a switch, in parallel with arbitration,
// exactly as DRESAR is specified to operate; a sunk message's remaining
// flits are drained at that switch, and switch-generated messages enter the
// crossbar through the extra injection port (the paper's 10x4 crossbar).
//
// The model is cycle-driven: one tick event per cycle while any flit is
// live, plus one arrival event per flit hop. A tick does work only where
// flits are (NIs with queued messages, switches holding flits), over dense
// per-port state resolved at construction (DESIGN §14). On the perfbench
// hotspot_flit cell (4-vCPU Xeon Sapphire Rapids KVM guest) that costs
// 240-280 host ns per event and 430-510 per flit, ~0.2 s per cell: still
// about 3x the message-level Network on the same cell, which needs 2.8x
// fewer events. The full system can run on either model
// (SystemConfig::net.flitLevel); bench/validation_flit_vs_message
// quantifies how close the two are.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "interconnect/inetwork.h"

namespace dresar {

class RoutingPolicy;

class FlitNetwork final : public INetwork {
 public:
  /// `hooks` is the complete observer wiring (see NetworkHooks). The fault
  /// injector applies request-leg drop/delay at delivery; a link stall
  /// freezes the chosen switch's whole grant pass for the window (credits
  /// provide the backpressure upstream).
  FlitNetwork(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
              EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks);

  ~FlitNetwork() override;  // out-of-line: RoutingPolicy is forward-declared

  FlitNetwork(const FlitNetwork&) = delete;
  FlitNetwork& operator=(const FlitNetwork&) = delete;

  [[nodiscard]] const Butterfly& topology() const override { return topo_; }
  void send(Message m) override;
  [[nodiscard]] std::uint64_t messagesSent() const override { return sent_; }
  [[nodiscard]] std::uint64_t messagesSunk() const override { return sunk_; }
  /// The flit model always collects saturation telemetry: credit state and
  /// buffer occupancy exist as first-class simulation state here, unlike
  /// the message-level model's unbounded queues.
  [[nodiscard]] const CongestionTelemetry* congestion() const override { return &cong_; }

  /// Live flits + undelivered messages; zero when the network is idle.
  [[nodiscard]] std::uint64_t inFlight() const { return live_; }

 private:
  /// Flits a switch grants per cycle at most (paper 4.1).
  static constexpr std::uint32_t kGrantsPerCycle = 4;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Longest supported route, in links (2 per stage): kMaxNodes on radix-4
  /// switches takes 7 stages. A route's link index keys its snoopedMask bit.
  static constexpr std::uint32_t kMaxPathLinks = 16;

  // Vertices: procs [0,N), mems [N,2N), switches [2N, 2N+S).
  [[nodiscard]] std::uint32_t vertexOf(Endpoint ep) const {
    return ep.kind == EndpointKind::Proc ? ep.node : numNodes_ + ep.node;
  }
  [[nodiscard]] std::uint32_t vertexOf(SwitchId sw) const {
    return 2 * numNodes_ + topo_.flat(sw);
  }
  [[nodiscard]] std::uint32_t vertexOf(const Hop& h) const {
    return h.kind == Hop::Kind::Switch ? vertexOf(h.sw) : vertexOf(h.ep);
  }
  [[nodiscard]] bool isSwitchVertex(std::uint32_t v) const { return v >= 2 * numNodes_; }

  /// One in-flight message, shared by all of its flits.
  struct MsgState {
    Message msg;
    std::uint32_t totalFlits = 1;
    std::uint32_t vc = 0;
    std::uint64_t snoopedMask = 0; ///< path indices whose head snoop has run
    bool sunk = false;
    Cycle birth = 0;               ///< age for arbitration
    /// Link taken on each hop: path[0] leaves the source, path[i] enters
    /// route hop i; resolved once at injection.
    std::array<std::uint32_t, kMaxPathLinks> path{};
  };
  using MsgPtr = std::shared_ptr<MsgState>;

  struct Flit {
    MsgPtr ms;
    std::uint32_t seq = 0;  ///< 0 = head; totalFlits-1 = tail
    std::uint32_t hop = 0;  ///< index in ms->path of the link last taken
    [[nodiscard]] bool head() const { return seq == 0; }
    [[nodiscard]] bool tail() const { return seq + 1 == ms->totalFlits; }
  };

  /// One directed link. Transmitter state (next free cycle, per-VC credits
  /// for the downstream buffer) is held at the sender side.
  struct Link {
    Cycle nextFree = 0;              ///< one flit per linkCyclesPerFlit
    std::uint32_t to = 0;            ///< receiving vertex
    std::uint32_t fromPort = kNone;  ///< output port at a sending switch
    std::uint32_t toFlat = kNone;    ///< receiving switch; kNone = endpoint
    std::uint32_t toPort = 0;        ///< input port at the receiving switch
  };

  /// Input buffer for one (input port, virtual channel): a ring over
  /// bufferFlits slots of SwitchState::slots, which credits never overrun.
  struct InputVc {
    std::uint32_t head = 0;
    std::uint32_t count = 0;
    std::uint32_t lockedOutput = kNone;  ///< wormhole: output port held by current msg
  };

  /// Ports are the switch's distinct neighbours in ascending vertex order,
  /// and input index port * VCs + vc, so ascending input index is the
  /// (upstream vertex, vc) arbitration tie-break order. The injection port
  /// is input index inputs.size(), after every real input.
  struct SwitchState {
    std::uint32_t stage = 0;
    std::vector<std::uint32_t> neighbor;   ///< port -> vertex
    std::vector<std::uint32_t> outLink;    ///< port -> link leaving on it
    std::vector<std::uint32_t> inLink;     ///< port -> link arriving on it
    std::vector<InputVc> inputs;
    std::vector<Flit> slots;               ///< ring storage, bufferFlits per input
    std::vector<std::uint64_t> nonEmpty;   ///< bit per input holding flits
    std::uint32_t buffered = 0;            ///< flits across all inputs
    std::vector<std::uint32_t> lockOwner;  ///< per output port: input holding it, or kNone
    std::vector<Cycle> lockSince;          ///< per output port: grab cycle while held
    std::deque<MsgPtr> injectQueue;        ///< switch-directory generated messages
    std::uint32_t injectFlitsSent = 0;     ///< progress within injectQueue.front()
  };

  struct EndpointNi {
    std::deque<MsgPtr> sendQueue;
    std::uint32_t flitsSent = 0;
    std::uint32_t link = 0;  ///< the one link into the network
  };

  /// Best grant candidate for one output port during a switch tick.
  struct Candidate {
    std::uint32_t input = kNone;
    Cycle age = kNoCycle;
  };

  [[nodiscard]] std::uint32_t vcOf(const Message& m) const { return m.dst.node % vcs_; }

  [[nodiscard]] std::uint32_t flitsOf(const Message& m) const {
    const std::uint32_t bytes = m.sizeBytes(cfg_.headerBytes, lineBytes_);
    return (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
  }

  /// Build every directed link of the butterfly and each switch's dense
  /// port, buffer and lock arrays.
  void buildFabric();
  /// Index of the link from vertex `from` to its neighbour `to`.
  [[nodiscard]] std::uint32_t linkIndex(std::uint32_t from, std::uint32_t to) const;
  [[nodiscard]] bool hasCredit(std::uint32_t link, std::uint32_t vc) const {
    return links_[link].toFlat == kNone || credits_[link * vcs_ + vc] > 0;
  }

  /// Stamp, route-resolve and count a message entering at `srcVertex`.
  [[nodiscard]] MsgPtr admit(Message m, std::uint32_t srcVertex, const Route& r);

  void ensureTicking();
  void tick();
  void tickSwitch(std::uint32_t flat);
  void tickSourceNi(std::uint32_t ev);
  /// Emit one flit onto `link` (f.hop must index it in the path); schedules
  /// its arrival (buffer insert or delivery).
  void transmit(std::uint32_t link, Flit&& f, Cycle extraDelay);
  void arrive(std::uint32_t link, Flit&& f);
  [[nodiscard]] Flit& front(SwitchState& s, std::uint32_t input) {
    return s.slots[input * cfg_.bufferFlits + s.inputs[input].head];
  }
  /// Remove the front flit of `input`, returning its credit upstream.
  Flit popInput(SwitchState& s, std::uint32_t input);
  void deliver(std::uint32_t epVertex, const Flit& f);
  /// Hand a completed message to the endpoint (post fault filtering).
  void deliverMsg(std::uint32_t epVertex, const Message& m);

  /// Run the snoop for head flit `f` at the front of an input at switch
  /// `flat` if it has not run there yet. Returns false if it sank the message.
  bool maybeSnoop(std::uint32_t flat, const Flit& f);

  /// Route for an endpoint-injected message: the unique LCA route, or the
  /// policy's pick among the turnaround candidates (adaptive).
  [[nodiscard]] Route routeOf(const Message& m);
  /// Same for a switch-injected (snoop-spawned) message.
  [[nodiscard]] Route spawnRouteOf(SwitchId from, const Message& m);
  /// Credit debt + link backlog along `r` from `srcVertex`: the congestion
  /// an injected message would stream into right now.
  [[nodiscard]] std::uint64_t routeCongestion(const Route& r, std::uint32_t srcVertex,
                                              std::uint32_t vc) const;

  /// Lock bookkeeping wrappers so every grab/release feeds hold-time
  /// telemetry exactly once.
  void grabLock(SwitchState& s, std::uint32_t port, std::uint32_t owner);
  void releaseLock(SwitchState& s, std::uint32_t port);

  NetworkConfig cfg_;
  std::uint32_t numNodes_;
  std::uint32_t lineBytes_;
  std::uint32_t vcs_;  ///< virtual channels per input port (>= 1)
  EventQueue& sched_;
  Butterfly topo_;
  /// Hot-path counters, resolved once at construction.
  std::array<CounterHandle, kMsgTypeCount> msgCounters_;  ///< "net.msgs.<type>"
  CounterHandle flitsTransmitted_, flitGrants_, switchInjected_, sunkCounter_;
  SamplerHandle latency_;
  NetworkHooks hooks_;
  std::unique_ptr<RoutingPolicy> routing_;
  CongestionTelemetry cong_;
  /// Flat id of the switch the fault plan stalls; kNone = none.
  std::uint32_t faultStallFlat_ = kNone;

  std::vector<SwitchState> switches_;   // by flat switch id
  std::vector<EndpointNi> endpoints_;   // by vertex (procs + mems)
  std::vector<Link> links_;
  std::vector<std::uint32_t> credits_;  ///< [link * vcs_ + vc]
  /// Activity sets, one bit per endpoint vertex / flat switch id: NIs with
  /// queued messages, switches holding flits or injections.
  std::vector<std::uint64_t> busyNis_, busySwitches_;
  /// Per-tick working arrays: switches ticked per stage, and the arbitration
  /// candidates per output port with the ports that have one.
  std::vector<std::uint64_t> tickedPerStage_;
  std::vector<Candidate> want_;
  std::vector<std::uint32_t> wanted_;

  bool ticking_ = false;
  std::uint64_t live_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t sunk_ = 0;
  std::uint64_t nextMsgId_ = 1;
};

}  // namespace dresar
