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
// per-port state and a link-path table resolved at construction; occupancy
// samples are integer counts and flits hold non-atomic message references
// (DESIGN §14). On the perfbench hotspot_flit cell (4-vCPU Xeon Sapphire
// Rapids KVM guest) that costs 130-140 host ns per event and 245-250 per
// flit, ~0.095 s of simulation per cell; the message-level Network needs
// 2.8x fewer events on the same cell. The full system can run on either
// model (SystemConfig::net.flitLevel); the `validation` report
// (sweeps/validation.spec) quantifies how close the two are.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
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
  /// The flit model always collects saturation telemetry: credit state and
  /// buffer occupancy exist as first-class simulation state here, unlike
  /// the message-level model's unbounded queues. Each call first folds the
  /// occupancy counts gathered since the last call into the stage samplers
  /// and histograms, so reading mid-run and again at the end is exact.
  [[nodiscard]] const CongestionTelemetry* congestion() const override;

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
  [[nodiscard]] Endpoint endpointOf(std::uint32_t v) const {
    return v < numNodes_ ? procEp(v) : memEp(v - numNodes_);
  }
  [[nodiscard]] bool isSwitchVertex(std::uint32_t v) const { return v >= 2 * numNodes_; }

  /// One in-flight message, shared by all of its flits through MsgRefs.
  /// The fields tickSwitch reads for every flit come first; the 96-byte
  /// Message, read only at injection, snoops, tracing and delivery, is last.
  struct MsgState {
    std::uint32_t refs = 0;         ///< live MsgRefs; the last one frees the chunk
    std::uint32_t totalFlits = 1;
    std::uint32_t vc = 0;
    bool sunk = false;
    Cycle birth = 0;                ///< age for arbitration
    std::uint64_t snoopedMask = 0;  ///< path indices whose head snoop has run
    /// Link taken on each hop: path[0] leaves the source, path[i] enters
    /// route hop i; copied from the path table at injection.
    std::array<std::uint32_t, kMaxPathLinks> path{};
    Arena* arena = nullptr;         ///< the queue arena holding this state
    Message msg;
  };

  /// Intrusive, non-atomic reference to a MsgState carved from the event
  /// queue's arena. Every flit holds one, so copies and drops are a plain
  /// increment/decrement (one simulation is single-threaded); the last
  /// reference returns the chunk to the arena. Flits captured in event
  /// closures can outlive the network, never the queue.
  class MsgRef {
   public:
    MsgRef() = default;
    /// A fresh, value-initialized state carved from `arena`.
    static MsgRef make(Arena& arena) {
      auto* p = ::new (arena.allocate(sizeof(MsgState), alignof(MsgState))) MsgState{};
      p->arena = &arena;
      return MsgRef(p);
    }
    MsgRef(const MsgRef& o) noexcept : p_(o.p_) {
      if (p_ != nullptr) ++p_->refs;
    }
    MsgRef(MsgRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
    MsgRef& operator=(MsgRef o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~MsgRef() {
      if (p_ != nullptr && --p_->refs == 0) {
        Arena& a = *p_->arena;
        p_->~MsgState();
        a.deallocate(p_, sizeof(MsgState), alignof(MsgState));
      }
    }
    [[nodiscard]] MsgState& operator*() const noexcept { return *p_; }
    [[nodiscard]] MsgState* operator->() const noexcept { return p_; }

   private:
    explicit MsgRef(MsgState* p) noexcept : p_(p) { ++p_->refs; }
    MsgState* p_ = nullptr;
  };

  struct Flit {
    MsgRef ms;
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
    std::vector<std::uint32_t> inCredit;   ///< input -> credits_ slot feeding it
    std::vector<InputVc> inputs;
    std::vector<Flit> slots;               ///< ring storage, bufferFlits per input
    std::vector<std::uint64_t> nonEmpty;   ///< bit per input holding flits
    std::uint32_t buffered = 0;            ///< flits across all inputs
    std::vector<std::uint32_t> lockOwner;  ///< per output port: input holding it, or kNone
    std::vector<Cycle> lockSince;          ///< per output port: grab cycle while held
    std::deque<MsgRef> injectQueue;        ///< switch-directory generated messages
    std::uint32_t injectFlitsSent = 0;     ///< progress within injectQueue.front()
  };

  struct EndpointNi {
    std::deque<MsgRef> sendQueue;
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
  /// Resolve every route into the link-index path table (construction only).
  void buildPaths();
  /// Index of the link from vertex `from` to its neighbour `to`
  /// (construction only; the hot path reads the path table).
  [[nodiscard]] std::uint32_t linkIndex(std::uint32_t from, std::uint32_t to) const;
  [[nodiscard]] bool hasCredit(std::uint32_t link, std::uint32_t vc) const {
    return links_[link].toFlat == kNone || credits_[link * vcs_ + vc] > 0;
  }

  /// Stamp and count a message entering at `srcVertex`, copying its link
  /// path from the table (the routing policy's pick among the turnaround
  /// candidates under an adaptive policy).
  [[nodiscard]] MsgRef admit(Message m, std::uint32_t srcVertex);

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

  /// Run the snoop for head flit `f`, first at the front of an input at
  /// switch `flat` (the caller checks snoopedMask). Returns false if it sank
  /// the message.
  bool snoop(std::uint32_t flat, const Flit& f);

  /// Credit debt + link backlog along the `len` links from `links`: the
  /// congestion an injected message on VC `vc` would stream into right now.
  [[nodiscard]] std::uint64_t pathCongestion(const std::uint32_t* links, std::uint32_t len,
                                             std::uint32_t vc) const;

  /// Lock bookkeeping wrappers so every grab/release feeds hold-time
  /// telemetry exactly once.
  void grabLock(SwitchState& s, std::uint32_t port, std::uint32_t owner);
  void releaseLock(SwitchState& s, std::uint32_t port);

  /// Routes from one source vertex to one endpoint vertex: `width`
  /// candidate paths of `len` links each, back to back in pathLinks_ from
  /// `offset`, with the LCA candidate at `baseline`. Only an adaptive
  /// policy stores more than one candidate; len == 0 marks an undefined
  /// pair (mem->mem, a switch toward a memory outside its subtree).
  struct PathSlot {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t width = 0;
    std::uint32_t baseline = 0;
  };

  NetworkConfig cfg_;
  std::uint32_t numNodes_;
  std::uint32_t lineBytes_;
  std::uint32_t vcs_;  ///< virtual channels per input port (>= 1)
  EventQueue& sched_;
  Butterfly topo_;
  /// Hot-path counters, resolved once at construction.
  CounterHandle flitsTransmitted_, flitGrants_;
  NetworkHooks hooks_;
  std::unique_ptr<RoutingPolicy> routing_;
  /// Folded from occupancy_ by congestion(); lock holds go straight in.
  mutable CongestionTelemetry cong_;
  /// Switch-tick occupancy samples not yet folded into cong_: entry
  /// [stage * occupancyWidth_ + b] counts the ticks that saw b buffered
  /// flits. Integer counts make the per-tick sample one increment.
  mutable std::vector<std::uint64_t> occupancy_;
  std::uint32_t occupancyWidth_ = 1;
  /// Flat id of the switch the fault plan stalls; kNone = none.
  std::uint32_t faultStallFlat_ = kNone;

  std::vector<SwitchState> switches_;   // by flat switch id
  std::vector<EndpointNi> endpoints_;   // by vertex (procs + mems)
  std::vector<Link> links_;
  std::vector<std::uint32_t> credits_;  ///< [link * vcs_ + vc]
  /// Path table, by srcVertex * 2N + dstVertex; see PathSlot.
  std::vector<PathSlot> pathSlots_;
  std::vector<std::uint32_t> pathLinks_;
  /// Activity sets, one bit per endpoint vertex / flat switch id: NIs with
  /// queued messages, switches holding flits or injections.
  std::vector<std::uint64_t> busyNis_, busySwitches_;
  /// Per-tick working arrays: switches ticked per stage, and the arbitration
  /// candidates per output port with the ports that have one.
  std::vector<std::uint64_t> tickedPerStage_;
  std::vector<Candidate> want_;
  std::vector<std::uint32_t> wanted_;
  /// Snoop spawn buffer, reused across snoops (a snoop never re-enters).
  std::vector<Message> spawnScratch_;

  bool ticking_ = false;
  std::uint64_t live_ = 0;
  std::uint64_t nextMsgId_ = 1;
};

}  // namespace dresar
