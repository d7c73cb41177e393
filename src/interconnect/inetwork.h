// Interconnect interface and the fabric its two implementations share:
//   * Network      — message-level timing (default; fast): per-hop core +
//                    serialization delay with queueing on busy output links,
//   * FlitNetwork  — flit-level wormhole switching with input-buffered
//                    virtual channels, credits and age-based arbitration,
//                    faithful to paper Section 4.1.
// Both walk one fabric that INetwork derives from the Butterfly at
// construction — vertex numbering, directed links, a link-index path table
// holding every turnaround candidate, the routing-policy pick, the fault
// link-stall switch and the fault-filtered delivery into the sink — and
// feed the same snoop hook, so both route every message over the same
// switches and links and the switch-directory protocol is identical. Each
// keeps its own per-link timing state and cost formula; only timing
// fidelity differs (see sweeps/validation.spec, report `validation`).
//
// Observer wiring is immutable: every observer (delivery sink, snoop,
// tracer, fault injector) arrives in one NetworkHooks struct at
// construction and never changes. There is no setter to call in the wrong
// order, no window where a message can race an observer installation, and
// a null hook simply disables that observer for the network's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/message.h"
#include "interconnect/routing.h"
#include "interconnect/topology.h"

namespace dresar {

class TxnTracer;
class FaultInjector;

struct SnoopOutcome {
  bool pass = true;      ///< false => message is sunk at this switch
  Cycle extraDelay = 0;  ///< directory port contention beyond the core delay
};

/// Implemented by the switch-directory module (or test doubles). The snoop
/// may modify the message in place (annotations such as the carried sharer
/// pids) and append switch-generated messages to `spawn`; the network routes
/// spawned messages from this switch.
class ISwitchSnoop {
 public:
  virtual ~ISwitchSnoop() = default;
  virtual SnoopOutcome onMessage(SwitchId sw, Cycle now, Message& m,
                                 std::vector<Message>& spawn) = 0;
};

/// Receives every message the network completes. One sink serves all
/// endpoints (System dispatches on `ep` to the right controller), replacing
/// the old per-endpoint std::function table: the sink's address is fixed at
/// network construction, so delivery can never observe a half-wired system.
class IMessageSink {
 public:
  virtual ~IMessageSink() = default;
  virtual void deliver(Endpoint ep, const Message& m) = 0;
};

/// The complete observer wiring of a network, fixed at construction.
/// `sink` must outlive the network and be non-null by the first send();
/// the observers may each be null to disable that aspect (fault-free runs
/// never even construct an injector, keeping their output byte-identical).
struct NetworkHooks {
  IMessageSink* sink = nullptr;
  ISwitchSnoop* snoop = nullptr;
  TxnTracer* tracer = nullptr;
  FaultInjector* fault = nullptr;
};

/// Test/bench adapter: a per-endpoint std::function table behind the
/// immutable sink pointer. Handlers are registered on the adapter (whose
/// address never changes) rather than on the network, so fixtures keep the
/// old register-then-send flow without reintroducing mutable network state.
class FnSink final : public IMessageSink {
 public:
  void on(Endpoint ep, std::function<void(const Message&)> fn) {
    handlers_[key(ep)] = std::move(fn);
  }
  void deliver(Endpoint ep, const Message& m) override {
    auto it = handlers_.find(key(ep));
    if (it == handlers_.end() || !it->second)
      throw std::logic_error("FnSink: no delivery handler for " + toString(ep));
    it->second(m);
  }

 private:
  [[nodiscard]] static std::uint64_t key(Endpoint ep) {
    return (static_cast<std::uint64_t>(ep.kind == EndpointKind::Mem) << 32) | ep.node;
  }
  std::unordered_map<std::uint64_t, std::function<void(const Message&)>> handlers_;
};

/// Saturation/congestion telemetry a network may expose (the flit model
/// does; the message-level model's unbounded queues have no credit state to
/// observe). All members are cumulative over the run.
struct CongestionTelemetry {
  /// Switch grant passes skipped because the downstream VC had no credit —
  /// one count is one cycle a granted-ready flit sat blocked on credit.
  std::uint64_t creditStallCycles = 0;
  /// Grant passes skipped because the output link was still serializing.
  std::uint64_t linkBusySkips = 0;
  /// Source-NI cycles a head-of-queue message sat blocked on link/credit.
  std::uint64_t sourceCreditStalls = 0;
  /// creditStallCycles attributed per flat switch id (stall-tree shape).
  std::vector<std::uint64_t> perSwitchCreditStalls;
  /// Buffered flits across a switch's input VCs, sampled once per switch
  /// tick while the network is live; indexed by stage.
  std::vector<Sampler> stageOccupancy;
  std::vector<Histogram> stageOccupancyHist;  ///< log2 geometry of the same samples
  /// Wormhole output-lock hold times (lock grant -> tail departure), cycles.
  Sampler lockHold;
  Histogram lockHoldHist;
};

/// Reject a message no network can route, before it touches any network
/// state: std::out_of_range when an endpoint names a node outside
/// [0, numNodes), std::invalid_argument for mem->mem (the butterfly defines
/// no such path). Both network models check every send() this way.
inline void requireRoutable(const Message& m, std::uint32_t numNodes) {
  if (m.src.node >= numNodes || m.dst.node >= numNodes)
    throw std::out_of_range("network: " + m.describe() + " names a node beyond " +
                            std::to_string(numNodes) + " nodes");
  if (m.src.kind == EndpointKind::Mem && m.dst.kind == EndpointKind::Mem)
    throw std::invalid_argument("network: mem->mem " + m.describe() + " has no route");
}

class INetwork {
 public:
  virtual ~INetwork() = default;

  INetwork(const INetwork&) = delete;
  INetwork& operator=(const INetwork&) = delete;

  [[nodiscard]] const Butterfly& topology() const { return topo_; }
  virtual void send(Message m) = 0;
  /// Messages injected (Σ "net.msgs.*") and sunk at switches ("net.sunk").
  [[nodiscard]] std::uint64_t messagesSent() const {
    std::uint64_t n = 0;
    for (const CounterHandle& c : msgs_) n += c.value();
    return n;
  }
  [[nodiscard]] std::uint64_t messagesSunk() const { return sunk_.value(); }
  /// Congestion telemetry, or nullptr when this model does not collect any.
  [[nodiscard]] virtual const CongestionTelemetry* congestion() const { return nullptr; }

 protected:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Registers the counters both models keep under the same names and
  /// derives the fabric from the topology. Throws std::invalid_argument
  /// when the fault plan's link stall names no switch of this machine.
  INetwork(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
           EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks);

  // Vertices: procs [0,N), mems [N,2N), switches [2N, 2N+S) by flat id.
  [[nodiscard]] std::uint32_t vertexOf(Endpoint ep) const {
    return ep.kind == EndpointKind::Proc ? ep.node : numNodes_ + ep.node;
  }
  [[nodiscard]] std::uint32_t vertexOf(SwitchId sw) const {
    return 2 * numNodes_ + topo_.flat(sw);
  }
  [[nodiscard]] Endpoint endpointOf(std::uint32_t v) const {
    return v < numNodes_ ? procEp(v) : memEp(v - numNodes_);
  }
  [[nodiscard]] bool isSwitchVertex(std::uint32_t v) const { return v >= 2 * numNodes_; }

  /// Index of the link from vertex `from` to its neighbour `to`
  /// (construction only; routes come from the path table).
  [[nodiscard]] std::uint32_t linkIndex(std::uint32_t from, std::uint32_t to) const;

  /// A route as link indices: links[0] leaves the source vertex, and
  /// links[len - 1] enters the destination endpoint.
  struct Path {
    const std::uint32_t* links;
    std::uint32_t len;
  };

  /// The path for `m` from `srcVertex` toward its destination: the unique
  /// route, or under an adaptive policy the routing policy's pick among the
  /// turnaround candidates, each scored by `cost(links, len)`. The links
  /// stay valid for the network's lifetime. Throws std::logic_error for a
  /// pair the butterfly does not connect.
  template <typename Cost>
  [[nodiscard]] Path pickPath(std::uint32_t srcVertex, const Message& m, const Cost& cost) {
    const PathSlot& slot =
        pathSlots_[static_cast<std::size_t>(srcVertex) * 2 * numNodes_ + vertexOf(m.dst)];
    if (slot.len == 0) throw std::logic_error("network: no route for " + m.describe());
    Path p{pathLinks_.data() + slot.offset, slot.len};
    if (slot.width > 1) {
      // The cost callback captures two words, which std::function keeps
      // inline: an adaptive decision allocates nothing.
      const std::uint32_t f = routing_->choose(
          slot.width, slot.baseline,
          [&p, &cost](std::uint32_t g) { return cost(p.links + g * p.len, p.len); });
      p.links += f * p.len;
    }
    return p;
  }

  [[nodiscard]] std::uint32_t flitsOf(const Message& m) const {
    const std::uint32_t bytes = m.sizeBytes(cfg_.headerBytes, lineBytes_);
    return (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
  }

  /// Give an entering message its id (unless it has one) and birth cycle,
  /// and count it.
  void stamp(Message& m) {
    if (m.id == 0) m.id = nextMsgId_++;
    m.birth = sched_.now();
    ++msgs_[static_cast<std::size_t>(m.type)];
  }

  /// Hand a message that reached endpoint vertex `epVertex` to the sink
  /// now, unless the fault injector drops it or delays it.
  void deliver(std::uint32_t epVertex, const Message& m);

  const NetworkConfig cfg_;
  const std::uint32_t numNodes_;
  const std::uint32_t lineBytes_;
  EventQueue& sched_;
  const NetworkHooks hooks_;
  const Butterfly topo_;
  std::array<CounterHandle, kMsgTypeCount> msgs_;  ///< "net.msgs.<type>", bumped per injection
  CounterHandle switchInjected_, sunk_;
  SamplerHandle latency_;  ///< injection -> delivery cycles
  /// Directed links in CSR form: vertex v's links are [linkBase_[v],
  /// linkBase_[v + 1]), to its neighbours in ascending vertex order, and
  /// link i enters vertex linkTo_[i]. Endpoints have one link, switches one
  /// per neighbour, so a switch's port p is its link linkBase_[v] + p.
  std::vector<std::uint32_t> linkBase_;
  std::vector<std::uint32_t> linkTo_;
  /// Flat id of the switch whose outgoing links the fault plan stalls;
  /// kNone when no stall is configured.
  std::uint32_t faultStallFlat_ = kNone;

 private:
  void buildLinks();
  /// Resolve every defined (source vertex, endpoint) pair into the path
  /// table, with every turnaround candidate under an adaptive policy.
  void buildPaths();
  void sinkNow(std::uint32_t epVertex, const Message& m);

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

  std::unique_ptr<RoutingPolicy> routing_;
  std::vector<PathSlot> pathSlots_;  ///< by srcVertex * 2N + dstVertex
  std::vector<std::uint32_t> pathLinks_;
  std::uint64_t nextMsgId_ = 1;
};

}  // namespace dresar
