// Abstract interconnect interface. Two implementations exist:
//   * Network      — message-level timing (default; fast): per-hop core +
//                    serialization delay with queueing on busy output links,
//   * FlitNetwork  — flit-level wormhole switching with input-buffered
//                    virtual channels, credits and age-based arbitration,
//                    faithful to paper Section 4.1.
// Both run over the same Butterfly topology and feed the same snoop hook,
// so the switch-directory protocol is identical; only timing fidelity
// differs (see sweeps/validation.spec, report `validation`).
//
// Observer wiring is immutable: every observer (delivery sink, snoop,
// tracer, fault injector) arrives in one NetworkHooks struct at
// construction and never changes. There is no setter to call in the wrong
// order, no window where a message can race an observer installation, and
// a null hook simply disables that observer for the network's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "interconnect/message.h"
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

  [[nodiscard]] virtual const Butterfly& topology() const = 0;
  virtual void send(Message m) = 0;
  [[nodiscard]] virtual std::uint64_t messagesSent() const = 0;
  [[nodiscard]] virtual std::uint64_t messagesSunk() const = 0;
  /// Congestion telemetry, or nullptr when this model does not collect any.
  [[nodiscard]] virtual const CongestionTelemetry* congestion() const { return nullptr; }
};

}  // namespace dresar
