// Message-level network model over the butterfly BMIN. Timing is derived
// from the paper's flit parameters (8-byte flits, 16-bit links, 4 link
// cycles per flit, 4-cycle switch core at 200 MHz): each hop charges the
// switch core delay plus link serialization, and messages queue on busy
// output links, so contention and message-length effects are modeled.
// Every switch exposes a snoop hook; the DRESAR switch-directory module
// observes (and may sink, annotate, or respond to) every traversing message.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/inetwork.h"
#include "interconnect/message.h"
#include "interconnect/topology.h"

namespace dresar {

class RoutingPolicy;

class Network final : public INetwork {
 public:
  /// `hooks` is the complete observer wiring (see NetworkHooks): the sink
  /// receives every delivered message, the snoop (typically the
  /// DresarManager) observes every switch traversal, the tracer records
  /// SwitchHop events, and the fault injector applies request-leg drop/delay
  /// at delivery plus the deterministic link-stall window on one switch's
  /// outgoing links. All four pointers are captured once, here.
  Network(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
          EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks);

  ~Network() override;  // out-of-line: RoutingPolicy is forward-declared

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Butterfly& topology() const override { return topo_; }

  /// Inject a message from its `src` endpoint at the current cycle.
  void send(Message m) override;

  [[nodiscard]] std::uint64_t messagesSent() const override { return sent_; }
  [[nodiscard]] std::uint64_t messagesSunk() const override { return sunk_; }

 private:
  // Vertex ids: procs [0,N), mems [N,2N), switches [2N, 2N + totalSwitches).
  [[nodiscard]] std::uint32_t vertexOf(Endpoint ep) const;
  [[nodiscard]] std::uint32_t vertexOf(SwitchId sw) const;

  [[nodiscard]] Cycle serializationCycles(const Message& m) const;

  /// Stamp, count and route a message entering at `srcVertex` now.
  void inject(MessageBox m, std::uint32_t srcVertex);

  /// Advance `m` along `route` starting at `hopIdx`; `fromVertex` is where the
  /// message currently sits, `when` the cycle it becomes ready to move. The
  /// route must point into routeTable_ or choiceTable_ (stable for the
  /// network's lifetime). The box travels with the message to delivery.
  void advance(MessageBox m, const Route* route, std::size_t hopIdx, std::uint32_t fromVertex,
               Cycle when);

  /// Precomputed route from any source vertex (endpoint or switch) to any
  /// endpoint vertex; topology routing runs once at construction, not per
  /// message.
  [[nodiscard]] const Route& routeFor(std::uint32_t fromVertex, std::uint32_t dstVertex) const {
    return routeTable_[static_cast<std::size_t>(fromVertex) * 2 * numNodes_ + dstVertex];
  }

  /// Route selection at injection: the precomputed LCA route for "lca", or
  /// the policy's pick among the pair's precomputed candidates (stable
  /// storage — advance() holds the pointer for the message's lifetime).
  [[nodiscard]] const Route* pickRoute(std::uint32_t fromVertex, std::uint32_t dstVertex);

  /// Sum over `r`'s links of how far each reservation extends past `now` —
  /// the queueing backlog an injected message would see.
  [[nodiscard]] std::uint64_t routeBacklog(const Route& r, std::uint32_t srcVertex,
                                           Cycle now) const;

  /// Build the directed link table: every vertex's neighbours, in ascending
  /// vertex order, with one reservation slot per link.
  void buildLinks();

  /// Index of the link from vertex `from` to its neighbour `to`.
  [[nodiscard]] std::uint32_t linkIndex(std::uint32_t from, std::uint32_t to) const;

  /// Reserve the (from,to) link starting no earlier than `ready`; returns the
  /// cycle the last flit lands at `to`.
  Cycle traverseLink(std::uint32_t from, std::uint32_t to, Cycle ready, const Message& m);

  /// Hand `m` to the endpoint's registered handler (post fault filtering).
  void deliverNow(const Message& m, Endpoint ep);

  /// Candidate routes for one (fromVertex, dst) pair with routing freedom.
  struct ChoiceSet {
    std::vector<Route> routes;   ///< by free digit f; routes[baseline] == the LCA route
    std::uint32_t baseline = 0;
  };

  NetworkConfig cfg_;
  std::uint32_t numNodes_;
  std::uint32_t lineBytes_;
  Butterfly topo_;
  EventQueue& sched_;
  std::array<CounterHandle, kMsgTypeCount> msgCounters_;  ///< "net.msgs.<type>"
  CounterHandle linkBusy_, switchInjected_, sunkCounter_;
  SamplerHandle latency_;
  std::vector<CounterHandle> traversals_;  ///< "switch.<flat>.traversals"
  /// Scratch buffer for snoop-spawned messages; only live inside one hop's
  /// snoop block (the snoop itself never re-enters advance), so it is safe
  /// to reuse across hops instead of allocating per traversal.
  std::vector<Message> snoopScratch_;
  /// Directed links in CSR form: vertex v's links are [linkBase_[v],
  /// linkBase_[v + 1]), receiving vertex linkTo_[i], next free cycle
  /// linkFree_[i]. Endpoints have one link, switches one per neighbour.
  std::vector<std::uint32_t> linkBase_;
  std::vector<std::uint32_t> linkTo_;
  std::vector<Cycle> linkFree_;
  std::uint64_t nextMsgId_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t sunk_ = 0;
  NetworkHooks hooks_;
  std::unique_ptr<RoutingPolicy> routing_;
  /// Vertex id of the switch whose outgoing links the fault plan stalls;
  /// UINT32_MAX when no stall is configured.
  std::uint32_t faultStallVertex_ = UINT32_MAX;
  std::vector<Route> routeTable_;  ///< by fromVertex * 2N + dstVertex; see routeFor()
  /// Only populated for adaptive policies: (fromVertex<<32|dstVertex) ->
  /// candidate routes. Element storage is stable after construction.
  std::unordered_map<std::uint64_t, ChoiceSet> choiceTable_;
};

}  // namespace dresar
