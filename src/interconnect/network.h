// Message-level network model over the butterfly BMIN. Timing is derived
// from the paper's flit parameters (8-byte flits, 16-bit links, 4 link
// cycles per flit, 4-cycle switch core at 200 MHz): each hop charges the
// switch core delay plus link serialization, and messages queue on busy
// output links, so contention and message-length effects are modeled.
// Every switch exposes a snoop hook; the DRESAR switch-directory module
// observes (and may sink, annotate, or respond to) every traversing message.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/inetwork.h"
#include "interconnect/message.h"

namespace dresar {

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

  /// Inject a message from its `src` endpoint at the current cycle.
  void send(Message m) override;

 private:
  /// Stamp, count and route a message entering at `srcVertex` now.
  void inject(MessageBox m, std::uint32_t srcVertex);

  /// Move `m` over `*link`, the next link of its path (stable storage in
  /// the path table), from `fromVertex` once it is ready at `when`. The box
  /// travels with the message to delivery.
  void advance(MessageBox m, const std::uint32_t* link, std::uint32_t fromVertex, Cycle when);

  /// Sum over the `len` links from `links` of how far each reservation
  /// extends past `now` — the queueing backlog an injected message would see.
  [[nodiscard]] std::uint64_t pathBacklog(const std::uint32_t* links, std::uint32_t len,
                                          Cycle now) const;

  /// Reserve `link` (leaving `from`) starting no earlier than `ready`;
  /// returns the cycle the last flit lands at the far end.
  Cycle traverseLink(std::uint32_t link, std::uint32_t from, Cycle ready, const Message& m);

  CounterHandle linkBusy_;
  std::vector<CounterHandle> traversals_;  ///< "switch.<flat>.traversals"
  /// Scratch buffer for snoop-spawned messages; only live inside one hop's
  /// snoop block (the snoop itself never re-enters advance), so it is safe
  /// to reuse across hops instead of allocating per traversal.
  std::vector<Message> snoopScratch_;
  std::vector<Cycle> linkFree_;  ///< next free cycle, by link index
};

}  // namespace dresar
