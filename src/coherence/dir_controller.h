// Home-node directory controller: full-map three-state directory
// (UNCACHED / SHARED / MODIFIED) with BUSY transients and a per-block pending
// queue, slow DRAM directory lookups, banked memory access, and controller
// occupancy — the costs the switch directories exist to avoid. Includes the
// paper's "minor modification ... for handling marked writeback and copyback
// requests": marked messages carry the pids of requesters served inside the
// network, which the home folds into the sharer vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>
#include <string>
#include <unordered_map>

#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "interconnect/network.h"

namespace dresar {

enum class DirState : std::uint8_t { Uncached, Shared, Modified, BusyRead, BusyWrite };

const char* toString(DirState s);

class DirController {
 public:
  /// `tracer` records home arrive/service/inject events; null when untraced.
  DirController(NodeId node, const SystemConfig& cfg, EventQueue& sched, INetwork& net,
                StatRegistry& stats, TxnTracer* tracer = nullptr);

  DirController(const DirController&) = delete;
  DirController& operator=(const DirController&) = delete;

  void onMessage(const Message& m);

  [[nodiscard]] NodeId node() const { return node_; }

  /// Home-node cache-to-cache forwards (the Figure 8 metric).
  [[nodiscard]] std::uint64_t homeCtoCForwards() const { return c_.homeCtoc.value(); }

  /// FIFO of requests waiting out a BUSY state: a vector and a head index.
  /// Unlike std::deque, which allocates a 544-byte block on default
  /// construction, an empty queue owns no memory, and most directory entries
  /// never queue anything.
  class PendingQueue {
   public:
    [[nodiscard]] bool empty() const { return head_ == items_.size(); }
    [[nodiscard]] std::size_t size() const { return items_.size() - head_; }
    void push(const Message& m) { items_.push_back(m); }
    Message pop() {
      Message m = items_[head_++];
      if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 32 && 2 * head_ >= items_.size()) {
        // Reclaim the served prefix of a queue that never quite drains.
        items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      return m;
    }

   private:
    std::vector<Message> items_;
    std::size_t head_ = 0;
  };

  struct Entry {
    DirState state = DirState::Uncached;
    NodeMask sharers = 0;           ///< bit per node (SHARED)
    NodeId owner = kInvalidNode;    ///< valid in MODIFIED / during BUSY
    NodeId pendingRequester = kInvalidNode;
    std::uint64_t pendingTxn = 0;   ///< pendingRequester's traced transaction
    NodeMask pendingAcks = 0;       ///< BUSY_WR: invalidations not yet acked
    PendingQueue queue;             ///< requests waiting out a BUSY state
  };

  /// Directory state snapshot for invariant checks; nullptr if never touched.
  [[nodiscard]] const Entry* peek(Addr block) const;
  [[nodiscard]] bool quiescent() const;
  /// Append a human-readable line per in-flight directory transaction (block,
  /// state, owner, pending requester, acks, queue depth) to `os`. Deadlock
  /// diagnostics.
  void describeInFlight(std::ostream& os) const;

 private:
  /// Record `ev` for traced transaction `txn` at this home, now; a no-op
  /// when untraced.
  void trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg);
  Cycle acquireCtrl();
  Entry& entry(Addr block) { return dir_[block]; }

  void process(const Message& m);
  void handle(const Message& m, Entry& e);
  void onReadRequest(const Message& m, Entry& e);
  void onWriteRequest(const Message& m, Entry& e);
  void onCopyBack(const Message& m, Entry& e);
  void onWriteBack(const Message& m, Entry& e);
  void onInvalAck(const Message& m, Entry& e);

  /// Inject `m` after `delay`, but never before a previously issued message
  /// to the same destination: the home's outgoing messages to one node are
  /// FIFO (one output port), which the protocol relies on — a CtoCRequest or
  /// recall must not overtake the WriteReply that granted ownership.
  void sendOrdered(Message m, Cycle delay);
  void sendReadReply(NodeId to, Addr block, bool viaSwitchDir = false,
                     std::uint64_t txn = 0);
  void sendWriteReply(NodeId to, Addr block, std::uint64_t txn = 0);
  void sendInvalidation(NodeId to, Addr block, bool recall = false);
  void completeBusyWrite(Addr block, Entry& e);

  /// Fold switch-served sharers carried on marked messages into the vector
  /// and, while a write is pending, invalidate them again.
  void absorbCarriedSharers(const Message& m, Addr block, Entry& e);

  NodeId node_;
  const SystemConfig& cfg_;
  EventQueue& sched_;
  INetwork& net_;
  TxnTracer* const tracer_;
  /// Per-home counters ("dir.<n>.*"), resolved once at construction.
  struct Counters {
    CounterHandle pendingServed, requests, retryDropped, switchCacheSharers,
        switchCacheStaleServe, readsClean, anomalyReadFromOwner, homeCtoc, queued, upgrades,
        writeInvalidates, anomalyWriteFromOwner, writeRecalls, carriedSharerInvalidated,
        anomalyRecallCopyback, busyreadServedFromMemory, copybacks, copybackDuringWrite,
        markedCopybacks, copybackInShared, anomalyCopybackUncached, anomalyWritebackNotOwner,
        markedWritebacks, writebacks, writebackResolvesBusyread, writebackDuringWrite,
        anomalyStaleWriteback, anomalySpuriousInvalAck, writesGranted;
  };
  Counters c_;
  std::unordered_map<Addr, Entry> dir_;
  std::vector<Cycle> lastInjectTo_;  ///< per-destination FIFO horizon
  Cycle ctrlFree_ = 0;
};

}  // namespace dresar
