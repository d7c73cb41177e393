// Coherence message vocabulary (paper Table 1 plus the auxiliary messages a
// complete full-map MSI protocol needs: invalidations, acks and read replies).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/arena.h"
#include "common/txn_trace.h"
#include "common/types.h"

namespace dresar {

enum class MsgType : std::uint8_t {
  // Paper Table 1.
  ReadRequest,    ///< load miss to (possibly remote) memory          (fwd)
  WriteRequest,   ///< store miss / upgrade, asks for ownership       (fwd)
  WriteReply,     ///< ownership (+data) grant from home              (bwd)
  CtoCRequest,    ///< read forwarded to the owning cache             (bwd)
  CopyBack,       ///< owner -> home data after a c2c transfer        (fwd)
  WriteBack,      ///< dirty replacement victim -> home               (fwd)
  Retry,          ///< negative ack, requester must retry             (bwd)
  // Completing the protocol.
  ReadReply,      ///< clean data from home                           (bwd)
  CtoCReply,      ///< data from owner cache to the requester         (proc->proc)
  Invalidation,   ///< home -> sharer/owner on a write (recall)       (bwd)
  InvalAck,       ///< sharer -> home                                 (fwd)
  SharerNotify,   ///< switch cache -> home: reader served in-network (fwd)
};

/// Number of MsgType enumerators; sizes per-type stat handle arrays.
inline constexpr std::size_t kMsgTypeCount =
    static_cast<std::size_t>(MsgType::SharerNotify) + 1;

const char* toString(MsgType t);

/// True for messages that carry a full cache line of data.
bool carriesData(MsgType t);

/// One network message. Protocol payloads (owner pid, requester pid, marked
/// bit) ride in dedicated fields; real data values live in the workloads'
/// backing store, the protocol only tracks ownership and timing.
struct Message {
  MsgType type = MsgType::ReadRequest;
  Endpoint src;
  Endpoint dst;
  Addr addr = kInvalidAddr;       ///< block-aligned address
  NodeId requester = kInvalidNode;///< original requester (forwards/replies)
  /// Set on messages generated by a switch directory ("a single bit in the
  /// header flit", paper 3.2) and on copy-backs/write-backs annotated with a
  /// requester pid that the home must add as a sharer.
  bool marked = false;
  /// Sharer pids carried to the home on CopyBack/WriteBack (bit per node) so
  /// the full-map directory learns about every requester served on the way
  /// (by the owner cache or by switch directories along the path).
  NodeMask carriedSharers = 0;
  /// Set on replies whose transaction was initiated by a switch directory;
  /// lets the requester classify the service (Figure 8/9 accounting).
  bool viaSwitchDir = false;
  /// Set on ReadReplies served from a switch *cache* (extension).
  bool viaSwitchCache = false;
  /// On an Invalidation: the home is recalling the *owner's* dirty line (as
  /// opposed to invalidating a sharer's clean copy). On a CopyBack: this is
  /// the owner's response to such a recall (it gave the line up entirely,
  /// unlike c2c copybacks where the owner keeps a shared copy).
  bool recall = false;
  std::uint64_t id = 0;           ///< unique id, for tracing/debugging
  Cycle birth = 0;                ///< injection cycle, for latency stats
  /// Transaction id for the latency-attribution tracer (0 = untraced).
  /// Carried across forwards/replies so every hop of a miss can be timed.
  std::uint64_t txn = 0;

  [[nodiscard]] std::uint32_t sizeBytes(std::uint32_t headerBytes, std::uint32_t lineBytes) const {
    return headerBytes + (carriesData(type) ? lineBytes : 0);
  }

  [[nodiscard]] std::string describe() const;
};

/// Move-only handle to a Message boxed in the event queue's arena
/// (EventQueue::box). Event closures carry messages this way: a Message is
/// too big for the 64-byte event record, and a handle moves from hop to hop
/// without copying the message.
using MessageBox = ArenaBox<Message>;

/// Protocol leg a message type travels on, for trace stage attribution.
inline TxnLeg txnLegOf(MsgType t) {
  switch (t) {
    case MsgType::ReadRequest:
    case MsgType::WriteRequest:
      return TxnLeg::Request;
    case MsgType::CtoCRequest:
      return TxnLeg::Forward;
    case MsgType::ReadReply:
    case MsgType::CtoCReply:
    case MsgType::WriteReply:
      return TxnLeg::Return;
    case MsgType::Retry:
      return TxnLeg::Retry;
    default:
      return TxnLeg::None;
  }
}

}  // namespace dresar
