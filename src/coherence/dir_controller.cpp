#include "coherence/dir_controller.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/log.h"

namespace dresar {

namespace {
NodeMask bit(NodeId n) { return nodeBit(n); }
}  // namespace

const char* toString(DirState s) {
  switch (s) {
    case DirState::Uncached: return "Uncached";
    case DirState::Shared: return "Shared";
    case DirState::Modified: return "Modified";
    case DirState::BusyRead: return "BusyRead";
    case DirState::BusyWrite: return "BusyWrite";
  }
  return "?";
}

DirController::DirController(NodeId node, const SystemConfig& cfg, EventQueue& sched, INetwork& net,
                             StatRegistry& stats, TxnTracer* tracer)
    : node_(node), cfg_(cfg), sched_(sched), net_(net), tracer_(tracer) {
  const std::string pfx = "dir." + std::to_string(node) + ".";
  c_.pendingServed = stats.counterHandle(pfx + "pending_served");
  c_.requests = stats.counterHandle(pfx + "requests");
  c_.retryDropped = stats.counterHandle(pfx + "retry_dropped");
  c_.switchCacheSharers = stats.counterHandle(pfx + "switch_cache_sharers");
  c_.switchCacheStaleServe = stats.counterHandle(pfx + "switch_cache_stale_serve");
  c_.readsClean = stats.counterHandle(pfx + "reads_clean");
  c_.anomalyReadFromOwner = stats.counterHandle(pfx + "anomaly.read_from_owner");
  c_.homeCtoc = stats.counterHandle(pfx + "home_ctoc");
  c_.queued = stats.counterHandle(pfx + "queued");
  c_.upgrades = stats.counterHandle(pfx + "upgrades");
  c_.writeInvalidates = stats.counterHandle(pfx + "write_invalidates");
  c_.anomalyWriteFromOwner = stats.counterHandle(pfx + "anomaly.write_from_owner");
  c_.writeRecalls = stats.counterHandle(pfx + "write_recalls");
  c_.carriedSharerInvalidated = stats.counterHandle(pfx + "carried_sharer_invalidated");
  c_.anomalyRecallCopyback = stats.counterHandle(pfx + "anomaly.recall_copyback");
  c_.busyreadServedFromMemory = stats.counterHandle(pfx + "busyread_served_from_memory");
  c_.copybacks = stats.counterHandle(pfx + "copybacks");
  c_.copybackDuringWrite = stats.counterHandle(pfx + "copyback_during_write");
  c_.markedCopybacks = stats.counterHandle(pfx + "marked_copybacks");
  c_.copybackInShared = stats.counterHandle(pfx + "copyback_in_shared");
  c_.anomalyCopybackUncached = stats.counterHandle(pfx + "anomaly.copyback_uncached");
  c_.anomalyWritebackNotOwner = stats.counterHandle(pfx + "anomaly.writeback_not_owner");
  c_.markedWritebacks = stats.counterHandle(pfx + "marked_writebacks");
  c_.writebacks = stats.counterHandle(pfx + "writebacks");
  c_.writebackResolvesBusyread = stats.counterHandle(pfx + "writeback_resolves_busyread");
  c_.writebackDuringWrite = stats.counterHandle(pfx + "writeback_during_write");
  c_.anomalyStaleWriteback = stats.counterHandle(pfx + "anomaly.stale_writeback");
  c_.anomalySpuriousInvalAck = stats.counterHandle(pfx + "anomaly.spurious_inval_ack");
  c_.writesGranted = stats.counterHandle(pfx + "writes_granted");
  lastInjectTo_.resize(cfg_.numNodes, 0);
}

void DirController::trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg) {
  if (tracer_ != nullptr && txn != 0) tracer_->record(txn, ev, leg, txnAtMem(node_), sched_.now());
}

void DirController::sendOrdered(Message m, Cycle delay) {
  Cycle& horizon = lastInjectTo_.at(m.dst.node);
  const Cycle when = std::max(sched_.now() + delay, horizon);
  horizon = when;
  sched_.scheduleAt(when, [this, m = sched_.box(std::move(m))] {
    trace(m->txn, TxnEvent::HomeInject, txnLegOf(m->type));
    net_.send(*m);
  });
}

Cycle DirController::acquireCtrl() {
  const Cycle start = std::max(sched_.now(), ctrlFree_);
  ctrlFree_ = start + cfg_.dirOccupancyCycles;
  return start - sched_.now();
}

const DirController::Entry* DirController::peek(Addr block) const {
  auto it = dir_.find(block);
  return it == dir_.end() ? nullptr : &it->second;
}

bool DirController::quiescent() const {
  for (const auto& [addr, e] : dir_) {
    if (e.state == DirState::BusyRead || e.state == DirState::BusyWrite) return false;
    if (!e.queue.empty()) return false;
  }
  return true;
}

void DirController::describeInFlight(std::ostream& os) const {
  std::vector<std::pair<Addr, const Entry*>> busy;
  for (const auto& [addr, e] : dir_) {
    if (e.state == DirState::BusyRead || e.state == DirState::BusyWrite || !e.queue.empty()) {
      busy.emplace_back(addr, &e);
    }
  }
  if (busy.empty()) return;
  std::sort(busy.begin(), busy.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << "\n  dir " << node_ << ": " << busy.size() << " in-flight transaction(s)";
  for (const auto& [addr, e] : busy) {
    os << "\n    block 0x" << std::hex << addr << std::dec << ' ' << toString(e->state)
       << ", owner " << (e->owner == kInvalidNode ? -1 : static_cast<int>(e->owner))
       << ", pending requester "
       << (e->pendingRequester == kInvalidNode ? -1 : static_cast<int>(e->pendingRequester))
       << ", acks outstanding " << toHex(e->pendingAcks) << ", queued " << e->queue.size();
  }
}

void DirController::onMessage(const Message& m) {
  if (m.type == MsgType::ReadRequest || m.type == MsgType::WriteRequest) {
    trace(m.txn, TxnEvent::HomeArrive, TxnLeg::Request);
  }
  // Controller occupancy, then the slow DRAM directory lookup.
  const Cycle delay = acquireCtrl() + cfg_.dirLookupCycles;
  sched_.scheduleIn(delay, [this, m = sched_.box(m)] { process(*m); });
}

void DirController::process(const Message& m) {
  Entry& e = entry(m.addr);
  handle(m, e);
  // Serve queued requests the moment the entry leaves its BUSY state —
  // atomically within this event, so no fresh arrival can slip in between
  // and push an already-queued request back (which would break the FIFO
  // service order and allow starvation of, e.g., a lock holder's release).
  while (e.state != DirState::BusyRead && e.state != DirState::BusyWrite && !e.queue.empty()) {
    const Message next = e.queue.pop();
    ++c_.pendingServed;
    handle(next, e);
  }
}

void DirController::handle(const Message& m, Entry& e) {
  ++c_.requests;
  if (m.type == MsgType::ReadRequest || m.type == MsgType::WriteRequest) {
    // Recorded again when a queued request is re-handled after a BUSY state
    // resolves; both intervals are home-directory time.
    trace(m.txn, TxnEvent::HomeService, TxnLeg::Request);
  }
  switch (m.type) {
    case MsgType::ReadRequest: onReadRequest(m, e); break;
    case MsgType::WriteRequest: onWriteRequest(m, e); break;
    case MsgType::CopyBack: onCopyBack(m, e); break;
    case MsgType::WriteBack: onWriteBack(m, e); break;
    case MsgType::InvalAck: onInvalAck(m, e); break;
    case MsgType::Retry:
      // A marked owner-retry whose initiating TRANSIENT entry was already
      // cleared; nothing left to do (paper: home ignores it).
      ++c_.retryDropped;
      break;
    case MsgType::SharerNotify: {
      // Switch-cache extension: a read was served with clean data inside the
      // network; keep the full-map directory exact.
      const NodeId r = m.requester;
      if (e.state == DirState::Shared || e.state == DirState::Uncached) {
        e.state = DirState::Shared;
        e.sharers |= bit(r);
        ++c_.switchCacheSharers;
      } else {
        // The block turned dirty (or is mid-transaction): the served copy is
        // from the old epoch — clean it up with an ack-free invalidation.
        Message inv;
        inv.type = MsgType::Invalidation;
        inv.src = memEp(node_);
        inv.dst = procEp(r);
        inv.addr = m.addr;
        inv.marked = true;  // marked invalidation = no ack expected
        sendOrdered(std::move(inv), 0);
        ++c_.switchCacheStaleServe;
      }
      break;
    }
    default:
      throw std::logic_error("DirController: unexpected message " + m.describe());
  }
}

void DirController::sendReadReply(NodeId to, Addr block, bool viaSwitchDir,
                                  std::uint64_t txn) {
  Message r;
  r.type = MsgType::ReadReply;
  r.src = memEp(node_);
  r.dst = procEp(to);
  r.addr = block;
  r.requester = to;
  r.viaSwitchDir = viaSwitchDir;
  r.txn = txn;
  sendOrdered(std::move(r), cfg_.memAccessCycles);
}

void DirController::sendWriteReply(NodeId to, Addr block, std::uint64_t txn) {
  Message r;
  r.type = MsgType::WriteReply;
  r.src = memEp(node_);
  r.dst = procEp(to);
  r.addr = block;
  r.requester = to;
  r.txn = txn;
  sendOrdered(std::move(r), cfg_.memAccessCycles);
}

void DirController::sendInvalidation(NodeId to, Addr block, bool recall) {
  Message inv;
  inv.type = MsgType::Invalidation;
  inv.src = memEp(node_);
  inv.dst = procEp(to);
  inv.addr = block;
  inv.recall = recall;
  sendOrdered(std::move(inv), 0);
}

void DirController::onReadRequest(const Message& m, Entry& e) {
  const NodeId r = m.requester;
  switch (e.state) {
    case DirState::Uncached:
    case DirState::Shared:
      e.state = DirState::Shared;
      e.sharers |= bit(r);
      ++c_.readsClean;
      sendReadReply(r, m.addr, /*viaSwitchDir=*/false, m.txn);
      break;
    case DirState::Modified:
      if (e.owner == r) {
        // Unreachable with per-path FIFO ordering; tolerate and serve.
        ++c_.anomalyReadFromOwner;
        sendReadReply(r, m.addr, /*viaSwitchDir=*/false, m.txn);
        break;
      }
      e.state = DirState::BusyRead;
      e.pendingRequester = r;
      e.pendingTxn = m.txn;
      ++c_.homeCtoc;
      {
        Message fwd;
        fwd.type = MsgType::CtoCRequest;
        fwd.src = memEp(node_);
        fwd.dst = procEp(e.owner);
        fwd.addr = m.addr;
        fwd.requester = r;
        fwd.txn = m.txn;
        sendOrdered(std::move(fwd), 0);
      }
      break;
    case DirState::BusyRead:
    case DirState::BusyWrite:
      e.queue.push(m);
      ++c_.queued;
      break;
  }
}

void DirController::onWriteRequest(const Message& m, Entry& e) {
  const NodeId w = m.requester;
  switch (e.state) {
    case DirState::Uncached:
      e.state = DirState::Modified;
      e.owner = w;
      e.sharers = 0;
      sendWriteReply(w, m.addr, m.txn);
      break;
    case DirState::Shared: {
      const NodeMask others = e.sharers & ~bit(w);
      if (others == 0) {
        e.state = DirState::Modified;
        e.owner = w;
        e.sharers = 0;
        ++c_.upgrades;
        sendWriteReply(w, m.addr, m.txn);
        break;
      }
      e.state = DirState::BusyWrite;
      e.pendingRequester = w;
      e.pendingTxn = m.txn;
      e.pendingAcks = others;
      for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if (others & bit(n)) sendInvalidation(n, m.addr);
      }
      ++c_.writeInvalidates;
      break;
    }
    case DirState::Modified:
      if (e.owner == w) {
        ++c_.anomalyWriteFromOwner;
        sendWriteReply(w, m.addr, m.txn);
        break;
      }
      // Recall the dirty line, then grant ownership from memory.
      e.state = DirState::BusyWrite;
      e.pendingRequester = w;
      e.pendingTxn = m.txn;
      e.pendingAcks = bit(e.owner);
      sendInvalidation(e.owner, m.addr, /*recall=*/true);
      ++c_.writeRecalls;
      break;
    case DirState::BusyRead:
    case DirState::BusyWrite:
      e.queue.push(m);
      ++c_.queued;
      break;
  }
}

void DirController::absorbCarriedSharers(const Message& m, Addr block, Entry& e) {
  // Requesters served inside the network hold S copies the in-progress write
  // must invalidate before ownership is granted.
  for (NodeId n = 0; n < cfg_.numNodes; ++n) {
    if ((m.carriedSharers & bit(n)) == 0) continue;
    if (n == e.pendingRequester) continue;
    if (e.pendingAcks & bit(n)) continue;
    e.pendingAcks |= bit(n);
    sendInvalidation(n, block);
    ++c_.carriedSharerInvalidated;
  }
}

void DirController::onCopyBack(const Message& m, Entry& e) {
  const NodeId from = m.src.node;
  if (m.recall) {
    // The owner surrendered the line in response to a recall Invalidation.
    if (e.state == DirState::BusyWrite && (e.pendingAcks & bit(from)) != 0) {
      // A TRANSIENT switch may have served readers from this copyback's data
      // on the way here (annotating it); they hold S copies that must fall
      // under this write's invalidation set before ownership is granted.
      absorbCarriedSharers(m, m.addr, e);
      e.pendingAcks &= ~bit(from);
      e.owner = kInvalidNode;
      if (e.pendingAcks == 0) completeBusyWrite(m.addr, e);
    } else {
      ++c_.anomalyRecallCopyback;
    }
    return;
  }
  switch (e.state) {
    case DirState::BusyRead: {
      const NodeId r = e.pendingRequester;
      if ((m.carriedSharers & bit(r)) == 0) {
        // The copyback completed a different transfer (a switch-initiated
        // one); serve our requester from the now-clean memory copy.
        sendReadReply(r, m.addr, /*viaSwitchDir=*/false, e.pendingTxn);
        ++c_.busyreadServedFromMemory;
      }
      e.sharers = bit(from) | m.carriedSharers | bit(r);
      e.owner = kInvalidNode;
      e.pendingRequester = kInvalidNode;
      e.pendingTxn = 0;
      e.state = DirState::Shared;
      ++c_.copybacks;
      break;
    }
    case DirState::BusyWrite:
      absorbCarriedSharers(m, m.addr, e);
      ++c_.copybackDuringWrite;
      break;
    case DirState::Modified:
      // Switch-initiated transfer completing with no home involvement: the
      // "marked copyback" path of paper 3.2.
      e.sharers = bit(from) | m.carriedSharers;
      e.owner = kInvalidNode;
      e.state = DirState::Shared;
      ++(m.marked ? c_.markedCopybacks : c_.copybacks);
      break;
    case DirState::Shared:
      e.sharers |= bit(from) | m.carriedSharers;
      ++c_.copybackInShared;
      break;
    case DirState::Uncached:
      ++c_.anomalyCopybackUncached;
      break;
  }
}

void DirController::onWriteBack(const Message& m, Entry& e) {
  const NodeId from = m.src.node;
  switch (e.state) {
    case DirState::Modified:
      if (e.owner != from) {
        ++c_.anomalyWritebackNotOwner;
        break;
      }
      e.owner = kInvalidNode;
      if (m.carriedSharers != 0) {
        // Marked write-back: switch directories served requesters from the
        // victim's data on its way here.
        e.sharers = m.carriedSharers;
        e.state = DirState::Shared;
        ++c_.markedWritebacks;
      } else {
        e.sharers = 0;
        e.state = DirState::Uncached;
        ++c_.writebacks;
      }
      break;
    case DirState::BusyRead: {
      // The owner evicted the line before our forwarded request reached it;
      // its data just arrived, serve the waiting read from memory.
      const NodeId r = e.pendingRequester;
      if ((m.carriedSharers & bit(r)) == 0) {
        sendReadReply(r, m.addr, /*viaSwitchDir=*/false, e.pendingTxn);
      }
      e.sharers = m.carriedSharers | bit(r);
      e.owner = kInvalidNode;
      e.pendingRequester = kInvalidNode;
      e.pendingTxn = 0;
      e.state = DirState::Shared;
      ++c_.writebackResolvesBusyread;
      break;
    }
    case DirState::BusyWrite:
      // Owner evicted instead of answering the recall; its InvalAck arrives
      // separately (the invalidation finds the line gone).
      absorbCarriedSharers(m, m.addr, e);
      ++c_.writebackDuringWrite;
      break;
    case DirState::Shared:
    case DirState::Uncached:
      ++c_.anomalyStaleWriteback;
      break;
  }
}

void DirController::onInvalAck(const Message& m, Entry& e) {
  const NodeId from = m.src.node;
  if (e.state != DirState::BusyWrite || (e.pendingAcks & bit(from)) == 0) {
    ++c_.anomalySpuriousInvalAck;
    return;
  }
  e.pendingAcks &= ~bit(from);
  e.sharers &= ~bit(from);
  if (e.pendingAcks == 0) completeBusyWrite(m.addr, e);
}

void DirController::completeBusyWrite(Addr block, Entry& e) {
  const NodeId w = e.pendingRequester;
  const std::uint64_t txn = e.pendingTxn;
  e.state = DirState::Modified;
  e.owner = w;
  e.sharers = 0;
  e.pendingRequester = kInvalidNode;
  e.pendingTxn = 0;
  e.pendingAcks = 0;
  ++c_.writesGranted;
  sendWriteReply(w, block, txn);
}

}  // namespace dresar
