#include "switchdir/dresar.h"

#include <stdexcept>

#include "common/log.h"
#include "fault/injector.h"

namespace dresar {

DresarManager::DresarManager(const SwitchDirConfig& cfg, const Butterfly& topo,
                             std::uint32_t lineBytes, std::uint32_t numNodes,
                             StatRegistry& stats, TxnTracer* tracer, FaultInjector* fault)
    : cfg_(cfg), topo_(topo), tracer_(tracer), fault_(fault) {
  if (numNodes > 128)
    throw std::invalid_argument("DresarManager: sharer masks support <= 128 nodes");
  if (cfg_.enabled()) {
    arb_ = makeSdArbitrationPolicy(cfg_.arbitrationPolicy);
    units_.reserve(topo_.totalSwitches());
    for (std::uint32_t i = 0; i < topo_.totalSwitches(); ++i) {
      Unit& u = units_.emplace_back(cfg_, lineBytes);
      const std::string pfx = "sd." + std::to_string(i) + ".";
      u.c.depositSkipped = stats.counterHandle(pfx + "deposit_skipped");
      u.c.writereplyOnTransient = stats.counterHandle(pfx + "writereply_on_transient");
      u.c.deposits = stats.counterHandle(pfx + "deposits");
      u.c.staleSelf = stats.counterHandle(pfx + "stale_self");
      u.c.ctocInitiated = stats.counterHandle(pfx + "ctoc_initiated");
      u.c.readRetries = stats.counterHandle(pfx + "read_retries");
      u.c.writeRetries = stats.counterHandle(pfx + "write_retries");
      u.c.ctocPassedTransient = stats.counterHandle(pfx + "ctoc_passed_transient");
      u.c.copybackServes = stats.counterHandle(pfx + "copyback_serves");
      u.c.writebackServes = stats.counterHandle(pfx + "writeback_serves");
      u.c.ownerRetryBounced = stats.counterHandle(pfx + "owner_retry_bounced");
      u.c.invalSnooped = stats.counterHandle(pfx + "inval_snooped");
    }
  }
}

const SwitchDirCache& DresarManager::cacheAt(SwitchId sw) const {
  return units_.at(topo_.flat(sw)).cache;
}

std::uint64_t DresarManager::total(CounterHandle Counters::*counter) const {
  std::uint64_t n = 0;
  for (const Unit& u : units_) n += (u.c.*counter).value();
  return n;
}

void DresarManager::trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg, SwitchId sw, Cycle now) {
  if (tracer_ != nullptr && txn != 0) {
    tracer_->record(txn, ev, leg, txnAtSwitch(topo_.flat(sw)), now);
  }
}

void DresarManager::bounce(SwitchId sw, Cycle now, TxnLeg leg, Addr block, NodeId requester,
                           std::uint64_t txn, std::vector<Message>& spawn) {
  trace(txn, TxnEvent::SwitchRetry, leg, sw, now);
  Message retry;
  retry.type = MsgType::Retry;
  retry.src = procEp(requester);
  retry.dst = procEp(requester);
  retry.addr = block;
  retry.requester = requester;
  retry.marked = true;
  retry.txn = txn;
  spawn.push_back(retry);
}

void DresarManager::serve(SwitchId sw, Cycle now, const SDEntry& e, Message& m,
                          std::vector<Message>& spawn) {
  trace(e.txn, TxnEvent::SwitchServe, TxnLeg::Forward, sw, now);
  Message reply;
  reply.type = MsgType::ReadReply;
  reply.src = procEp(e.requester);
  reply.dst = procEp(e.requester);
  reply.addr = m.addr;
  reply.requester = e.requester;
  reply.marked = true;
  reply.viaSwitchDir = true;
  reply.txn = e.txn;
  spawn.push_back(reply);
  m.carriedSharers |= nodeBit(e.requester);
  m.marked = true;
}

void DresarManager::setTransient(Unit& u, SDEntry& e, NodeId requester,
                                 std::uint64_t txn) {
  if (e.state != SDState::Transient) ++u.transientCount;
  e.state = SDState::Transient;
  e.requester = requester;
  e.txn = txn;
}

void DresarManager::clearEntry(Unit& u, SDEntry& e) {
  if (e.state == SDState::Transient) --u.transientCount;
  u.cache.invalidate(e);
}

Cycle DresarManager::reservePorts(Unit& u, Cycle now, bool pendingEligible,
                                  SDAccessPhase phase) {
  // Strict <: with N buffer entries, the Nth TRANSIENT entry is the last one
  // that fits, so a full buffer (transientCount == N) falls back to the main
  // directory ports. N = 0 (no pending buffer) always falls back.
  if (pendingEligible && u.transientCount < cfg_.pendingBufferEntries) {
    return arb_->reserve(u.pendingPorts, now, phase);
  }
  return arb_->reserve(u.mainPorts, now, phase);
}

SnoopOutcome DresarManager::onMessage(SwitchId sw, Cycle now, Message& m,
                                      std::vector<Message>& spawn) {
  if (!cfg_.enabled()) return {};
  Unit& u = unit(sw);

  switch (m.type) {
    case MsgType::WriteReply: {
      // Ownership grant flowing home -> writer: deposit/update an entry at
      // every switch on the backward path (paper 3.2 "Write Replies").
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/false, SDAccessPhase::Completion);
      SDEntry* e = u.cache.allocate(m.addr);
      if (e == nullptr) {
        ++u.c.depositSkipped;
        return {true, delay};
      }
      if (e->state == SDState::Transient) {
        // Should be unreachable: a write to a block with an in-flight
        // switch-initiated transfer is retried before reaching the home.
        ++u.c.writereplyOnTransient;
        return {true, delay};
      }
      e->state = SDState::Modified;
      e->owner = m.dst.node;
      e->requester = kInvalidNode;
      ++u.c.deposits;
      return {true, delay};
    }

    case MsgType::ReadRequest: {
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/false, SDAccessPhase::Request);
      SDEntry* e = u.cache.find(m.addr);
      if (e == nullptr) return {true, delay};
      if (e->state == SDState::Modified) {
        if (fault_ != nullptr && fault_->loseSdEntry()) {
          // Injected entry loss on a would-be hit: the paper's hint property
          // says this may only cost the trip to the home's full-map
          // directory, never correctness. TRANSIENT entries are never lost —
          // they track an in-flight transfer, not a hint.
          clearEntry(u, *e);
          return {true, delay};
        }
        if (e->owner == m.requester) {
          // Stale entry: the "owner" itself is asking again (it lost the
          // line since). Drop the entry and let the home service the read.
          ++u.c.staleSelf;
          clearEntry(u, *e);
          return {true, delay};
        }
        // Directory hit: sink the request and re-route a marked c2c request
        // straight to the owner's cache (paper 3.2 "Read Requests").
        const NodeId owner = e->owner;
        setTransient(u, *e, m.requester, m.txn);
        trace(m.txn, TxnEvent::SwitchIntercept, TxnLeg::Request, sw, now);
        Message ctoc;
        ctoc.type = MsgType::CtoCRequest;
        ctoc.src = procEp(m.requester);
        ctoc.dst = procEp(owner);
        ctoc.addr = m.addr;
        ctoc.requester = m.requester;
        ctoc.marked = true;
        ctoc.viaSwitchDir = true;
        ctoc.txn = m.txn;
        spawn.push_back(ctoc);
        ++u.c.ctocInitiated;
        return {false, delay};
      }
      // TRANSIENT: a transfer for this block is already in flight from this
      // switch; bounce the requester (design choice in paper 3.2).
      bounce(sw, now, TxnLeg::Request, m.addr, m.requester, m.txn, spawn);
      ++u.c.readRetries;
      return {false, delay};
    }

    case MsgType::WriteRequest: {
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/false, SDAccessPhase::Request);
      SDEntry* e = u.cache.find(m.addr);
      if (e == nullptr) return {true, delay};
      if (e->state == SDState::Modified) {
        clearEntry(u, *e);
        return {true, delay};
      }
      // TRANSIENT: NAK the writer, sink the request (paper 3.2).
      bounce(sw, now, TxnLeg::Request, m.addr, m.requester, m.txn, spawn);
      ++u.c.writeRetries;
      return {false, delay};
    }

    case MsgType::CtoCRequest: {
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/true, SDAccessPhase::Completion);
      SDEntry* e = u.cache.find(m.addr);
      if (e == nullptr) return {true, delay};
      if (e->state == SDState::Modified) {
        // A transfer (home- or switch-initiated) is about to downgrade the
        // owner; this entry would go stale, drop it (Figure 4a).
        clearEntry(u, *e);
        return {true, delay};
      }
      // TRANSIENT: this switch already initiated a transfer. The paper sinks
      // the request here, but that deadlocks if our own transfer fails (a
      // stale owner bounces it with a Retry and produces no copyback for the
      // home to complete on). Passing is always safe: the owner may serve
      // twice, and duplicate fills/sharer notifications are tolerated.
      ++u.c.ctocPassedTransient;
      return {true, delay};
    }

    case MsgType::CopyBack:
    case MsgType::WriteBack: {
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/true, SDAccessPhase::Completion);
      SDEntry* e = u.cache.find(m.addr);
      if (e == nullptr) return {true, delay};
      // While TRANSIENT, the passing data answers the stored requester: a
      // WriteBack means the dirty line was evicted before our marked
      // CtoCRequest reached the owner; a CopyBack serving a different
      // requester than the one this switch recorded carries the block too
      // (paper 3.2 "Write-Backs and Copy-Backs").
      const bool isCopyBack = m.type == MsgType::CopyBack;
      if (e->state == SDState::Transient &&
          (!isCopyBack || (m.carriedSharers & nodeBit(e->requester)) == 0)) {
        serve(sw, now, *e, m, spawn);
        ++(isCopyBack ? u.c.copybackServes : u.c.writebackServes);
      }
      clearEntry(u, *e);
      return {true, delay};
    }

    case MsgType::Retry: {
      // Only owner-generated marked retries heading to the home concern the
      // switch directory: they mean "I could not supply the block" and must
      // clear the initiating TRANSIENT entry and bounce its requester.
      if (!m.marked || m.dst.kind != EndpointKind::Mem) return {};
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/true, SDAccessPhase::Completion);
      SDEntry* e = u.cache.find(m.addr);
      if (e == nullptr || e->state != SDState::Transient) return {true, delay};
      bounce(sw, now, TxnLeg::Retry, m.addr, e->requester, e->txn, spawn);
      clearEntry(u, *e);
      ++u.c.ownerRetryBounced;
      // Keep travelling: another switch on the owner->home path may hold its
      // own TRANSIENT entry for this block and must be cleared too (sinking
      // here would orphan it). The home drops the message at the end.
      return {true, delay};
    }

    case MsgType::Invalidation: {
      if (!cfg_.snoopInvalidations) return {};
      const Cycle delay =
          reservePorts(u, now, /*pendingEligible=*/true, SDAccessPhase::Completion);
      SDEntry* e = u.cache.find(m.addr);
      if (e != nullptr && e->state == SDState::Modified) {
        clearEntry(u, *e);
        ++u.c.invalSnooped;
      }
      return {true, delay};
    }

    default:
      // ReadReply, CtoCReply, InvalAck need no switch-directory processing.
      return {};
  }
}

std::uint64_t DresarManager::transientEntries() const {
  std::uint64_t n = 0;
  for (const auto& u : units_) n += u.cache.countState(SDState::Transient);
  return n;
}

}  // namespace dresar
