#include "switchdir/switch_cache.h"

#include <stdexcept>

#include "fault/injector.h"

namespace dresar {

SwitchCacheManager::SwitchCacheManager(const SwitchCacheConfig& cfg, const Butterfly& topo,
                                       std::uint32_t lineBytes, StatRegistry& stats,
                                       FaultInjector* fault)
    : cfg_(cfg), topo_(topo), fault_(fault) {
  if (cfg_.enabled()) {
    arb_ = makeSdArbitrationPolicy(cfg_.arbitrationPolicy);
    units_.reserve(topo_.totalSwitches());
    for (std::uint32_t i = 0; i < topo_.totalSwitches(); ++i) {
      Unit& u = units_.emplace_back(cfg_, lineBytes);
      const std::string pfx = "sc." + std::to_string(i) + ".";
      u.deposits = stats.counterHandle(pfx + "deposits");
      u.serves = stats.counterHandle(pfx + "serves");
      u.invalidates = stats.counterHandle(pfx + "invalidates");
    }
  }
}

std::uint64_t SwitchCacheManager::total(CounterHandle Unit::*counter) const {
  std::uint64_t n = 0;
  for (const Unit& u : units_) n += (u.*counter).value();
  return n;
}

SnoopOutcome SwitchCacheManager::onMessage(SwitchId sw, Cycle now, Message& m,
                                           std::vector<Message>& spawn) {
  if (!cfg_.enabled()) return {};
  Unit& u = unit(sw);

  switch (m.type) {
    case MsgType::ReadReply: {
      // Clean data flowing home -> reader: deposit it. Switch-served replies
      // are not re-deposited (they never crossed the home).
      if (m.viaSwitchCache || m.marked) return {};
      const Cycle delay = arb_->reserve(u.ports, now, SDAccessPhase::Completion);
      if (SDEntry* e = u.tags.allocate(m.addr); e != nullptr) {
        e->state = SDState::Shared;  // clean data captured at the switch
        e->owner = kInvalidNode;
        ++u.deposits;
      }
      return {true, delay};
    }

    case MsgType::ReadRequest: {
      const Cycle delay = arb_->reserve(u.ports, now, SDAccessPhase::Request);
      SDEntry* e = u.tags.find(m.addr);
      if (e == nullptr) return {true, delay};
      if (fault_ != nullptr && fault_->loseSdEntry()) {
        // Injected entry loss on a would-be serve: the request falls back to
        // the home, costing one trip but never coherence.
        u.tags.invalidate(*e);
        ++u.invalidates;
        return {true, delay};
      }
      // Serve the read right here and tell the home about the new sharer.
      Message reply;
      reply.type = MsgType::ReadReply;
      reply.src = procEp(m.requester);
      reply.dst = procEp(m.requester);
      reply.addr = m.addr;
      reply.requester = m.requester;
      reply.viaSwitchCache = true;
      reply.txn = m.txn;
      spawn.push_back(reply);

      Message notify;
      notify.type = MsgType::SharerNotify;
      notify.src = procEp(m.requester);
      notify.dst = m.dst;  // the home this request was heading to
      notify.addr = m.addr;
      notify.requester = m.requester;
      spawn.push_back(notify);

      ++u.serves;
      return {false, delay};
    }

    // Anything that can make the cached value stale kills the entry.
    case MsgType::WriteRequest:
    case MsgType::WriteReply:
    case MsgType::Invalidation:
    case MsgType::CtoCRequest:
    case MsgType::CopyBack:
    case MsgType::WriteBack: {
      const Cycle delay = arb_->reserve(u.ports, now, SDAccessPhase::Completion);
      if (SDEntry* e = u.tags.find(m.addr); e != nullptr) {
        u.tags.invalidate(*e);
        ++u.invalidates;
      }
      return {true, delay};
    }

    default:
      return {};
  }
}

}  // namespace dresar
