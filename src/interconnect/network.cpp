#include "interconnect/network.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.h"
#include "fault/injector.h"

namespace dresar {

Network::Network(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
                 EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks)
    : INetwork(cfg, numNodes, lineBytes, sched, stats, hooks),
      linkBusy_(stats.counterHandle("net.link.busy_cycles")),
      linkFree_(linkTo_.size(), 0) {
  traversals_.reserve(topo_.totalSwitches());
  for (std::uint32_t i = 0; i < topo_.totalSwitches(); ++i) {
    traversals_.push_back(stats.counterHandle("switch." + std::to_string(i) + ".traversals"));
  }
}

std::uint64_t Network::pathBacklog(const std::uint32_t* links, std::uint32_t len,
                                   Cycle now) const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    const Cycle free = linkFree_[links[i]];
    if (free > now) total += free - now;
  }
  return total;
}

Cycle Network::traverseLink(std::uint32_t link, std::uint32_t from, Cycle ready,
                            const Message& m) {
  Cycle& free = linkFree_[link];
  Cycle start = std::max(ready, free);
  if (isSwitchVertex(from) && from - 2 * numNodes_ == faultStallFlat_)
    start = hooks_.fault->stallAdjustedStart(start);
  const Cycle ser = static_cast<Cycle>(flitsOf(m)) * cfg_.linkCyclesPerFlit;
  free = start + ser;
  linkBusy_ += ser;
  return start + ser;
}

void Network::send(Message m) {
  requireRoutable(m, numNodes_);
  const std::uint32_t srcVertex = vertexOf(m.src);
  inject(sched_.box(std::move(m)), srcVertex);
}

void Network::inject(MessageBox m, std::uint32_t srcVertex) {
  const Cycle now = sched_.now();
  const Path path =
      pickPath(srcVertex, *m, [this, now](const std::uint32_t* links, std::uint32_t len) {
        return pathBacklog(links, len, now);
      });
  stamp(*m);
  DRESAR_LOG_TRACE("net: @%llu inject at vertex %u %s", static_cast<unsigned long long>(now),
                   srcVertex, m->describe().c_str());
  advance(std::move(m), path.links, srcVertex, now);
}

void Network::advance(MessageBox m, const std::uint32_t* link, std::uint32_t fromVertex,
                      Cycle when) {
  const std::uint32_t to = linkTo_[*link];
  const Cycle arrive = traverseLink(*link, fromVertex, when, *m);

  if (!isSwitchVertex(to)) {
    sched_.scheduleAt(arrive, [this, m = std::move(m), to] { deliver(to, *m); });
    return;
  }

  sched_.scheduleAt(arrive, [this, m = std::move(m), link, to]() mutable {
    const std::uint32_t flat = to - 2 * numNodes_;
    ++traversals_[flat];
    if (hooks_.tracer != nullptr && m->txn != 0) {
      hooks_.tracer->record(m->txn, TxnEvent::SwitchHop, txnLegOf(m->type), txnAtSwitch(flat),
                            sched_.now());
    }
    Cycle delay = cfg_.coreDelay;
    if (hooks_.snoop != nullptr) {
      const SwitchId sw = topo_.unflat(flat);
      std::vector<Message>& spawn = snoopScratch_;
      spawn.clear();
      const SnoopOutcome out = hooks_.snoop->onMessage(sw, sched_.now(), *m, spawn);
      delay += out.extraDelay;
      for (auto& s : spawn) {
        // Switch-generated messages leave after the directory decision.
        sched_.scheduleIn(delay, [this, to, s = sched_.box(std::move(s))]() mutable {
          ++switchInjected_;
          inject(std::move(s), to);
        });
      }
      if (!out.pass) {
        ++sunk_;
        DRESAR_LOG_TRACE("net: %s sunk at switch(%u,%u)", m->describe().c_str(), sw.stage,
                         sw.index);
        return;
      }
    }
    advance(std::move(m), link + 1, to, sched_.now() + delay);
  });
}

}  // namespace dresar
