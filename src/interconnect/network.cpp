#include "interconnect/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "fault/injector.h"
#include "interconnect/routing.h"

namespace dresar {

namespace {
/// Seed for stateful routing policies' private RNG streams. Fixed (not
/// configurable): routing decisions must replay identically for a given
/// config, like every other internal stream.
constexpr std::uint64_t kRoutingSeed = 0xC0A9E5710B15ull;
}  // namespace

Network::Network(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
                 EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks)
    : cfg_(cfg),
      numNodes_(numNodes),
      lineBytes_(lineBytes),
      topo_(numNodes, cfg.switchRadix),
      sched_(sched),
      hooks_(hooks),
      routing_(makeRoutingPolicy(cfg.routing, kRoutingSeed)) {
  if (hooks_.fault != nullptr && hooks_.fault->linkStall().active()) {
    const LinkStallSpec& s = hooks_.fault->linkStall();
    faultStallVertex_ = vertexOf(SwitchId{s.stage, s.index});
  }
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    msgCounters_[t] =
        stats.counterHandle(std::string("net.msgs.") + toString(static_cast<MsgType>(t)));
  }
  linkBusy_ = stats.counterHandle("net.link.busy_cycles");
  switchInjected_ = stats.counterHandle("net.switch_injected");
  sunkCounter_ = stats.counterHandle("net.sunk");
  latency_ = stats.samplerHandle("net.latency");
  traversals_.reserve(topo_.totalSwitches());
  for (std::uint32_t i = 0; i < topo_.totalSwitches(); ++i) {
    traversals_.push_back(stats.counterHandle("switch." + std::to_string(i) + ".traversals"));
  }

  buildLinks();

  // Precompute every legal route. Undefined pairs (mem->mem, switch -> a
  // memory outside its subtree) stay empty; nothing on the hot path asks
  // for them.
  const std::uint32_t epCount = 2 * numNodes_;
  routeTable_.resize(static_cast<std::size_t>(epCount + topo_.totalSwitches()) * epCount);
  for (std::uint32_t d = 0; d < epCount; ++d) {
    const Endpoint dst = d < numNodes_ ? procEp(d) : memEp(d - numNodes_);
    for (std::uint32_t s = 0; s < epCount; ++s) {
      const Endpoint src = s < numNodes_ ? procEp(s) : memEp(s - numNodes_);
      if (src.kind == EndpointKind::Mem && dst.kind == EndpointKind::Mem) continue;
      routeTable_[static_cast<std::size_t>(s) * epCount + d] = topo_.route(src, dst);
    }
    for (std::uint32_t f = 0; f < topo_.totalSwitches(); ++f) {
      const SwitchId sw{f / topo_.switchesPerStage(), f % topo_.switchesPerStage()};
      if (dst.kind == EndpointKind::Mem && !topo_.canReachMem(sw, dst.node)) {
        continue;
      }
      routeTable_[static_cast<std::size_t>(epCount + f) * epCount + d] =
          topo_.routeFromSwitch(sw, dst);
    }
  }

  // Adaptive policies additionally precompute every pair's candidate set
  // (the LCA-only default skips this entirely). Only turnaround paths have
  // freedom: proc->proc pairs and switch->proc injections.
  if (routing_->adaptive()) {
    for (std::uint32_t d = 0; d < numNodes_; ++d) {
      const Endpoint dst = procEp(d);
      for (std::uint32_t s = 0; s < numNodes_; ++s) {
        const TurnaroundChoices tc = topo_.turnaround(procEp(s), dst);
        if (tc.width <= 1) continue;
        ChoiceSet& cs = choiceTable_[(static_cast<std::uint64_t>(s) << 32) | d];
        cs.baseline = tc.baseline;
        cs.routes.reserve(tc.width);
        for (std::uint32_t f = 0; f < tc.width; ++f)
          cs.routes.push_back(topo_.routeChoice(procEp(s), dst, f));
      }
      for (std::uint32_t f = 0; f < topo_.totalSwitches(); ++f) {
        const SwitchId sw = topo_.unflat(f);
        const TurnaroundChoices tc = topo_.turnaroundFromSwitch(sw, dst);
        if (tc.width <= 1) continue;
        ChoiceSet& cs = choiceTable_[(static_cast<std::uint64_t>(epCount + f) << 32) | d];
        cs.baseline = tc.baseline;
        cs.routes.reserve(tc.width);
        for (std::uint32_t g = 0; g < tc.width; ++g)
          cs.routes.push_back(topo_.routeFromSwitchChoice(sw, dst, g));
      }
    }
  }
}

Network::~Network() = default;

void Network::buildLinks() {
  const std::uint32_t vertices = 2 * numNodes_ + topo_.totalSwitches();
  std::vector<std::vector<std::uint32_t>> adj(vertices);
  const auto connect = [&](std::uint32_t a, std::uint32_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  };
  for (std::uint32_t n = 0; n < numNodes_; ++n) {
    connect(vertexOf(procEp(n)), vertexOf(topo_.procSwitch(n)));
    connect(vertexOf(memEp(n)), vertexOf(topo_.memSwitch(n)));
  }
  for (const auto& [a, b] : topo_.stageLinks()) connect(vertexOf(a), vertexOf(b));
  linkBase_.assign(vertices + 1, 0);
  for (std::uint32_t v = 0; v < vertices; ++v) {
    std::vector<std::uint32_t>& to = adj[v];
    std::sort(to.begin(), to.end());
    linkTo_.insert(linkTo_.end(), to.begin(), to.end());
    linkBase_[v + 1] = static_cast<std::uint32_t>(linkTo_.size());
  }
  linkFree_.assign(linkTo_.size(), 0);
}

std::uint32_t Network::linkIndex(std::uint32_t from, std::uint32_t to) const {
  for (std::uint32_t i = linkBase_[from]; i < linkBase_[from + 1]; ++i) {
    if (linkTo_[i] == to) return i;
  }
  throw std::logic_error("Network: route steps between non-adjacent vertices");
}

std::uint32_t Network::vertexOf(Endpoint ep) const {
  return ep.kind == EndpointKind::Proc ? ep.node : numNodes_ + ep.node;
}

std::uint32_t Network::vertexOf(SwitchId sw) const { return 2 * numNodes_ + topo_.flat(sw); }

std::uint64_t Network::routeBacklog(const Route& r, std::uint32_t srcVertex, Cycle now) const {
  std::uint64_t total = 0;
  std::uint32_t from = srcVertex;
  for (const Hop& h : r) {
    const std::uint32_t to =
        h.kind == Hop::Kind::Switch ? vertexOf(h.sw) : vertexOf(h.ep);
    const Cycle free = linkFree_[linkIndex(from, to)];
    if (free > now) total += free - now;
    from = to;
  }
  return total;
}

const Route* Network::pickRoute(std::uint32_t fromVertex, std::uint32_t dstVertex) {
  if (!choiceTable_.empty()) {
    const auto it =
        choiceTable_.find((static_cast<std::uint64_t>(fromVertex) << 32) | dstVertex);
    if (it != choiceTable_.end()) {
      ChoiceSet& cs = it->second;
      const Cycle now = sched_.now();
      const std::uint32_t f = routing_->choose(
          static_cast<std::uint32_t>(cs.routes.size()), cs.baseline,
          [&](std::uint32_t g) { return routeBacklog(cs.routes[g], fromVertex, now); });
      return &cs.routes[f];
    }
  }
  return &routeFor(fromVertex, dstVertex);
}

Cycle Network::serializationCycles(const Message& m) const {
  const std::uint32_t bytes = m.sizeBytes(cfg_.headerBytes, lineBytes_);
  const std::uint32_t flits = (bytes + cfg_.flitBytes - 1) / cfg_.flitBytes;
  return static_cast<Cycle>(flits) * cfg_.linkCyclesPerFlit;
}

Cycle Network::traverseLink(std::uint32_t from, std::uint32_t to, Cycle ready, const Message& m) {
  Cycle& free = linkFree_[linkIndex(from, to)];
  Cycle start = std::max(ready, free);
  if (from == faultStallVertex_) start = hooks_.fault->stallAdjustedStart(start);
  const Cycle ser = serializationCycles(m);
  free = start + ser;
  linkBusy_ += ser;
  return start + ser;
}

void Network::send(Message m) {
  const std::uint32_t srcVertex = vertexOf(m.src);
  inject(sched_.box(std::move(m)), srcVertex);
}

void Network::inject(MessageBox m, std::uint32_t srcVertex) {
  if (m->id == 0) m->id = nextMsgId_++;
  m->birth = sched_.now();
  ++sent_;
  ++msgCounters_[static_cast<std::size_t>(m->type)];
  const Route* route = pickRoute(srcVertex, vertexOf(m->dst));
  DRESAR_LOG_TRACE("net: @%llu inject at vertex %u %s",
                   static_cast<unsigned long long>(sched_.now()), srcVertex,
                   m->describe().c_str());
  advance(std::move(m), route, 0, srcVertex, sched_.now());
}

void Network::advance(MessageBox m, const Route* route, std::size_t hopIdx,
                      std::uint32_t fromVertex, Cycle when) {
  if (hopIdx >= route->size()) throw std::logic_error("Network::advance: route exhausted");
  const Hop hop = (*route)[hopIdx];
  const std::uint32_t toVertex =
      hop.kind == Hop::Kind::Switch ? vertexOf(hop.sw) : vertexOf(hop.ep);
  const Cycle arrive = traverseLink(fromVertex, toVertex, when, *m);

  if (hop.kind == Hop::Kind::Deliver) {
    sched_.scheduleAt(arrive, [this, m = std::move(m), ep = hop.ep]() mutable {
      if (hooks_.fault != nullptr && FaultInjector::eligible(*m)) {
        if (hooks_.fault->shouldDrop(*m)) {
          DRESAR_LOG_TRACE("net: fault drop %s", m->describe().c_str());
          return;
        }
        if (const Cycle d = hooks_.fault->deliveryDelay(*m); d > 0) {
          sched_.scheduleIn(d, [this, m = std::move(m), ep] { deliverNow(*m, ep); });
          return;
        }
      }
      deliverNow(*m, ep);
    });
    return;
  }

  sched_.scheduleAt(arrive, [this, m = std::move(m), route, hopIdx, sw = hop.sw]() mutable {
    ++traversals_[topo_.flat(sw)];
    if (hooks_.tracer != nullptr && m->txn != 0) {
      hooks_.tracer->record(m->txn, TxnEvent::SwitchHop, txnLegOf(m->type),
                            txnAtSwitch(topo_.flat(sw)), sched_.now());
    }
    Cycle delay = cfg_.coreDelay;
    if (hooks_.snoop != nullptr) {
      std::vector<Message>& spawn = snoopScratch_;
      spawn.clear();
      const SnoopOutcome out = hooks_.snoop->onMessage(sw, sched_.now(), *m, spawn);
      delay += out.extraDelay;
      for (auto& s : spawn) {
        // Switch-generated messages leave after the directory decision.
        sched_.scheduleIn(delay, [this, sw, s = sched_.box(std::move(s))]() mutable {
          ++switchInjected_;
          inject(std::move(s), vertexOf(sw));
        });
      }
      if (!out.pass) {
        ++sunk_;
        ++sunkCounter_;
        DRESAR_LOG_TRACE("net: %s sunk at switch(%u,%u)", m->describe().c_str(), sw.stage,
                         sw.index);
        return;
      }
    }
    advance(std::move(m), route, hopIdx + 1, vertexOf(sw), sched_.now() + delay);
  });
}

void Network::deliverNow(const Message& m, Endpoint ep) {
  latency_.add(static_cast<double>(sched_.now() - m.birth));
  if (hooks_.sink == nullptr)
    throw std::logic_error("Network: no delivery sink for " + toString(ep));
  hooks_.sink->deliver(ep, m);
}

}  // namespace dresar
