#include "interconnect/inetwork.h"

#include <algorithm>

#include "common/log.h"
#include "fault/injector.h"

namespace dresar {

namespace {
/// Seed for stateful routing policies' private RNG streams. Fixed (not
/// configurable): routing decisions must replay identically for a given
/// config, like every other internal stream.
constexpr std::uint64_t kRoutingSeed = 0xC0A9E5710B15ull;
}  // namespace

INetwork::INetwork(const NetworkConfig& cfg, std::uint32_t numNodes, std::uint32_t lineBytes,
                   EventQueue& sched, StatRegistry& stats, const NetworkHooks& hooks)
    : cfg_(cfg),
      numNodes_(numNodes),
      lineBytes_(lineBytes),
      sched_(sched),
      hooks_(hooks),
      topo_(numNodes, cfg.switchRadix),
      switchInjected_(stats.counterHandle("net.switch_injected")),
      sunk_(stats.counterHandle("net.sunk")),
      latency_(stats.samplerHandle("net.latency")),
      routing_(makeRoutingPolicy(cfg.routing, kRoutingSeed)) {
  for (std::size_t t = 0; t < kMsgTypeCount; ++t) {
    msgs_[t] = stats.counterHandle(std::string("net.msgs.") + toString(static_cast<MsgType>(t)));
  }
  if (hooks_.fault != nullptr && hooks_.fault->linkStall().active()) {
    const LinkStallSpec& s = hooks_.fault->linkStall();
    if (s.stage >= topo_.numStages() || s.index >= topo_.switchesPerStage())
      throw std::invalid_argument("network: fault link stall names no switch");
    faultStallFlat_ = topo_.flat(SwitchId{s.stage, s.index});
  }
  buildLinks();
  buildPaths();
}

void INetwork::buildLinks() {
  // Each endpoint hangs off one switch; switches pair up over the
  // topology's stage links.
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
}

std::uint32_t INetwork::linkIndex(std::uint32_t from, std::uint32_t to) const {
  const auto first = linkTo_.begin() + linkBase_[from];
  const auto last = linkTo_.begin() + linkBase_[from + 1];
  const auto it = std::lower_bound(first, last, to);
  if (it == last || *it != to)
    throw std::logic_error("network: route steps between non-adjacent vertices");
  return static_cast<std::uint32_t>(it - linkTo_.begin());
}

void INetwork::buildPaths() {
  // Undefined pairs keep an empty slot; send() rejects them up front, so
  // only a switch-spawned message can ask for one.
  const std::uint32_t eps = 2 * numNodes_;
  const std::uint32_t vertices = eps + topo_.totalSwitches();
  const bool adaptive = routing_->adaptive();
  pathSlots_.assign(static_cast<std::size_t>(vertices) * eps, PathSlot{});
  for (std::uint32_t v = 0; v < vertices; ++v) {
    const bool fromSwitch = isSwitchVertex(v);
    const SwitchId sw = fromSwitch ? topo_.unflat(v - eps) : SwitchId{};
    const Endpoint src = fromSwitch ? Endpoint{} : endpointOf(v);
    for (std::uint32_t d = 0; d < eps; ++d) {
      const Endpoint dst = endpointOf(d);
      if (dst.kind == EndpointKind::Mem &&
          (fromSwitch ? !topo_.canReachMem(sw, dst.node) : src.kind == EndpointKind::Mem))
        continue;
      // A unique route is the window's one digit; "lca" keeps the baseline.
      const TurnaroundChoices tc =
          fromSwitch ? topo_.turnaroundFromSwitch(sw, dst) : topo_.turnaround(src, dst);
      const std::uint32_t width = adaptive ? tc.width : 1;
      PathSlot& slot = pathSlots_[static_cast<std::size_t>(v) * eps + d];
      slot.offset = static_cast<std::uint32_t>(pathLinks_.size());
      slot.width = width;
      slot.baseline = width > 1 ? tc.baseline : 0;
      for (std::uint32_t f = 0; f < width; ++f) {
        const std::uint32_t digit = width > 1 ? f : tc.baseline;
        const Route r = fromSwitch ? topo_.routeFromSwitchChoice(sw, dst, digit)
                                   : topo_.routeChoice(src, dst, digit);
        std::uint32_t from = v;
        for (const Hop& h : r) {
          const std::uint32_t to = h.kind == Hop::Kind::Switch ? vertexOf(h.sw) : vertexOf(h.ep);
          pathLinks_.push_back(linkIndex(from, to));
          from = to;
        }
      }
      slot.len = (static_cast<std::uint32_t>(pathLinks_.size()) - slot.offset) / width;
    }
  }
}

void INetwork::deliver(std::uint32_t epVertex, const Message& m) {
  if (hooks_.fault != nullptr && FaultInjector::eligible(m)) {
    if (hooks_.fault->shouldDrop(m)) {
      DRESAR_LOG_TRACE("net: fault drop %s", m.describe().c_str());
      return;
    }
    if (const Cycle d = hooks_.fault->deliveryDelay(m); d > 0) {
      sched_.scheduleIn(d, [this, epVertex, b = sched_.box(m)] { sinkNow(epVertex, *b); });
      return;
    }
  }
  sinkNow(epVertex, m);
}

void INetwork::sinkNow(std::uint32_t epVertex, const Message& m) {
  latency_.add(static_cast<double>(sched_.now() - m.birth));
  if (hooks_.sink == nullptr)
    throw std::logic_error("network: no delivery sink for " + toString(endpointOf(epVertex)));
  hooks_.sink->deliver(endpointOf(epVertex), m);
}

}  // namespace dresar
