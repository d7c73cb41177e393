#include "interconnect/flit_network.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.h"
#include "fault/injector.h"
#include "interconnect/routing.h"

namespace dresar {

namespace {
/// Same fixed routing-policy seed as the message-level Network.
constexpr std::uint64_t kRoutingSeed = 0xC0A9E5710B15ull;

void setBit(std::vector<std::uint64_t>& bits, std::uint32_t i, bool on) {
  const std::uint64_t m = 1ull << (i % 64);
  if (on) {
    bits[i / 64] |= m;
  } else {
    bits[i / 64] &= ~m;
  }
}

/// Call fn(i) for every set bit in ascending order. Bits of the word being
/// visited may change under fn; the visit follows the word as it was read.
template <typename Fn>
void forEachBit(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(b)));
    }
  }
}
}  // namespace

FlitNetwork::FlitNetwork(const NetworkConfig& cfg, std::uint32_t numNodes,
                         std::uint32_t lineBytes, EventQueue& sched, StatRegistry& stats,
                         const NetworkHooks& hooks)
    : INetwork(stats),
      cfg_(cfg),
      numNodes_(numNodes),
      lineBytes_(lineBytes),
      vcs_(std::max(1u, cfg.virtualChannels)),
      sched_(sched),
      topo_(numNodes, cfg.switchRadix),
      hooks_(hooks),
      routing_(makeRoutingPolicy(cfg.routing, kRoutingSeed)) {
  if (2 * topo_.numStages() > kMaxPathLinks)
    throw std::invalid_argument("FlitNetwork: routes longer than " +
                                std::to_string(kMaxPathLinks) + " links are not supported");
  if (hooks_.fault != nullptr && hooks_.fault->linkStall().active()) {
    const LinkStallSpec& s = hooks_.fault->linkStall();
    if (s.stage >= topo_.numStages() || s.index >= topo_.switchesPerStage())
      throw std::invalid_argument("FlitNetwork: fault link stall names no switch");
    faultStallFlat_ = topo_.flat(SwitchId{s.stage, s.index});
  }
  buildFabric();
  buildPaths();
  flitsTransmitted_ = stats.counterHandle("flit.transmitted");
  flitGrants_ = stats.counterHandle("flit.grants");
  // Telemetry geometry: occupancy tops out around radix * VCs * bufferFlits
  // per switch; lock holds can span a long wormhole chain under saturation.
  cong_.perSwitchCreditStalls.assign(topo_.totalSwitches(), 0);
  cong_.stageOccupancy.assign(topo_.numStages(), Sampler{});
  cong_.stageOccupancyHist.assign(topo_.numStages(),
                                  Histogram(Histogram::LogSpaced{1.0, 16}));
  cong_.lockHoldHist = Histogram(Histogram::LogSpaced{1.0, 24});
}

const CongestionTelemetry* FlitNetwork::congestion() const {
  // Exact: the samples are integers far below 2^53, so add(v, n) leaves the
  // same sum, min and max as n single adds, and bucket counts do not depend
  // on order. Clearing what was folded makes repeated calls idempotent.
  for (std::size_t st = 0; st < cong_.stageOccupancy.size(); ++st) {
    for (std::uint32_t b = 0; b < occupancyWidth_; ++b) {
      std::uint64_t& n = occupancy_[st * occupancyWidth_ + b];
      if (n == 0) continue;
      cong_.stageOccupancy[st].add(static_cast<double>(b), n);
      cong_.stageOccupancyHist[st].add(static_cast<double>(b), n);
      n = 0;
    }
  }
  return &cong_;
}

FlitNetwork::~FlitNetwork() = default;

void FlitNetwork::buildFabric() {
  switches_.resize(topo_.totalSwitches());
  endpoints_.resize(2ull * numNodes_);
  // Adjacency: each endpoint hangs off one switch, switches pair up over
  // the topology's stage links.
  const auto connect = [&](std::uint32_t a, std::uint32_t b) {
    if (isSwitchVertex(a)) switches_[a - 2 * numNodes_].neighbor.push_back(b);
    if (isSwitchVertex(b)) switches_[b - 2 * numNodes_].neighbor.push_back(a);
  };
  for (std::uint32_t n = 0; n < numNodes_; ++n) {
    connect(vertexOf(procEp(n)), vertexOf(topo_.procSwitch(n)));
    connect(vertexOf(memEp(n)), vertexOf(topo_.memSwitch(n)));
  }
  for (const auto& [a, b] : topo_.stageLinks()) connect(vertexOf(a), vertexOf(b));
  // Output links in (flat switch, port) order, then one per endpoint.
  std::size_t maxPorts = 0;
  for (std::uint32_t f = 0; f < switches_.size(); ++f) {
    SwitchState& s = switches_[f];
    std::sort(s.neighbor.begin(), s.neighbor.end());
    s.neighbor.erase(std::unique(s.neighbor.begin(), s.neighbor.end()), s.neighbor.end());
    const auto ports = static_cast<std::uint32_t>(s.neighbor.size());
    maxPorts = std::max<std::size_t>(maxPorts, ports);
    s.stage = topo_.unflat(f).stage;
    for (std::uint32_t p = 0; p < ports; ++p) {
      s.outLink.push_back(static_cast<std::uint32_t>(links_.size()));
      links_.push_back(Link{0, s.neighbor[p], p, kNone, 0});
    }
    s.inputs.resize(static_cast<std::size_t>(ports) * vcs_);
    s.slots.resize(s.inputs.size() * cfg_.bufferFlits);
    s.nonEmpty.assign((s.inputs.size() + 63) / 64, 0);
    s.lockOwner.assign(ports, kNone);
    s.lockSince.assign(ports, kNoCycle);
  }
  for (std::uint32_t v = 0; v < endpoints_.size(); ++v) {
    const std::uint32_t sw =
        vertexOf(v < numNodes_ ? topo_.procSwitch(v) : topo_.memSwitch(v - numNodes_));
    endpoints_[v].link = static_cast<std::uint32_t>(links_.size());
    links_.push_back(Link{0, sw, kNone, kNone, 0});
  }
  // Receiving side of every switch-bound link, and the reverse map for
  // credit return.
  for (std::uint32_t f = 0; f < switches_.size(); ++f) {
    SwitchState& s = switches_[f];
    for (std::uint32_t p = 0; p < s.neighbor.size(); ++p) {
      const std::uint32_t in = linkIndex(s.neighbor[p], 2 * numNodes_ + f);
      links_[in].toFlat = f;
      links_[in].toPort = p;
      for (std::uint32_t vc = 0; vc < vcs_; ++vc) s.inCredit.push_back(in * vcs_ + vc);
    }
  }
  // Credits only matter toward switch input buffers; endpoints sink freely
  // and their links never consult them.
  credits_.assign(links_.size() * vcs_, cfg_.bufferFlits);
  busyNis_.assign((endpoints_.size() + 63) / 64, 0);
  busySwitches_.assign((switches_.size() + 63) / 64, 0);
  tickedPerStage_.assign(topo_.numStages(), 0);
  // A switch buffers at most bufferFlits per input VC (credits see to it).
  occupancyWidth_ = static_cast<std::uint32_t>(maxPorts * vcs_ * cfg_.bufferFlits + 1);
  occupancy_.assign(static_cast<std::size_t>(topo_.numStages()) * occupancyWidth_, 0);
  want_.assign(maxPorts, Candidate{});
  wanted_.assign(maxPorts, 0);
}

void FlitNetwork::buildPaths() {
  // The same coverage as the message-level Network's route tables: every
  // defined (source vertex, endpoint) pair, with every turnaround candidate
  // under an adaptive policy. Undefined pairs keep an empty slot.
  const std::uint32_t eps = 2 * numNodes_;
  const std::uint32_t vertices = eps + topo_.totalSwitches();
  const bool adaptive = routing_->adaptive();
  pathSlots_.assign(static_cast<std::size_t>(vertices) * eps, PathSlot{});
  std::vector<Route> candidates;
  for (std::uint32_t v = 0; v < vertices; ++v) {
    for (std::uint32_t d = 0; d < eps; ++d) {
      const Endpoint dst = endpointOf(d);
      candidates.clear();
      TurnaroundChoices tc;
      if (v < eps) {
        const Endpoint src = endpointOf(v);
        if (src.kind == EndpointKind::Mem && dst.kind == EndpointKind::Mem) continue;
        if (adaptive) tc = topo_.turnaround(src, dst);
        if (tc.width > 1) {
          for (std::uint32_t f = 0; f < tc.width; ++f)
            candidates.push_back(topo_.routeChoice(src, dst, f));
        } else {
          candidates.push_back(topo_.route(src, dst));
        }
      } else {
        const SwitchId sw = topo_.unflat(v - eps);
        if (dst.kind == EndpointKind::Mem && !topo_.canReachMem(sw, dst.node)) continue;
        if (adaptive) tc = topo_.turnaroundFromSwitch(sw, dst);
        if (tc.width > 1) {
          for (std::uint32_t f = 0; f < tc.width; ++f)
            candidates.push_back(topo_.routeFromSwitchChoice(sw, dst, f));
        } else {
          candidates.push_back(topo_.routeFromSwitch(sw, dst));
        }
      }
      PathSlot& slot = pathSlots_[static_cast<std::size_t>(v) * eps + d];
      slot.offset = static_cast<std::uint32_t>(pathLinks_.size());
      slot.len = static_cast<std::uint32_t>(candidates.front().size());
      slot.width = static_cast<std::uint32_t>(candidates.size());
      slot.baseline = tc.width > 1 ? tc.baseline : 0;
      for (const Route& r : candidates) {
        std::uint32_t from = v;
        for (const Hop& h : r) {
          const std::uint32_t to = vertexOf(h);
          pathLinks_.push_back(linkIndex(from, to));
          from = to;
        }
      }
    }
  }
}

std::uint32_t FlitNetwork::linkIndex(std::uint32_t from, std::uint32_t to) const {
  if (isSwitchVertex(from)) {
    const SwitchState& s = switches_[from - 2 * numNodes_];
    const auto it = std::lower_bound(s.neighbor.begin(), s.neighbor.end(), to);
    if (it != s.neighbor.end() && *it == to) return s.outLink[it - s.neighbor.begin()];
  } else if (links_[endpoints_[from].link].to == to) {
    return endpoints_[from].link;
  }
  throw std::logic_error("FlitNetwork: route steps between non-adjacent vertices");
}

FlitNetwork::MsgRef FlitNetwork::admit(Message m, std::uint32_t srcVertex) {
  const PathSlot& slot = pathSlots_[static_cast<std::size_t>(srcVertex) * 2 * numNodes_ +
                                    vertexOf(m.dst)];
  if (slot.len == 0) throw std::logic_error("FlitNetwork: no route for " + m.describe());
  const std::uint32_t vc = vcOf(m);
  const std::uint32_t* links = pathLinks_.data() + slot.offset;
  if (slot.width > 1) {
    // The cost callback captures two words, which std::function keeps
    // inline: an adaptive decision allocates nothing.
    struct Candidates {
      const std::uint32_t* links;
      std::uint32_t len, vc;
    };
    const Candidates cands{links, slot.len, vc};
    const std::uint32_t f =
        routing_->choose(slot.width, slot.baseline, [this, &cands](std::uint32_t g) {
          return pathCongestion(cands.links + g * cands.len, cands.len, cands.vc);
        });
    links += f * slot.len;
  }
  if (m.id == 0) m.id = nextMsgId_++;
  m.birth = sched_.now();
  // MsgStates come from the queue's arena: flits captured in event closures
  // can outlive the network, never the queue.
  MsgRef ms = MsgRef::make(sched_.arena());
  ms->totalFlits = flitsOf(m);
  ms->vc = vc;
  ms->birth = sched_.now();
  std::copy(links, links + slot.len, ms->path.begin());
  ms->msg = std::move(m);
  ++live_;
  ++msgs_[static_cast<std::size_t>(ms->msg.type)];
  return ms;
}

void FlitNetwork::send(Message m) {
  requireRoutable(m, numNodes_);
  const std::uint32_t srcVertex = vertexOf(m.src);
  endpoints_[srcVertex].sendQueue.push_back(admit(std::move(m), srcVertex));
  setBit(busyNis_, srcVertex, true);
  ensureTicking();
}

void FlitNetwork::ensureTicking() {
  if (ticking_) return;
  ticking_ = true;
  sched_.scheduleIn(1, [this] { tick(); });
}

void FlitNetwork::tick() {
  // Deterministic order: source NIs first, then switches by flat id. Only
  // NIs with queued messages and switches holding flits have work; the
  // fault-stalled switch also ticks idle so its window counts every cycle.
  forEachBit(busyNis_, [this](std::uint32_t v) { tickSourceNi(v); });
  if (faultStallFlat_ != kNone) setBit(busySwitches_, faultStallFlat_, true);
  std::fill(tickedPerStage_.begin(), tickedPerStage_.end(), 0);
  forEachBit(busySwitches_, [this](std::uint32_t f) { tickSwitch(f); });
  // Idle switches sample an empty buffer set.
  for (std::uint32_t st = 0; st < tickedPerStage_.size(); ++st) {
    occupancy_[st * occupancyWidth_] += topo_.switchesPerStage() - tickedPerStage_[st];
  }
  if (live_ > 0) {
    sched_.scheduleIn(1, [this] { tick(); });
  } else {
    ticking_ = false;
  }
}

void FlitNetwork::tickSourceNi(std::uint32_t ev) {
  EndpointNi& ni = endpoints_[ev];
  const MsgRef& ms = ni.sendQueue.front();
  const std::uint32_t link = ms->path[0];
  if (links_[link].nextFree > sched_.now() || !hasCredit(link, ms->vc)) {
    ++cong_.sourceCreditStalls;
    return;
  }
  transmit(link, Flit{ms, ni.flitsSent, 0}, /*extraDelay=*/0);
  if (++ni.flitsSent == ms->totalFlits) {
    ni.sendQueue.pop_front();
    ni.flitsSent = 0;
    if (ni.sendQueue.empty()) setBit(busyNis_, ev, false);
  }
}

void FlitNetwork::transmit(std::uint32_t link, Flit&& f, Cycle extraDelay) {
  Link& l = links_[link];
  l.nextFree = sched_.now() + cfg_.linkCyclesPerFlit;
  if (l.toFlat != kNone) {
    std::uint32_t& credit = credits_[link * vcs_ + f.ms->vc];
    if (credit == 0) throw std::logic_error("FlitNetwork: transmit without credit");
    --credit;
  }
  ++flitsTransmitted_;
  sched_.scheduleIn(cfg_.linkCyclesPerFlit + extraDelay,
                    [this, link, f = std::move(f)]() mutable { arrive(link, std::move(f)); });
}

void FlitNetwork::arrive(std::uint32_t link, Flit&& f) {
  const Link& l = links_[link];
  if (l.toFlat == kNone) {
    deliver(l.to, f);
    return;
  }
  SwitchState& s = switches_[l.toFlat];
  // The head flit reaches each switch exactly once; that is the hop event.
  if (hooks_.tracer != nullptr && f.head() && f.ms->msg.txn != 0) {
    hooks_.tracer->record(f.ms->msg.txn, TxnEvent::SwitchHop, txnLegOf(f.ms->msg.type),
                          txnAtSwitch(l.toFlat), sched_.now());
  }
  const std::uint32_t input = l.toPort * vcs_ + f.ms->vc;
  InputVc& in = s.inputs[input];
  std::uint32_t slot = in.head + in.count;
  if (slot >= cfg_.bufferFlits) slot -= cfg_.bufferFlits;
  s.slots[input * cfg_.bufferFlits + slot] = std::move(f);
  ++in.count;
  ++s.buffered;
  setBit(s.nonEmpty, input, true);
  setBit(busySwitches_, l.toFlat, true);
}

FlitNetwork::Flit FlitNetwork::popInput(SwitchState& s, std::uint32_t input) {
  InputVc& in = s.inputs[input];
  Flit f = std::move(front(s, input));
  if (++in.head == cfg_.bufferFlits) in.head = 0;
  if (--in.count == 0) setBit(s.nonEmpty, input, false);
  --s.buffered;
  // Credit back to the upstream sender.
  ++credits_[s.inCredit[input]];
  return f;
}

void FlitNetwork::deliver(std::uint32_t epVertex, const Flit& f) {
  if (!f.tail()) return;  // wormhole per-VC ordering: tail implies complete
  --live_;
  if (hooks_.fault != nullptr && FaultInjector::eligible(f.ms->msg)) {
    if (hooks_.fault->shouldDrop(f.ms->msg)) {
      DRESAR_LOG_TRACE("flit: fault drop %s", f.ms->msg.describe().c_str());
      return;
    }
    if (const Cycle d = hooks_.fault->deliveryDelay(f.ms->msg); d > 0) {
      sched_.scheduleIn(d, [this, epVertex, m = sched_.box(f.ms->msg)] {
        deliverMsg(epVertex, *m);
      });
      return;
    }
  }
  deliverMsg(epVertex, f.ms->msg);
}

void FlitNetwork::deliverMsg(std::uint32_t epVertex, const Message& m) {
  latency_.add(static_cast<double>(sched_.now() - m.birth));
  if (hooks_.sink == nullptr)
    throw std::logic_error("FlitNetwork: no delivery sink");
  const Endpoint ep =
      epVertex < numNodes_ ? procEp(epVertex) : memEp(epVertex - numNodes_);
  hooks_.sink->deliver(ep, m);
}

std::uint64_t FlitNetwork::pathCongestion(const std::uint32_t* links, std::uint32_t len,
                                          std::uint32_t vc) const {
  // Credit debt (flits parked in the downstream buffer) plus residual link
  // serialization along the candidate — the queueing an injected head flit
  // would stream into right now. An untouched link costs nothing.
  std::uint64_t cost = 0;
  const Cycle now = sched_.now();
  for (std::uint32_t i = 0; i < len; ++i) {
    const Link& l = links_[links[i]];
    if (l.nextFree > now) cost += l.nextFree - now;
    if (l.toFlat != kNone)
      cost += cfg_.bufferFlits - std::min(cfg_.bufferFlits, credits_[links[i] * vcs_ + vc]);
  }
  return cost;
}

void FlitNetwork::grabLock(SwitchState& s, std::uint32_t port, std::uint32_t owner) {
  s.lockOwner[port] = owner;
  if (s.lockSince[port] == kNoCycle) s.lockSince[port] = sched_.now();
}

void FlitNetwork::releaseLock(SwitchState& s, std::uint32_t port) {
  if (s.lockSince[port] != kNoCycle) {
    const auto held = static_cast<double>(sched_.now() - s.lockSince[port]);
    cong_.lockHold.add(held);
    cong_.lockHoldHist.add(held);
    s.lockSince[port] = kNoCycle;
  }
  s.lockOwner[port] = kNone;
}

bool FlitNetwork::snoop(std::uint32_t flat, const Flit& f) {
  MsgState& ms = *f.ms;
  ms.snoopedMask |= 1ull << f.hop;
  std::vector<Message>& spawn = spawnScratch_;
  spawn.clear();
  const SnoopOutcome out =
      hooks_.snoop->onMessage(topo_.unflat(flat), sched_.now(), ms.msg, spawn);
  for (Message& m : spawn) {
    switches_[flat].injectQueue.push_back(admit(std::move(m), 2 * numNodes_ + flat));
    ++switchInjected_;
  }
  if (!out.pass) {
    ms.sunk = true;
    ++sunk_;
    return false;
  }
  return true;
}

void FlitNetwork::tickSwitch(std::uint32_t flat) {
  SwitchState& s = switches_[flat];
  const Cycle now = sched_.now();

  // Occupancy sample first, even on stalled ticks: a frozen switch's filling
  // buffers are exactly what the saturation telemetry should show.
  ++occupancy_[s.stage * occupancyWidth_ + s.buffered];
  ++tickedPerStage_[s.stage];

  // A stalled switch freezes entirely for the window: no snoops, no grants.
  // Input buffers fill and credit backpressure propagates upstream, exactly
  // the transient a misbehaving physical switch would cause.
  if (flat == faultStallFlat_ && hooks_.fault->stallTickSkipped(now)) return;

  // Pass 1: drain flits of sunk messages and run pending head snoops; then
  // collect, per requested output port, the oldest eligible candidate.
  std::uint32_t wanted = 0;
  const auto consider = [&](std::uint32_t port, std::uint32_t input, Cycle age) {
    // Wormhole: a locked output only accepts its owner.
    if (s.lockOwner[port] != kNone && s.lockOwner[port] != input) return;
    Candidate& c = want_[port];
    if (c.input == kNone) {
      wanted_[wanted++] = port;
      c = Candidate{input, age};
    } else if (age < c.age || (age == c.age && input < c.input)) {
      c = Candidate{input, age};
    }
  };

  forEachBit(s.nonEmpty, [&](std::uint32_t input) {
    InputVc& in = s.inputs[input];
    // Drain everything a sink consumed (credits flow back upstream). If the
    // sink sat downstream, this switch already granted the head and holds
    // an output lock the tail will now never release by departing.
    while (in.count > 0 && front(s, input).ms->sunk) {
      if (!popInput(s, input).tail()) continue;
      --live_;  // the whole message is consumed
      if (in.lockedOutput != kNone) {
        releaseLock(s, in.lockedOutput);
        in.lockedOutput = kNone;
      }
    }
    if (in.count == 0) return;
    const Flit& f = front(s, input);
    std::uint32_t port = in.lockedOutput;
    if (f.head()) {
      // One snoop per switch: one mask bit per path index, since a route
      // never revisits a switch. A sunk message is drained next tick.
      if (hooks_.snoop != nullptr && (f.ms->snoopedMask & (1ull << f.hop)) == 0 &&
          !snoop(flat, f))
        return;
      port = links_[f.ms->path[f.hop + 1]].fromPort;
    }
    consider(port, input, f.ms->birth);
  });

  // The injection port competes like any other input.
  const auto injectInput = static_cast<std::uint32_t>(s.inputs.size());
  if (!s.injectQueue.empty()) {
    const MsgState& ms = *s.injectQueue.front();
    consider(links_[ms.path[0]].fromPort, injectInput, ms.birth);
  }

  // Pass 2: grant up to four outputs this cycle, oldest first (paper 4.1);
  // equal ages go to the lower output vertex, i.e. the lower port. At most
  // `ports` entries, distinct keys: an insertion sort is exact and cheap.
  for (std::uint32_t k = 1; k < wanted; ++k) {
    const std::uint32_t port = wanted_[k];
    const Cycle age = want_[port].age;
    std::uint32_t j = k;
    for (; j > 0; --j) {
      const std::uint32_t prev = wanted_[j - 1];
      if (want_[prev].age < age || (want_[prev].age == age && prev < port)) break;
      wanted_[j] = prev;
    }
    wanted_[j] = port;
  }
  std::uint32_t granted = 0;
  for (std::uint32_t k = 0; k < wanted; ++k) {
    const std::uint32_t port = wanted_[k];
    const Candidate cand = std::exchange(want_[port], Candidate{});
    if (granted >= kGrantsPerCycle) continue;
    const std::uint32_t link = s.outLink[port];
    if (links_[link].nextFree > now) {
      ++cong_.linkBusySkips;
      continue;
    }
    if (cand.input == injectInput) {
      const MsgRef& ms = s.injectQueue.front();
      if (!hasCredit(link, ms->vc)) {
        ++cong_.creditStallCycles;
        ++cong_.perSwitchCreditStalls[flat];
        continue;
      }
      Flit f{ms, s.injectFlitsSent, 0};
      const bool tail = f.tail();
      // Lock while the message streams out.
      if (f.head()) grabLock(s, port, injectInput);
      transmit(link, std::move(f), cfg_.coreDelay);
      ++s.injectFlitsSent;
      ++granted;
      if (tail) {
        releaseLock(s, port);
        s.injectQueue.pop_front();
        s.injectFlitsSent = 0;
      }
      continue;
    }
    if (!hasCredit(link, front(s, cand.input).ms->vc)) {
      ++cong_.creditStallCycles;
      ++cong_.perSwitchCreditStalls[flat];
      continue;
    }
    Flit f = popInput(s, cand.input);
    InputVc& in = s.inputs[cand.input];
    if (f.head()) {
      grabLock(s, port, cand.input);
      in.lockedOutput = port;
    }
    const bool tail = f.tail();
    ++f.hop;
    transmit(link, std::move(f), cfg_.coreDelay);
    ++granted;
    ++flitGrants_;
    if (tail) {
      releaseLock(s, port);
      in.lockedOutput = kNone;
    }
  }
  setBit(busySwitches_, flat, s.buffered > 0 || !s.injectQueue.empty());
}

}  // namespace dresar
