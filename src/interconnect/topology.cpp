#include "interconnect/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dresar {

std::uint32_t Butterfly::stagesFor(std::uint32_t numNodes, std::uint32_t switchRadix) {
  return butterflyStages(numNodes, switchRadix);
}

Butterfly::Butterfly(std::uint32_t numNodes, std::uint32_t switchRadix)
    : numNodes_(numNodes), half_(switchRadix / 2) {
  if (switchRadix < 2 || switchRadix % 2 != 0)
    throw std::invalid_argument("Butterfly: radix must be even and >= 2");
  if (half_ == 0 || numNodes == 0 || numNodes % half_ != 0)
    throw std::invalid_argument("Butterfly: numNodes must be a multiple of radix/2");
  perStage_ = numNodes / half_;
  stages_ = stagesFor(numNodes, switchRadix);
  if (stages_ == 0)
    throw std::invalid_argument(
        "Butterfly: numNodes=" + std::to_string(numNodes) + " with radix " +
        std::to_string(switchRadix) +
        " does not tile a k-stage BMIN; supported sizes are m*(radix/2)^(k-1) for k >= 2 and"
        " 1 <= m <= radix/2 (radix 8: 4, 8, 12, 16, 32, 48, 64, 128, ...)");
  halfPow_.resize(stages_);
  halfPow_[0] = 1;
  for (std::uint32_t e = 1; e < stages_; ++e) halfPow_[e] = halfPow_[e - 1] * half_;
}

bool Butterfly::canReachMem(SwitchId from, NodeId m) const {
  return hi(from.stage, from.index) == hi(from.stage, m / half_);
}

Butterfly::TurnSpan Butterfly::turnSpan(std::uint32_t s, std::uint32_t cs,
                                        std::uint32_t cq) const {
  // Lowest stage whose preserved low digits already agree: climbing from
  // stage s rewrites only positions >= k-1-t, so the pair must share
  // everything below. lo(k-1, .) == 0, so t always exists.
  std::uint32_t t = s;
  while (lo(t, cs) != lo(t, cq)) ++t;
  // Free digits between the fixed high part and the shared low part select
  // the turnaround switch; the symmetric (cs+cq) spread keeps the default
  // choice deterministic and identical for both directions of a pair.
  const std::uint32_t w = valuesAbove(t) / valuesAbove(s);
  return TurnSpan{t, w, (cs + cq) % w};
}

void Butterfly::appendTurnaround(Route& r, std::uint32_t s, std::uint32_t cs,
                                 std::uint32_t cq, std::uint32_t f) const {
  const TurnSpan span = turnSpan(s, cs, cq);
  const std::uint32_t t = span.t;
  if (f == kAutoDigit) f = span.baseline;
  if (f >= span.width)
    throw std::out_of_range("Butterfly: turnaround digit out of window");
  const std::uint32_t y =
      hi(s, cs) * pow(stages_ - 1 - s) + f * pow(stages_ - 1 - t) + lo(t, cs);
  for (std::uint32_t j = s; j <= t; ++j) {
    const std::uint32_t up = hi(j, y) * pow(stages_ - 1 - j) + lo(j, cs);
    r.push_back(Hop::atSwitch(SwitchId{j, up}));
  }
  for (std::uint32_t j = t; j-- > 0;) {
    const std::uint32_t down = hi(j, y) * pow(stages_ - 1 - j) + lo(j, cq);
    r.push_back(Hop::atSwitch(SwitchId{j, down}));
  }
}

Route Butterfly::route(Endpoint src, Endpoint dst) const {
  if (src.node >= numNodes_ || dst.node >= numNodes_)
    throw std::out_of_range("Butterfly::route: node out of range");
  Route r;
  if (src.kind == EndpointKind::Proc && dst.kind == EndpointKind::Mem) {
    // Forward: each stage-j switch takes its high digits from the
    // destination root and its low digits from the source leaf.
    const std::uint32_t cs = src.node / half_;
    const std::uint32_t cd = dst.node / half_;
    for (std::uint32_t j = 0; j < stages_; ++j) {
      r.push_back(Hop::atSwitch(
          SwitchId{j, hi(j, cd) * pow(stages_ - 1 - j) + lo(j, cs)}));
    }
  } else if (src.kind == EndpointKind::Mem && dst.kind == EndpointKind::Proc) {
    // Backward: mirror of the forward path.
    const std::uint32_t cs = dst.node / half_;
    const std::uint32_t cd = src.node / half_;
    for (std::uint32_t j = stages_; j-- > 0;) {
      r.push_back(Hop::atSwitch(
          SwitchId{j, hi(j, cd) * pow(stages_ - 1 - j) + lo(j, cs)}));
    }
  } else if (src.kind == EndpointKind::Proc && dst.kind == EndpointKind::Proc) {
    // Up to the lowest common ancestor stage, back down (same cluster:
    // turnaround at the shared leaf switch).
    appendTurnaround(r, 0, src.node / half_, dst.node / half_);
  } else {
    throw std::invalid_argument("Butterfly::route: mem->mem traffic is not defined");
  }
  r.push_back(Hop::deliver(dst));
  return r;
}

Route Butterfly::routeFromSwitch(SwitchId from, Endpoint dst) const {
  if (dst.node >= numNodes_) throw std::out_of_range("Butterfly::routeFromSwitch: node range");
  Route r;
  if (dst.kind == EndpointKind::Proc) {
    appendTurnaround(r, from.stage, from.index, dst.node / half_);
    // appendTurnaround includes `from` itself as the first hop; the message
    // is already there.
    r.erase(r.begin());
  } else {
    if (!canReachMem(from, dst.node))
      throw std::invalid_argument("Butterfly: switch cannot reach a foreign memory subtree");
    const std::uint32_t cd = dst.node / half_;
    for (std::uint32_t j = from.stage + 1; j < stages_; ++j) {
      r.push_back(Hop::atSwitch(
          SwitchId{j, hi(j, cd) * pow(stages_ - 1 - j) + lo(j, from.index)}));
    }
  }
  r.push_back(Hop::deliver(dst));
  return r;
}

TurnaroundChoices Butterfly::turnaround(Endpoint src, Endpoint dst) const {
  if (src.kind == EndpointKind::Proc && dst.kind == EndpointKind::Proc &&
      src.node < numNodes_ && dst.node < numNodes_) {
    const TurnSpan span = turnSpan(0, src.node / half_, dst.node / half_);
    return TurnaroundChoices{span.width, span.baseline};
  }
  return TurnaroundChoices{};
}

TurnaroundChoices Butterfly::turnaroundFromSwitch(SwitchId from, Endpoint dst) const {
  if (dst.kind == EndpointKind::Proc && dst.node < numNodes_) {
    const TurnSpan span = turnSpan(from.stage, from.index, dst.node / half_);
    return TurnaroundChoices{span.width, span.baseline};
  }
  return TurnaroundChoices{};
}

Route Butterfly::routeChoice(Endpoint src, Endpoint dst, std::uint32_t f) const {
  if (src.kind == EndpointKind::Proc && dst.kind == EndpointKind::Proc) {
    if (src.node >= numNodes_ || dst.node >= numNodes_)
      throw std::out_of_range("Butterfly::route: node out of range");
    Route r;
    appendTurnaround(r, 0, src.node / half_, dst.node / half_, f);
    r.push_back(Hop::deliver(dst));
    return r;
  }
  // Unique-route pairs: only the degenerate choice exists.
  if (f != 0) throw std::out_of_range("Butterfly::routeChoice: route is unique");
  return route(src, dst);
}

Route Butterfly::routeFromSwitchChoice(SwitchId from, Endpoint dst, std::uint32_t f) const {
  if (dst.kind == EndpointKind::Proc) {
    if (dst.node >= numNodes_)
      throw std::out_of_range("Butterfly::routeFromSwitch: node range");
    Route r;
    appendTurnaround(r, from.stage, from.index, dst.node / half_, f);
    // appendTurnaround includes `from` itself as the first hop; the message
    // is already there.
    r.erase(r.begin());
    r.push_back(Hop::deliver(dst));
    return r;
  }
  if (f != 0) throw std::out_of_range("Butterfly::routeFromSwitchChoice: route is unique");
  return routeFromSwitch(from, dst);
}

std::vector<SwitchId> Butterfly::forwardPath(NodeId proc, NodeId mem) const {
  const std::uint32_t cs = proc / half_;
  const std::uint32_t cd = mem / half_;
  std::vector<SwitchId> path;
  path.reserve(stages_);
  for (std::uint32_t j = 0; j < stages_; ++j) {
    path.push_back(SwitchId{j, hi(j, cd) * pow(stages_ - 1 - j) + lo(j, cs)});
  }
  return path;
}

std::vector<std::pair<SwitchId, SwitchId>> Butterfly::stageLinks() const {
  // The forward paths between every leaf and every root cover every link:
  // each stage step rewrites one digit, which the leaf/root pair ranges over.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> flatLinks;
  for (std::uint32_t leaf = 0; leaf < perStage_; ++leaf) {
    for (std::uint32_t root = 0; root < perStage_; ++root) {
      const std::vector<SwitchId> path = forwardPath(leaf * half_, root * half_);
      for (std::size_t j = 0; j + 1 < path.size(); ++j)
        flatLinks.emplace_back(flat(path[j]), flat(path[j + 1]));
    }
  }
  std::sort(flatLinks.begin(), flatLinks.end());
  flatLinks.erase(std::unique(flatLinks.begin(), flatLinks.end()), flatLinks.end());
  std::vector<std::pair<SwitchId, SwitchId>> links;
  links.reserve(flatLinks.size());
  for (const auto& [a, b] : flatLinks) links.emplace_back(unflat(a), unflat(b));
  return links;
}

}  // namespace dresar
