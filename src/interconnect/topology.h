// Dance-hall butterfly BMIN topology (paper Figure 3), generalized to k
// stages: processors attach below stage 0, memory/directory modules above
// stage k-1. Every (processor, memory) pair has a unique minimal path that
// is identical for forward (proc->mem) and backward (mem->proc) traffic —
// the path-overlap property switch directories rely on (paper 3.1).
// Processor-to-processor messages (c2c data, switch-generated requests) use
// turnaround routing at the lowest common ancestor stage.
//
// Switch indices are read as mixed-radix numbers in base half = radix/2:
// the digit at weight half^j is "position j". The link between stage j and
// stage j+1 replaces exactly the digit at position k-2-j, so a message
// climbing from a leaf fixes the destination's digits from the top position
// down, and descending fixes them bottom-up — the classic butterfly wiring.
// With P = numNodes/half switches per stage the top digit has base
// m = P / half^(k-2) (1 <= m <= half), which lets node counts that are not
// pure powers of half (e.g. 8 or 32 nodes with radix-8 switches) tile
// exactly. k = 2 reproduces the paper's reference machine bit for bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace dresar {

/// Identifies a switch: stage 0 is adjacent to processors, stage
/// numStages()-1 to memory.
struct SwitchId {
  std::uint32_t stage = 0;
  std::uint32_t index = 0;

  friend bool operator==(const SwitchId&, const SwitchId&) = default;
};

/// A routing step: either a switch traversal or the final endpoint delivery.
struct Hop {
  enum class Kind : std::uint8_t { Switch, Deliver } kind = Kind::Switch;
  SwitchId sw;        ///< valid when kind == Switch
  Endpoint ep;        ///< valid when kind == Deliver

  static Hop atSwitch(SwitchId s) { return Hop{Kind::Switch, s, {}}; }
  static Hop deliver(Endpoint e) { return Hop{Kind::Deliver, {}, e}; }
};

using Route = std::vector<Hop>;

/// The equal-length turnaround routes available to one message. Turnaround
/// paths (proc->proc, switch->proc) have free digits between the fixed high
/// part and the shared low part; each value of the free-digit window selects
/// a different — but equally long — turnaround switch. `width == 1` means
/// the route is unique (all proc<->mem traffic, same-cluster pairs).
/// `baseline` is the digit the deterministic LCA default picks.
struct TurnaroundChoices {
  std::uint32_t width = 1;     ///< candidate digits f in [0, width)
  std::uint32_t baseline = 0;  ///< the (cs + cq) % width default
};

/// k-stage butterfly of radix-R switches (R/2 down ports, R/2 up ports).
/// The stage count is derived: the smallest k >= 2 whose (R/2)-ary digit
/// ladder covers numNodes/(R/2) switches per stage. For the paper's
/// reference system: R=8, 16 nodes, k=2, 4 switches per stage.
class Butterfly {
 public:
  Butterfly(std::uint32_t numNodes, std::uint32_t switchRadix);

  /// Stage count for a (numNodes, radix) pair without constructing: 0 when
  /// the combination does not tile into a butterfly (used by config
  /// validation to report every violation instead of throwing on the first).
  [[nodiscard]] static std::uint32_t stagesFor(std::uint32_t numNodes,
                                              std::uint32_t switchRadix);

  [[nodiscard]] std::uint32_t numNodes() const { return numNodes_; }
  [[nodiscard]] std::uint32_t switchesPerStage() const { return perStage_; }
  [[nodiscard]] std::uint32_t numStages() const { return stages_; }
  [[nodiscard]] std::uint32_t totalSwitches() const { return perStage_ * stages_; }
  [[nodiscard]] std::uint32_t half() const { return half_; }

  /// Flattened switch index in [0, totalSwitches()).
  [[nodiscard]] std::uint32_t flat(SwitchId s) const { return s.stage * perStage_ + s.index; }
  [[nodiscard]] SwitchId unflat(std::uint32_t f) const {
    return SwitchId{f / perStage_, f % perStage_};
  }

  /// Leaf (stage-0) switch of processor p; root (top-stage) switch of
  /// memory m.
  [[nodiscard]] SwitchId procSwitch(NodeId p) const { return SwitchId{0, p / half_}; }
  [[nodiscard]] SwitchId memSwitch(NodeId m) const {
    return SwitchId{stages_ - 1, m / half_};
  }

  /// True when a message injected at `from` can reach memory m going up:
  /// climbing from stage s only rewrites digit positions < k-1-s, so the
  /// high digits of the switch index must already match the memory's root.
  [[nodiscard]] bool canReachMem(SwitchId from, NodeId m) const;

  /// Unique route between two endpoints. Supported pairs: proc->mem (forward),
  /// mem->proc (backward), proc->proc (turnaround).
  [[nodiscard]] Route route(Endpoint src, Endpoint dst) const;

  /// Route for a message injected by switch `from` (switch-directory
  /// generated traffic: CtoCRequest/ReadReply/Retry toward a processor, or
  /// nothing toward memory — those annotate passing messages instead).
  [[nodiscard]] Route routeFromSwitch(SwitchId from, Endpoint dst) const;

  /// Free-digit window for the src->dst pair. route() always returns
  /// routeChoice(src, dst, turnaround(src, dst).baseline).
  [[nodiscard]] TurnaroundChoices turnaround(Endpoint src, Endpoint dst) const;
  [[nodiscard]] TurnaroundChoices turnaroundFromSwitch(SwitchId from, Endpoint dst) const;

  /// Route with an explicit free-digit choice f in [0, turnaround().width).
  /// Pairs with a unique route accept only f == 0. All choices for a pair
  /// have identical hop counts; only the turnaround switches differ.
  [[nodiscard]] Route routeChoice(Endpoint src, Endpoint dst, std::uint32_t f) const;
  [[nodiscard]] Route routeFromSwitchChoice(SwitchId from, Endpoint dst,
                                            std::uint32_t f) const;

  /// The switches a proc->mem request traverses, in order. Used by the
  /// trace-driven simulator, which needs path membership but not timing.
  [[nodiscard]] std::vector<SwitchId> forwardPath(NodeId proc, NodeId mem) const;

  /// Every link between adjacent stages, as (stage j, stage j+1) switch
  /// pairs, each once, in ascending flat-index order. Every route of every
  /// kind climbs and descends over these links only.
  [[nodiscard]] std::vector<std::pair<SwitchId, SwitchId>> stageLinks() const;

 private:
  /// half^e (e <= stages_-1; precomputed in halfPow_).
  [[nodiscard]] std::uint32_t pow(std::uint32_t e) const { return halfPow_[e]; }
  /// Low digits of switch coordinate c below position k-1-j (stage-j view).
  [[nodiscard]] std::uint32_t lo(std::uint32_t j, std::uint32_t c) const {
    return c % pow(stages_ - 1 - j);
  }
  /// High digits of c at positions >= k-1-j.
  [[nodiscard]] std::uint32_t hi(std::uint32_t j, std::uint32_t c) const {
    return c / pow(stages_ - 1 - j);
  }
  /// Number of distinct values the digits at positions >= k-1-j can take
  /// (accounts for the reduced top-digit base).
  [[nodiscard]] std::uint32_t valuesAbove(std::uint32_t j) const {
    const std::uint32_t v = perStage_ / pow(stages_ - 1 - j);
    return v == 0 ? 1 : v;
  }
  /// Sentinel for appendTurnaround: pick the deterministic LCA baseline.
  static constexpr std::uint32_t kAutoDigit = 0xFFFFFFFFu;
  /// Turnaround stage and free-digit window for a stage-`s` climb from
  /// switch coordinate `cs` to the leaf of coordinate `cq`.
  struct TurnSpan {
    std::uint32_t t = 0;         ///< turnaround stage
    std::uint32_t width = 1;     ///< free-digit window
    std::uint32_t baseline = 0;  ///< (cs + cq) % width
  };
  [[nodiscard]] TurnSpan turnSpan(std::uint32_t s, std::uint32_t cs, std::uint32_t cq) const;
  /// Append the turnaround path from stage-`s` switch index `cs` up to stage
  /// `t` and back down to the leaf of coordinate `cq`. The turnaround index
  /// keeps `cs`'s fixed high digits, takes free digit `f` (kAutoDigit = the
  /// deterministic symmetric (cs+cq) spread, identical for both directions
  /// of a pair), and shares its low digits with both endpoints
  /// (lo(t, cs) == lo(t, cq) is the caller's contract).
  void appendTurnaround(Route& r, std::uint32_t s, std::uint32_t cs, std::uint32_t cq,
                        std::uint32_t f = kAutoDigit) const;

  std::uint32_t numNodes_;
  std::uint32_t half_;
  std::uint32_t perStage_;
  std::uint32_t stages_;
  std::vector<std::uint32_t> halfPow_;  ///< halfPow_[e] = half^e, e in [0, stages_)
};

}  // namespace dresar
