#include "interconnect/topology.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

namespace dresar {
namespace {

TEST(Butterfly, ReferenceGeometry16Nodes) {
  Butterfly t(16, 8);
  EXPECT_EQ(t.switchesPerStage(), 4u);
  EXPECT_EQ(t.totalSwitches(), 8u);
  EXPECT_EQ(t.half(), 4u);
  EXPECT_EQ(t.procSwitch(0), (SwitchId{0, 0}));
  EXPECT_EQ(t.procSwitch(15), (SwitchId{0, 3}));
  EXPECT_EQ(t.memSwitch(5), (SwitchId{1, 1}));
}

TEST(Butterfly, RejectsNonTilingGeometry) {
  EXPECT_THROW(Butterfly(16, 7), std::invalid_argument);  // odd radix
  EXPECT_THROW(Butterfly(15, 8), std::invalid_argument);  // not multiple of 4
  // 24 nodes over 8x8 switches: 6 switches per stage needs a 3-stage ladder
  // whose top digit base 6/4 is not integral.
  EXPECT_THROW(Butterfly(24, 8), std::invalid_argument);
  EXPECT_EQ(Butterfly::stagesFor(24, 8), 0u);
  EXPECT_NO_THROW(Butterfly(4, 4));
  EXPECT_NO_THROW(Butterfly(8, 8));
}

TEST(Butterfly, DerivesStageCountFromNodeCount) {
  EXPECT_EQ(Butterfly::stagesFor(16, 8), 2u);
  EXPECT_EQ(Butterfly::stagesFor(32, 8), 3u);
  EXPECT_EQ(Butterfly::stagesFor(64, 8), 3u);
  EXPECT_EQ(Butterfly::stagesFor(128, 8), 4u);
  EXPECT_EQ(Butterfly(32, 8).numStages(), 3u);
  EXPECT_EQ(Butterfly(32, 8).totalSwitches(), 24u);    // 3 stages x 8
  EXPECT_EQ(Butterfly(128, 8).totalSwitches(), 128u);  // 4 stages x 32
}

TEST(Butterfly, ForwardRouteProcToMem) {
  Butterfly t(16, 8);
  const Route r = t.route(procEp(5), memEp(9));
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].sw, (SwitchId{0, 1}));  // proc 5 leaf
  EXPECT_EQ(r[1].sw, (SwitchId{1, 2}));  // mem 9 root
  EXPECT_EQ(r[2].kind, Hop::Kind::Deliver);
  EXPECT_EQ(r[2].ep, memEp(9));
}

TEST(Butterfly, BackwardRouteIsMirror) {
  Butterfly t(16, 8);
  const Route fwd = t.route(procEp(5), memEp(9));
  const Route bwd = t.route(memEp(9), procEp(5));
  ASSERT_EQ(bwd.size(), 3u);
  EXPECT_EQ(bwd[0].sw, fwd[1].sw);
  EXPECT_EQ(bwd[1].sw, fwd[0].sw);
}

TEST(Butterfly, PathOverlapProperty) {
  // Every request to memory j crosses j's root switch; writer-leaf overlap
  // happens for same-cluster readers. This is the property switch
  // directories rely on (paper 3.1).
  Butterfly t(16, 8);
  for (NodeId p = 0; p < 16; ++p) {
    for (NodeId m = 0; m < 16; ++m) {
      const Route r = t.route(procEp(p), memEp(m));
      ASSERT_EQ(r.size(), 3u);
      EXPECT_EQ(r[1].sw, t.memSwitch(m));
      EXPECT_EQ(r[0].sw, t.procSwitch(p));
    }
  }
}

TEST(Butterfly, ProcToProcSameClusterTurnsAtLeaf) {
  Butterfly t(16, 8);
  const Route r = t.route(procEp(4), procEp(6));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].sw, (SwitchId{0, 1}));
  EXPECT_EQ(r[1].ep, procEp(6));
}

TEST(Butterfly, ProcToProcCrossClusterIsSymmetricViaRoot) {
  Butterfly t(16, 8);
  const Route ab = t.route(procEp(1), procEp(14));
  const Route ba = t.route(procEp(14), procEp(1));
  ASSERT_EQ(ab.size(), 4u);
  EXPECT_EQ(ab[1].sw.stage, 1u);
  EXPECT_EQ(ab[1].sw, ba[1].sw);  // both directions meet at the same root
}

TEST(Butterfly, RouteFromSwitchToProc) {
  Butterfly t(16, 8);
  // Root switch injecting toward a processor passes that proc's leaf.
  const Route r1 = t.routeFromSwitch(SwitchId{1, 2}, procEp(13));
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[0].sw, (SwitchId{0, 3}));
  // Leaf switch injecting to its own cluster delivers directly.
  const Route r2 = t.routeFromSwitch(SwitchId{0, 3}, procEp(13));
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].ep, procEp(13));
  // Leaf switch to a foreign cluster goes up then down.
  const Route r3 = t.routeFromSwitch(SwitchId{0, 0}, procEp(13));
  ASSERT_EQ(r3.size(), 3u);
  EXPECT_EQ(r3[0].sw.stage, 1u);
  EXPECT_EQ(r3[1].sw, (SwitchId{0, 3}));
}

TEST(Butterfly, RouteFromSwitchToMem) {
  Butterfly t(16, 8);
  const Route r = t.routeFromSwitch(SwitchId{0, 1}, memEp(9));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].sw, (SwitchId{1, 2}));
  // A root switch can reach its own memories directly.
  const Route r2 = t.routeFromSwitch(SwitchId{1, 2}, memEp(9));
  ASSERT_EQ(r2.size(), 1u);
}

TEST(Butterfly, ForwardPathMembership) {
  Butterfly t(16, 8);
  const auto path = t.forwardPath(3, 12);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], (SwitchId{0, 0}));
  EXPECT_EQ(path[1], (SwitchId{1, 3}));
}

TEST(Butterfly, SmallRadix4System) {
  Butterfly t(4, 4);
  EXPECT_EQ(t.switchesPerStage(), 2u);
  const Route r = t.route(procEp(0), memEp(3));
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].sw, (SwitchId{0, 0}));
  EXPECT_EQ(r[1].sw, (SwitchId{1, 1}));
}

TEST(Butterfly, StageLinksCoverEveryRouteStep) {
  for (const auto& [nodes, radix] : {std::pair{16u, 8u}, {32u, 8u}, {64u, 4u}}) {
    const Butterfly t(nodes, radix);
    std::set<std::pair<std::uint32_t, std::uint32_t>> links;
    for (const auto& [a, b] : t.stageLinks()) {
      EXPECT_EQ(a.stage + 1, b.stage);
      EXPECT_TRUE(links.emplace(t.flat(a), t.flat(b)).second) << "listed twice";
    }
    std::uint64_t steps = 0;
    const auto check = [&](const Route& r) {
      for (std::size_t i = 0; i + 1 < r.size(); ++i) {
        if (r[i].kind != Hop::Kind::Switch || r[i + 1].kind != Hop::Kind::Switch) continue;
        const SwitchId lo = r[i].sw.stage < r[i + 1].sw.stage ? r[i].sw : r[i + 1].sw;
        const SwitchId hi = r[i].sw.stage < r[i + 1].sw.stage ? r[i + 1].sw : r[i].sw;
        EXPECT_TRUE(links.count({t.flat(lo), t.flat(hi)}) == 1)
            << nodes << " nodes: step " << t.flat(r[i].sw) << " -> " << t.flat(r[i + 1].sw);
        ++steps;
      }
    };
    for (NodeId s = 0; s < nodes; ++s) {
      for (NodeId d = 0; d < nodes; ++d) {
        check(t.route(procEp(s), memEp(d)));
        check(t.route(memEp(s), procEp(d)));
        for (std::uint32_t f = 0; f < t.turnaround(procEp(s), procEp(d)).width; ++f)
          check(t.routeChoice(procEp(s), procEp(d), f));
      }
    }
    for (std::uint32_t f = 0; f < t.totalSwitches(); ++f) {
      const SwitchId sw = t.unflat(f);
      for (NodeId d = 0; d < nodes; ++d) {
        for (std::uint32_t g = 0; g < t.turnaroundFromSwitch(sw, procEp(d)).width; ++g)
          check(t.routeFromSwitchChoice(sw, procEp(d), g));
        if (t.canReachMem(sw, d)) check(t.routeFromSwitch(sw, memEp(d)));
      }
    }
    EXPECT_GT(steps, 0u);
  }
}

}  // namespace
}  // namespace dresar
