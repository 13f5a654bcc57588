#include "routing/multipath.hpp"

#include <gtest/gtest.h>

#include <span>

#include "routing/collect.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

TEST(Multipath, PlaneCountFollowsLmc) {
  Topology topo = make_ring(5, 1);
  EXPECT_EQ(route_sssp_multipath(topo, 0).planes.size(), 1U);
  EXPECT_EQ(route_sssp_multipath(topo, 1).planes.size(), 2U);
  EXPECT_EQ(route_sssp_multipath(topo, 2).planes.size(), 4U);
  EXPECT_FALSE(route_sssp_multipath(topo, 4).ok);
}

TEST(Multipath, EveryPlaneIsConnectedAndMinimal) {
  Rng rng(5);
  Topology topo = make_random(12, 2, 28, 8, rng);
  MultipathOutcome out = route_sssp_multipath(topo, 2);
  ASSERT_TRUE(out.ok) << out.error;
  for (const RoutingTable& plane : out.planes) {
    VerifyReport report = verify_routing(topo.net, plane);
    EXPECT_TRUE(report.connected());
    EXPECT_TRUE(report.minimal());
  }
}

TEST(Multipath, PlanesActuallyDiversify) {
  // On a 2-spine Clos the shared weight map must push consecutive planes
  // onto different spines for at least some (switch, dst) entries.
  Topology topo = make_clos2(2, 2, 1, 4);
  MultipathOutcome out = route_sssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok);
  std::size_t different = 0, total = 0;
  for (NodeId s : topo.net.switches()) {
    for (NodeId t : topo.net.terminals()) {
      if (topo.net.switch_of(t) == s) continue;
      ++total;
      if (out.planes[0].next(s, t) != out.planes[1].next(s, t)) ++different;
    }
  }
  EXPECT_GT(different, total / 4);
}

TEST(Multipath, DfssspJointLayeringIsDeadlockFree) {
  Topology topo = make_ring(7, 2);
  MultipathOutcome out = route_dfsssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.planes));
  EXPECT_GE(out.stats.layers_used, 2);
  // Every plane individually is also deadlock-free (a subset of an acyclic
  // union stays acyclic).
  for (const RoutingTable& plane : out.planes) {
    EXPECT_TRUE(verify_routing(topo.net, plane).connected());
  }
}

TEST(Multipath, SsspPlanesAloneAreNotDeadlockFreeOnRing) {
  Topology topo = make_ring(5, 1);
  MultipathOutcome out = route_sssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok);
  EXPECT_FALSE(routing_is_deadlock_free(topo.net, out.planes));
}

// The planes go through DfssspRouter's layering, so options.mode holds:
// online first-fit breaks no cycles where Algorithm 2 must, and the joint
// layering is deadlock-free either way.
TEST(Multipath, OnlineModeLayersPlanesFirstFit) {
  Topology topo = make_ring(7, 2);
  MultipathOutcome offline = route_dfsssp_multipath(topo, 1);
  ASSERT_TRUE(offline.ok) << offline.error;
  EXPECT_GT(offline.stats.cycles_broken, 0u);
  MultipathOutcome online = route_dfsssp_multipath(
      topo, 1, DfssspOptions{.mode = LayeringMode::kOnline});
  ASSERT_TRUE(online.ok) << online.error;
  EXPECT_EQ(online.stats.cycles_broken, 0u);
  EXPECT_GE(online.stats.layers_used, 2);
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, online.planes));
}

// One plane through route_planes is route(): the same next hops, layers
// and layer count.
TEST(Multipath, OnePlaneIsTheRouterTable) {
  Rng rng(11);
  Topology topo = make_random(24, 2, 40, 8, rng);
  for (LayeringMode mode : {LayeringMode::kOffline, LayeringMode::kOnline}) {
    const DfssspOptions options{.mode = mode};
    const RouteResponse single = DfssspRouter(options).route(RouteRequest(topo));
    ASSERT_TRUE(single.ok) << single.error;
    MultipathOutcome planes = route_dfsssp_multipath(topo, 0, options);
    ASSERT_TRUE(planes.ok) << planes.error;
    const RoutingTable& plane = planes.planes[0];
    EXPECT_EQ(plane.num_layers(), single.table.num_layers());
    EXPECT_EQ(planes.stats.layers_used, single.stats.layers_used);
    std::uint64_t differences = 0;
    for (NodeId sw : topo.net.switches()) {
      for (NodeId t : topo.net.terminals()) {
        differences += plane.next(sw, t) != single.table.next(sw, t) ||
                       plane.layer(sw, t) != single.table.layer(sw, t);
      }
    }
    EXPECT_EQ(differences, 0u);
  }
}

TEST(Multipath, SimulationUsesAllPlanes) {
  Topology topo = make_clos2(2, 2, 1, 8);
  MultipathOutcome out = route_dfsssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok);
  Rng rng(9);
  RankMap map = RankMap::round_robin(topo.net, 16);
  EbbResult multi =
      effective_bisection_bandwidth(topo.net, out.planes, map, 50, rng);
  EXPECT_GT(multi.ebb, 0.0);
  EXPECT_LE(multi.ebb, 1.0 + 1e-9);
}

TEST(Multipath, Lmc1ImprovesAdversarialPattern) {
  // A fixed permutation that hurts a single-path routing: with two planes
  // the flows spread, so the bottleneck share cannot get worse.
  Topology topo = make_clos2(4, 2, 1, 4);
  MultipathOutcome multi = route_dfsssp_multipath(topo, 1);
  ASSERT_TRUE(multi.ok);
  RankMap map = RankMap::round_robin(topo.net, 16);
  Flows flows = map.to_flows(ring_shift(16, 4));  // leaf-to-leaf shift
  PatternResult single = simulate_pattern(topo.net, multi.planes[0], flows);
  PatternResult both = simulate_pattern(topo.net, multi.planes, flows);
  EXPECT_GE(both.avg_flow_bandwidth, single.avg_flow_bandwidth - 1e-9);
}

// A single table is one plane, and a plane repeated is still that routing:
// both give the table's PatternResult and EbbResult bit for bit, under
// either metric.
TEST(Multipath, OnePlaneAndTwoIdenticalPlanesMatchTheTable) {
  Topology topo = make_kautz(2, 3, 24);
  MultipathOutcome out = route_sssp_multipath(topo, 0);
  ASSERT_TRUE(out.ok);
  const RoutingTable& table = out.planes[0];
  RankMap map = RankMap::round_robin(topo.net, 24);
  Rng rng(5);
  Flows flows = map.to_flows(random_bisection(24, rng));
  const std::vector<RoutingTable> twice{table, table};
  for (BandwidthMetric metric :
       {BandwidthMetric::kBottleneckShare, BandwidthMetric::kMaxMinFair}) {
    CongestionOptions opts;
    opts.metric = metric;
    const PatternResult want = simulate_pattern(topo.net, table, flows, opts);
    Rng r0(9);
    const EbbResult want_ebb =
        effective_bisection_bandwidth(topo.net, table, map, 10, r0, opts);
    for (std::span<const RoutingTable> planes :
         {std::span<const RoutingTable>(&table, 1),
          std::span<const RoutingTable>(twice)}) {
      const PatternResult got = simulate_pattern(topo.net, planes, flows, opts);
      EXPECT_EQ(got.avg_flow_bandwidth, want.avg_flow_bandwidth);
      EXPECT_EQ(got.min_flow_bandwidth, want.min_flow_bandwidth);
      EXPECT_EQ(got.max_congestion, want.max_congestion);
      Rng r1(9);
      const EbbResult ebb =
          effective_bisection_bandwidth(topo.net, planes, map, 10, r1, opts);
      EXPECT_EQ(ebb.ebb, want_ebb.ebb);
      EXPECT_EQ(ebb.min_pattern, want_ebb.min_pattern);
      EXPECT_EQ(ebb.max_pattern, want_ebb.max_pattern);
    }
  }
}

// Max-min fairness over planes gives every flow at least its bottleneck
// share and, here, more on average: the metric is honoured for planes.
TEST(Multipath, MaxMinFairOverPlanesDominatesShare) {
  Topology topo = make_kautz(2, 3, 48);
  MultipathOutcome out = route_sssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 48);
  Rng rng(4);
  Flows flows = map.to_flows(random_bisection(48, rng));
  CongestionOptions mm;
  mm.metric = BandwidthMetric::kMaxMinFair;
  const PatternResult share = simulate_pattern(topo.net, out.planes, flows);
  const PatternResult fair = simulate_pattern(topo.net, out.planes, flows, mm);
  EXPECT_GT(fair.avg_flow_bandwidth, share.avg_flow_bandwidth);
  EXPECT_GE(fair.min_flow_bandwidth, share.min_flow_bandwidth - 1e-9);
}

}  // namespace
}  // namespace dfsssp
