#include "routing/dfsssp.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "routing/collect.hpp"
#include "routing/sssp.hpp"
#include "routing/verify.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

TEST(Dfsssp, RingBecomesDeadlockFree) {
  // Figure 2's scenario: SSSP on a ring is cyclic; DFSSSP must fix it with
  // one extra layer while keeping SSSP's paths.
  Topology topo = make_ring(5, 1);
  RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(sssp.ok);
  EXPECT_FALSE(routing_is_deadlock_free(topo.net, sssp.table));

  RouteResponse dfsssp = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(dfsssp.ok) << dfsssp.error;
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, dfsssp.table));
  EXPECT_GE(dfsssp.stats.layers_used, 2);

  // Identical forwarding ports (DFSSSP only adds layers).
  for (NodeId s : topo.net.switches()) {
    for (NodeId t : topo.net.terminals()) {
      if (topo.net.switch_of(t) == s) continue;
      EXPECT_EQ(sssp.table.next(s, t), dfsssp.table.next(s, t));
    }
  }
}

TEST(Dfsssp, ConnectedAndMinimalEverywhere) {
  std::uint32_t dims[2] = {4, 4};
  std::uint32_t ms[2] = {4, 4};
  std::uint32_t ws[2] = {2, 2};
  Rng rng(11);
  Topology topos[] = {make_ring(9, 2), make_torus(dims, 2, true),
                      make_kary_ntree(4, 2), make_xgft(2, ms, ws),
                      make_kautz(2, 3, 36), make_random(16, 2, 40, 10, rng)};
  for (const Topology& topo : topos) {
    RouteResponse out = DfssspRouter().route(RouteRequest(topo));
    ASSERT_TRUE(out.ok) << topo.name << ": " << out.error;
    VerifyReport report = verify_routing(topo.net, out.table);
    EXPECT_TRUE(report.connected()) << topo.name;
    EXPECT_TRUE(report.minimal()) << topo.name;
    EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table)) << topo.name;
  }
}

TEST(Dfsssp, OnlineModeMatchesDeadlockFreedom) {
  Topology topo = make_ring(7, 2);
  RouteResponse out =
      DfssspRouter(DfssspOptions{.mode = LayeringMode::kOnline})
          .route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

TEST(Dfsssp, NaiveOnlineModeMatchesInvariants) {
  // The paper's original (slow) online variant must still produce a valid
  // cover, and no worse a layer count than the incremental variant (both
  // are first-fit over the same path order).
  Rng rng(99);
  Topology topo = make_random(10, 2, 22, 8, rng);
  RouteResponse naive =
      DfssspRouter(DfssspOptions{.balance = false,
                                 .mode = LayeringMode::kOnlineNaive})
          .route(RouteRequest(topo));
  RouteResponse pk = DfssspRouter(DfssspOptions{.balance = false,
                                                 .mode = LayeringMode::kOnline})
                          .route(RouteRequest(topo));
  ASSERT_TRUE(naive.ok) << naive.error;
  ASSERT_TRUE(pk.ok);
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, naive.table));
  EXPECT_EQ(naive.stats.layers_used, pk.stats.layers_used);
  // First-fit is deterministic: both variants assign identical layers.
  for (NodeId s : topo.net.switches()) {
    for (NodeId t : topo.net.terminals()) {
      if (topo.net.switch_of(t) == s) continue;
      EXPECT_EQ(naive.table.layer(s, t), pk.table.layer(s, t));
    }
  }
}

// The reject cache answers repeated rejects without a search; first-fit
// must still place every path exactly where the naive per-path cycle
// search does. Each fabric is checked to have had cache hits.
TEST(Dfsssp, OnlineWithRejectCacheMatchesNaiveLayers) {
  std::uint32_t dims[2] = {4, 4};
  Rng rng(7);
  Topology topos[] = {make_ring(9, 2), make_torus(dims, 2, true),
                      make_random(16, 2, 40, 10, rng),
                      make_random(20, 4, 50, 12, rng)};
  for (const Topology& topo : topos) {
    RouteResponse naive =
        DfssspRouter(DfssspOptions{.balance = false,
                                   .mode = LayeringMode::kOnlineNaive})
            .route(RouteRequest(topo));
    const obs::Snapshot before = obs::registry().snapshot();
    RouteResponse pk = DfssspRouter(DfssspOptions{
                           .balance = false, .mode = LayeringMode::kOnline})
                           .route(RouteRequest(topo));
    const obs::Snapshot delta =
        obs::snapshot_delta(obs::registry().snapshot(), before);
    ASSERT_TRUE(naive.ok) << topo.name << ": " << naive.error;
    ASSERT_TRUE(pk.ok) << topo.name << ": " << pk.error;
    EXPECT_GT(delta.at("cdg/pk_cache_rejects").value, 0u) << topo.name;
    EXPECT_EQ(naive.stats.layers_used, pk.stats.layers_used) << topo.name;
    for (NodeId s : topo.net.switches()) {
      for (NodeId t : topo.net.terminals()) {
        if (topo.net.switch_of(t) == s) continue;
        ASSERT_EQ(naive.table.layer(s, t), pk.table.layer(s, t)) << topo.name;
      }
    }
  }
}

TEST(Dfsssp, HeuristicsAllProduceDeadlockFreedom) {
  Rng rng(21);
  Topology topo = make_random(20, 4, 50, 12, rng);
  for (CycleHeuristic h : {CycleHeuristic::kWeakestEdge,
                           CycleHeuristic::kHeaviestEdge,
                           CycleHeuristic::kFirstEdge}) {
    RouteResponse out =
        DfssspRouter(DfssspOptions{.heuristic = h}).route(RouteRequest(topo));
    ASSERT_TRUE(out.ok) << to_string(h) << ": " << out.error;
    EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table)) << to_string(h);
  }
}

TEST(Dfsssp, FailsGracefullyWhenLayerBudgetTooSmall) {
  Topology topo = make_ring(12, 1);
  RouteResponse out =
      DfssspRouter(DfssspOptions{.max_layers = 1}).route(RouteRequest(topo));
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("layer"), std::string::npos);
}

TEST(Dfsssp, TreeNeedsSingleLayer) {
  Topology topo = make_kary_ntree(4, 2);
  RouteResponse out =
      DfssspRouter(DfssspOptions{.balance = false}).route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.stats.layers_used, 1);
  EXPECT_EQ(out.stats.cycles_broken, 0U);
}

TEST(Dfsssp, BalanceSpreadsLayersWithoutBreakingCover) {
  Topology topo = make_ring(8, 2);
  RouteResponse balanced =
      DfssspRouter(DfssspOptions{.balance = true}).route(RouteRequest(topo));
  RouteResponse plain =
      DfssspRouter(DfssspOptions{.balance = false}).route(RouteRequest(topo));
  ASSERT_TRUE(balanced.ok);
  ASSERT_TRUE(plain.ok);
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, balanced.table));
  EXPECT_GE(balanced.stats.layers_used, plain.stats.layers_used);
}

TEST(Dfsssp, LayersBelowTableCount) {
  Topology topo = make_ring(10, 1);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.table.num_layers(), out.stats.layers_used);
  for (NodeId s : topo.net.switches()) {
    for (NodeId t : topo.net.terminals()) {
      if (topo.net.switch_of(t) == s) continue;
      EXPECT_LT(out.table.layer(s, t), out.table.num_layers());
    }
  }
}

TEST(Dfsssp, StatsTimingsPopulated) {
  Topology topo = make_ring(6, 2);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  EXPECT_GT(out.stats.route_seconds, 0.0);
  EXPECT_GT(out.stats.layering_seconds, 0.0);
  EXPECT_GT(out.stats.paths, 0U);
}

}  // namespace
}  // namespace dfsssp
