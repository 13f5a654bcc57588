// Reproducibility guarantees: identical inputs must give bit-identical
// routings and simulated numbers (the whole bench suite relies on it).
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/report/report.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/lash.hpp"
#include "routing/minhop.hpp"
#include "routing/multipath.hpp"
#include "routing/updown.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

void expect_identical_tables(const Network& net, const RoutingTable& a,
                             const RoutingTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (NodeId s : net.switches()) {
    for (NodeId t : net.terminals()) {
      if (net.switch_of(t) == s) continue;
      ASSERT_EQ(a.next(s, t), b.next(s, t));
      ASSERT_EQ(a.layer(s, t), b.layer(s, t));
    }
  }
}

TEST(Determinism, EnginesAreDeterministic) {
  Rng r1(555), r2(555);
  Topology t1 = make_random(14, 2, 32, 8, r1);
  Topology t2 = make_random(14, 2, 32, 8, r2);
  for (const auto& make_router :
       {std::function<std::unique_ptr<Router>()>(
            [] { return std::make_unique<MinHopRouter>(); }),
        std::function<std::unique_ptr<Router>()>(
            [] { return std::make_unique<UpDownRouter>(); }),
        std::function<std::unique_ptr<Router>()>(
            [] { return std::make_unique<LashRouter>(); }),
        std::function<std::unique_ptr<Router>()>(
            [] { return std::make_unique<DfssspRouter>(); })}) {
    RouteResponse a = make_router()->route(RouteRequest(t1));
    RouteResponse b = make_router()->route(RouteRequest(t2));
    ASSERT_EQ(a.ok, b.ok);
    if (a.ok) expect_identical_tables(t1.net, a.table, b.table);
  }
}

TEST(Determinism, SimulationIsSeedStable) {
  Topology topo = make_kautz(2, 3, 48);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 48);
  Rng r1(777), r2(777);
  EbbResult a = effective_bisection_bandwidth(topo.net, out.table, map, 25, r1);
  EbbResult b = effective_bisection_bandwidth(topo.net, out.table, map, 25, r2);
  EXPECT_DOUBLE_EQ(a.ebb, b.ebb);
  EXPECT_DOUBLE_EQ(a.min_pattern, b.min_pattern);
  EXPECT_DOUBLE_EQ(a.max_pattern, b.max_pattern);
}

TEST(Determinism, EbbIsThreadCountInvariant) {
  // The determinism contract of the parallel layer: simulated numbers are
  // bitwise identical no matter how many threads computed them.
  Topology topo = make_kautz(2, 3, 48);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 48);
  Rng r1(777), r8(777);
  EbbResult serial = effective_bisection_bandwidth(topo.net, out.table, map,
                                                   50, r1, {}, ExecContext{1});
  EbbResult parallel = effective_bisection_bandwidth(
      topo.net, out.table, map, 50, r8, {}, ExecContext{8});
  EXPECT_EQ(serial.ebb, parallel.ebb);
  EXPECT_EQ(serial.min_pattern, parallel.min_pattern);
  EXPECT_EQ(serial.max_pattern, parallel.max_pattern);
}

TEST(Determinism, PlanesEbbIsThreadCountInvariant) {
  Topology topo = make_kautz(2, 3, 48);
  MultipathOutcome out = route_dfsssp_multipath(topo, 1);
  ASSERT_TRUE(out.ok) << out.error;
  RankMap map = RankMap::round_robin(topo.net, 48);
  Rng r1(777), r4(777);
  EbbResult serial = effective_bisection_bandwidth(topo.net, out.planes, map,
                                                   50, r1, {}, ExecContext{1});
  EbbResult parallel = effective_bisection_bandwidth(
      topo.net, out.planes, map, 50, r4, {}, ExecContext{4});
  EXPECT_EQ(serial.ebb, parallel.ebb);
  EXPECT_EQ(serial.min_pattern, parallel.min_pattern);
  EXPECT_EQ(serial.max_pattern, parallel.max_pattern);
}

TEST(Determinism, VerificationIsThreadCountInvariant) {
  Rng rng(901);
  Topology topo = make_random(20, 2, 50, 8, rng);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  VerifyReport serial = verify_routing(topo.net, out.table, ExecContext{1});
  VerifyReport parallel = verify_routing(topo.net, out.table, ExecContext{8});
  EXPECT_EQ(serial.total_paths, parallel.total_paths);
  EXPECT_EQ(serial.broken, parallel.broken);
  EXPECT_EQ(serial.non_minimal, parallel.non_minimal);
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table, ExecContext{8}));
}

TEST(Determinism, MetricReadingsAreThreadCountInvariant) {
  // The observability extension of the contract: everything exported in the
  // deterministic `metrics` section of a --json run report must read the
  // same at any --threads=N. Full DFSSSP route + eBB sim per thread count,
  // compared through the same serializer the bench reports use.
  const auto run = [](unsigned threads) {
    const obs::Snapshot before = obs::registry().snapshot();
    Rng rng(424242);
    Topology topo = make_random(20, 2, 50, 8, rng);
    RouteResponse out = DfssspRouter().route(RouteRequest(topo));
    EXPECT_TRUE(out.ok);
    RankMap map = RankMap::round_robin(topo.net, 40);
    Rng pat(777);
    effective_bisection_bandwidth(topo.net, out.table, map, 40, pat, {},
                                  ExecContext{threads});
    return obs::metrics_to_json(
               obs::snapshot_delta(obs::registry().snapshot(), before),
               obs::Kind::kDeterministic)
        .dump();
  };
  const std::string one = run(1);
  const std::string two = run(2);
  const std::string eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // The run actually exercised the instrumented paths.
  EXPECT_NE(one.find("sim/patterns_simulated"), std::string::npos);
  EXPECT_NE(one.find("sssp/dijkstra_passes"), std::string::npos);
}

TEST(Determinism, RoutingIndependentOfPriorRouting) {
  // Engines must not share hidden state: routing topology A then B gives
  // the same B-result as routing B alone.
  Topology a = make_ring(6, 1);
  Topology b = make_kary_ntree(3, 2);
  DfssspRouter router;
  (void)router.route(RouteRequest(a));
  RouteResponse after = router.route(RouteRequest(b));
  RouteResponse fresh = DfssspRouter().route(RouteRequest(b));
  ASSERT_TRUE(after.ok);
  ASSERT_TRUE(fresh.ok);
  expect_identical_tables(b.net, after.table, fresh.table);
}

}  // namespace
}  // namespace dfsssp
