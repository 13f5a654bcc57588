// Parameterized property sweeps over random topologies and seeds: the
// paper-level invariants that must hold for *every* instance.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "cdg/verify.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/dump.hpp"
#include "routing/lash.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "routing/verify.hpp"
#include "topology/generators.hpp"
#include "topology/io.hpp"

namespace dfsssp {
namespace {

struct RandomCase {
  std::uint64_t seed;
  std::uint32_t switches;
  std::uint32_t links;
};

void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_sw" << c.switches << "_l" << c.links;
}

class RandomTopologyProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomTopologyProperty, DfssspInvariants) {
  const RandomCase& c = GetParam();
  Rng rng(c.seed);
  Topology topo = make_random(c.switches, 2, c.links, 12, rng);
  RouteResponse out =
      DfssspRouter(DfssspOptions{.max_layers = 16}).route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  VerifyReport report = verify_routing(topo.net, out.table);
  EXPECT_TRUE(report.connected());
  EXPECT_TRUE(report.minimal());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
  EXPECT_LE(out.stats.layers_used, 16);
}

TEST_P(RandomTopologyProperty, LashInvariants) {
  const RandomCase& c = GetParam();
  Rng rng(c.seed ^ 0xABCDEF);
  Topology topo = make_random(c.switches, 2, c.links, 12, rng);
  RouteResponse out = LashRouter(LashOptions{.max_layers = 16}).route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(verify_routing(topo.net, out.table).connected());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

TEST_P(RandomTopologyProperty, UpDownInvariants) {
  const RandomCase& c = GetParam();
  Rng rng(c.seed ^ 0x123456);
  Topology topo = make_random(c.switches, 2, c.links, 12, rng);
  RouteResponse out = UpDownRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(verify_routing(topo.net, out.table).connected());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
  EXPECT_EQ(out.stats.layers_used, 1);
}

TEST_P(RandomTopologyProperty, OfflineAndOnlineDfssspBothCover) {
  const RandomCase& c = GetParam();
  Rng rng(c.seed ^ 0x777);
  Topology topo = make_random(c.switches, 2, c.links, 12, rng);
  RouteResponse offline =
      DfssspRouter(DfssspOptions{.max_layers = 16, .balance = false}).route(RouteRequest(topo));
  RouteResponse online = DfssspRouter(
      DfssspOptions{.max_layers = 16, .balance = false,
                    .mode = LayeringMode::kOnline})
      .route(RouteRequest(topo));
  ASSERT_TRUE(offline.ok) << offline.error;
  ASSERT_TRUE(online.ok) << online.error;
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, offline.table));
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, online.table));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTopologyProperty,
    ::testing::Values(RandomCase{1, 10, 20}, RandomCase{2, 16, 30},
                      RandomCase{3, 16, 50}, RandomCase{4, 24, 40},
                      RandomCase{5, 24, 80}, RandomCase{6, 32, 60},
                      RandomCase{7, 32, 120}, RandomCase{8, 12, 12},
                      RandomCase{9, 40, 60}, RandomCase{10, 40, 150}),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_sw" +
             std::to_string(info.param.switches) + "_l" +
             std::to_string(info.param.links);
    });

class RingSizeProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingSizeProperty, DfssspNeedsExactlyTwoLayersOnOddRings) {
  // Minimal routing on a ring needs one cycle cut per direction at most:
  // DFSSSP must settle at 2 layers without balancing.
  const std::uint32_t n = GetParam();
  Topology topo = make_ring(n, 1);
  RouteResponse out =
      DfssspRouter(DfssspOptions{.balance = false}).route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.stats.layers_used, 2) << "ring size " << n;
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RingSizeProperty,
                         ::testing::Values(5, 7, 9, 11, 13, 17));

class TorusSizeProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(TorusSizeProperty, DfssspHandlesTori) {
  auto [a, b] = GetParam();
  std::uint32_t dims[2] = {a, b};
  Topology topo = make_torus(dims, 1, true);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(verify_routing(topo.net, out.table).minimal());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TorusSizeProperty,
                         ::testing::Values(std::make_pair(3U, 3U),
                                           std::make_pair(4U, 4U),
                                           std::make_pair(5U, 4U),
                                           std::make_pair(6U, 6U),
                                           std::make_pair(8U, 4U)));

class KautzProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(KautzProperty, DfssspOnKautz) {
  auto [b, n] = GetParam();
  Topology topo = make_kautz(b, n, 8 * (b + 1));
  RouteResponse out = DfssspRouter(DfssspOptions{.max_layers = 16}).route(RouteRequest(topo));
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(verify_routing(topo.net, out.table).minimal());
  EXPECT_TRUE(routing_is_deadlock_free(topo.net, out.table));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KautzProperty,
                         ::testing::Values(std::make_pair(2U, 2U),
                                           std::make_pair(2U, 3U),
                                           std::make_pair(3U, 2U),
                                           std::make_pair(3U, 3U)));

TEST(Property, DumpRoundTripAcrossZoo) {
  // Serialization must survive every topology family, not just the ones
  // the dedicated dump tests use.
  std::uint32_t dims[2] = {3, 4};
  Rng rng(606);
  Topology zoo[] = {make_ring(6, 2), make_torus(dims, 1, true),
                    make_kary_ntree(3, 2), make_kautz(2, 2, 12),
                    make_random(10, 2, 24, 8, rng)};
  for (const Topology& topo : zoo) {
    RouteResponse out = DfssspRouter().route(RouteRequest(topo));
    ASSERT_TRUE(out.ok) << topo.name;
    std::ostringstream os;
    write_forwarding_dump(topo.net, out.table, os);
    std::istringstream is(os.str());
    RoutingTable loaded = read_forwarding_dump(topo.net, is);
    for (NodeId s : topo.net.switches()) {
      for (NodeId t : topo.net.terminals()) {
        if (topo.net.switch_of(t) == s) continue;
        ASSERT_EQ(loaded.next(s, t), out.table.next(s, t)) << topo.name;
        ASSERT_EQ(loaded.layer(s, t), out.table.layer(s, t)) << topo.name;
      }
    }
  }
}

TEST(Property, NetfileRoundTripPreservesRoutingBehavior) {
  // The netfile groups switches/terminals/links, so channel ids (and hence
  // tie-breaks) may differ after reload — but the routing's *behavior*
  // must be equivalent: same path lengths, same invariants.
  Rng rng(707);
  Topology original = make_random(12, 2, 30, 8, rng);
  std::ostringstream os;
  write_netfile(original.net, os);
  std::istringstream is(os.str());
  Topology reloaded = read_netfile(is);
  ASSERT_EQ(reloaded.net.num_switches(), original.net.num_switches());
  ASSERT_EQ(reloaded.net.num_terminals(), original.net.num_terminals());
  RouteResponse a = DfssspRouter().route(RouteRequest(original));
  RouteResponse b = DfssspRouter().route(RouteRequest(reloaded));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_TRUE(verify_routing(reloaded.net, b.table).minimal());
  EXPECT_TRUE(routing_is_deadlock_free(reloaded.net, b.table));
  // Minimality pins path lengths: they must agree pairwise (node order is
  // preserved by the writer even though channel order is not).
  for (NodeId s : original.net.switches()) {
    for (NodeId t : original.net.terminals()) {
      if (original.net.switch_of(t) == s) continue;
      EXPECT_EQ(a.table.path_hops(original.net, s, t),
                b.table.path_hops(reloaded.net, s, t));
    }
  }
}

TEST(Property, CollectedPathsMatchTableLayerDomain) {
  // collect_paths/collect_layers round-trip: every path's layer is within
  // the table's layer count and path channels are contiguous.
  Rng rng(31337);
  Topology topo = make_random(20, 3, 45, 10, rng);
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  PathSet paths = collect_paths(topo.net, out.table);
  std::vector<Layer> layers = collect_layers(topo.net, out.table, paths);
  EXPECT_EQ(paths.size(),
            (topo.net.num_switches()) * topo.net.num_terminals() -
                topo.net.num_terminals());
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    EXPECT_LT(layers[p], out.table.num_layers());
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_EQ(topo.net.channel(seq[i]).dst, topo.net.channel(seq[i + 1]).src);
    }
  }
}

}  // namespace
}  // namespace dfsssp
