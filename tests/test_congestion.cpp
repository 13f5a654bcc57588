#include "sim/congestion.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "routing/dfsssp.hpp"
#include "routing/minhop.hpp"
#include "routing/sssp.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

TEST(Congestion, DisjointFlowsGetFullBandwidth) {
  Topology topo = make_ring(4, 1);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  // Terminal 0 -> 1 and 2 -> 3: opposite sides, no sharing.
  Flows flows{{topo.net.terminal_by_index(0), topo.net.terminal_by_index(1)},
              {topo.net.terminal_by_index(2), topo.net.terminal_by_index(3)}};
  PatternResult r = simulate_pattern(topo.net, out.table, flows);
  EXPECT_DOUBLE_EQ(r.avg_flow_bandwidth, 1.0);
  EXPECT_EQ(r.max_congestion, 1U);
}

TEST(Congestion, SharedEjectionHalvesBandwidth) {
  // Two flows into the same destination terminal share its ejection link.
  Topology topo = make_single_switch(3);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Flows flows{{topo.net.terminal_by_index(0), topo.net.terminal_by_index(2)},
              {topo.net.terminal_by_index(1), topo.net.terminal_by_index(2)}};
  PatternResult r = simulate_pattern(topo.net, out.table, flows);
  EXPECT_DOUBLE_EQ(r.avg_flow_bandwidth, 0.5);
  EXPECT_EQ(r.max_congestion, 2U);
}

TEST(Congestion, BottleneckLinkCounts) {
  // Path of 2 switches: all cross-traffic shares the single link.
  Topology topo = make_path(2, 4);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Flows flows;
  for (std::uint32_t i = 0; i < 4; ++i) {
    flows.emplace_back(topo.net.terminal_by_index(i),
                       topo.net.terminal_by_index(4 + i));
  }
  PatternResult r = simulate_pattern(topo.net, out.table, flows);
  EXPECT_EQ(r.max_congestion, 4U);
  EXPECT_DOUBLE_EQ(r.avg_flow_bandwidth, 0.25);
}

TEST(Congestion, LinkCapacityScalesResult) {
  Topology topo = make_path(2, 2);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Flows flows{{topo.net.terminal_by_index(0), topo.net.terminal_by_index(2)},
              {topo.net.terminal_by_index(1), topo.net.terminal_by_index(3)}};
  CongestionOptions opts;
  opts.link_capacity = 946.0;
  PatternResult r = simulate_pattern(topo.net, out.table, flows, opts);
  EXPECT_DOUBLE_EQ(r.avg_flow_bandwidth, 473.0);
}

TEST(Congestion, MaxMinFairDominatesShareMetric) {
  // Max-min fairness can only give each flow at least the bottleneck share.
  Rng rng(5);
  Topology topo = make_kautz(2, 3, 24);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 24);
  Flows flows = map.to_flows(random_bisection(24, rng));
  PatternResult share = simulate_pattern(topo.net, out.table, flows);
  CongestionOptions mm;
  mm.metric = BandwidthMetric::kMaxMinFair;
  PatternResult fair = simulate_pattern(topo.net, out.table, flows, mm);
  EXPECT_GE(fair.avg_flow_bandwidth, share.avg_flow_bandwidth - 1e-9);
  EXPECT_GE(fair.min_flow_bandwidth, share.min_flow_bandwidth - 1e-9);
}

TEST(Congestion, MaxMinFairConservesCapacityOnSingleLink) {
  Topology topo = make_path(2, 3);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Flows flows;
  for (std::uint32_t i = 0; i < 3; ++i) {
    flows.emplace_back(topo.net.terminal_by_index(i),
                       topo.net.terminal_by_index(3 + i));
  }
  CongestionOptions mm;
  mm.metric = BandwidthMetric::kMaxMinFair;
  PatternResult r = simulate_pattern(topo.net, out.table, flows, mm);
  EXPECT_NEAR(r.avg_flow_bandwidth, 1.0 / 3.0, 1e-9);
}

TEST(Congestion, EbbOnSingleSwitchIsPerfect) {
  Topology topo = make_single_switch(16);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Rng rng(6);
  RankMap map = RankMap::round_robin(topo.net, 16);
  EbbResult ebb = effective_bisection_bandwidth(topo.net, out.table, map, 20, rng);
  EXPECT_DOUBLE_EQ(ebb.ebb, 1.0);
}

TEST(Congestion, EbbDropsOnOversubscribedTree) {
  // 4 leaves with 4 terminals each, single spine: 4:1 oversubscription.
  Topology topo = make_clos2(4, 1, 1, 4);
  RouteResponse out = MinHopRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  Rng rng(7);
  RankMap map = RankMap::round_robin(topo.net, 16);
  EbbResult ebb = effective_bisection_bandwidth(topo.net, out.table, map, 50, rng);
  EXPECT_LT(ebb.ebb, 0.75);
  EXPECT_GT(ebb.ebb, 0.1);
  EXPECT_LE(ebb.min_pattern, ebb.ebb);
  EXPECT_LE(ebb.ebb, ebb.max_pattern);
}

TEST(Congestion, BatchSimulationMatchesSingleCalls) {
  Topology topo = make_kautz(2, 3, 24);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 24);
  Rng rng(11);
  std::vector<Flows> patterns;
  for (int i = 0; i < 12; ++i) {
    patterns.push_back(map.to_flows(random_bisection(24, rng)));
  }
  std::vector<PatternResult> serial =
      simulate_patterns(topo.net, out.table, patterns, {}, ExecContext{1});
  std::vector<PatternResult> threaded =
      simulate_patterns(topo.net, out.table, patterns, {}, ExecContext{4});
  ASSERT_EQ(serial.size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    PatternResult one = simulate_pattern(topo.net, out.table, patterns[i]);
    EXPECT_EQ(serial[i].avg_flow_bandwidth, one.avg_flow_bandwidth);
    EXPECT_EQ(serial[i].max_congestion, one.max_congestion);
    EXPECT_EQ(threaded[i].avg_flow_bandwidth, one.avg_flow_bandwidth);
    EXPECT_EQ(threaded[i].min_flow_bandwidth, one.min_flow_bandwidth);
  }
}

TEST(Congestion, EbbIsSeedDeterministic) {
  Topology topo = make_ring(6, 2);
  RouteResponse out = SsspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  RankMap map = RankMap::round_robin(topo.net, 12);
  Rng r1(42), r2(42);
  EbbResult a = effective_bisection_bandwidth(topo.net, out.table, map, 10, r1);
  EbbResult b = effective_bisection_bandwidth(topo.net, out.table, map, 10, r2);
  EXPECT_DOUBLE_EQ(a.ebb, b.ebb);
}

// Runs `call`, which must throw std::runtime_error naming the flow `pair`.
template <typename Call>
void expect_broken(const Call& call, const std::string& pair,
                   const char* what) {
  try {
    call();
    ADD_FAILURE() << what << ": no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(pair), std::string::npos)
        << what << ": " << e.what();
  }
}

// The kernel keeps every check of RoutingTable::extract_path. One entry
// is broken the way Certificate.BrokenWalksThrowAndAreRejected breaks it,
// and each entry point must throw, naming the flow's terminals.
TEST(Congestion, BrokenForwardingThrowsNamingTheFlow) {
  Rng rng(7);
  Topology topo = make_random(32, 4, 80, 8, rng);
  const Network& net = topo.net;
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  ASSERT_TRUE(out.ok);
  // A flow src -> t whose path leaves src's switch for a switch `via`
  // that is not t's.
  NodeId sw = kInvalidNode, t = kInvalidNode;
  for (NodeId s : net.switches()) {
    for (NodeId d : net.terminals()) {
      if (t == kInvalidNode && out.table.path_hops(net, s, d) >= 2) {
        sw = s;
        t = d;
      }
    }
  }
  ASSERT_NE(t, kInvalidNode);
  NodeId src = kInvalidNode;
  for (NodeId s : net.terminals()) {
    if (net.switch_of(s) == sw) src = s;
  }
  ASSERT_NE(src, kInvalidNode);
  const ChannelId first_hop = out.table.next(sw, t);
  const NodeId via = net.channel(first_hop).dst;
  ChannelId foreign = kInvalidChannel;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.is_switch_channel(c) && net.channel(c).src != via) foreign = c;
  }
  ChannelId into_terminal = kInvalidChannel;
  for (NodeId n : net.terminals()) {
    if (net.switch_of(n) == via) into_terminal = net.ejection_channel(n);
  }
  ASSERT_NE(foreign, kInvalidChannel);
  ASSERT_NE(into_terminal, kInvalidChannel);

  const std::pair<const char*, ChannelId> breaks[] = {
      {"dead end", kInvalidChannel},
      {"two-switch loop", net.channel(first_hop).reverse},
      {"foreign channel", foreign},
      {"hop into a terminal", into_terminal},
  };
  const Flows flow{{src, t}};
  const Flows both{{src, t}, {src, t}};  // flow 1 takes the second plane
  // A two-rank bisection sends src -> t or t -> src; over 16 patterns the
  // first direction occurs.
  const RankMap pair_map(std::vector<NodeId>{src, t});
  const std::string pair = net.node_name(src) + " -> " + net.node_name(t);
  for (const auto& [what, next] : breaks) {
    RoutingTable broken = out.table;
    broken.set_next(via, t, next);
    const std::vector<RoutingTable> planes{out.table, broken};
    expect_broken([&] { simulate_pattern(net, broken, flow); }, pair, what);
    expect_broken([&] { simulate_pattern(net, planes, both); }, pair, what);
    expect_broken(
        [&] {
          Rng pat(3);
          effective_bisection_bandwidth(net, broken, pair_map, 16, pat);
        },
        pair, what);
    expect_broken([&] { analyze_load(net, broken, flow); }, pair, what);
  }
}

}  // namespace
}  // namespace dfsssp
