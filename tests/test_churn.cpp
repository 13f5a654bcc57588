// Fault churn: seeded event streams, in-place mutation, incremental repair.
//
// The contract under test (ISSUE: fault-churn subsystem): after every
// applied churn event, the incrementally repaired routing must (a) reach
// every alive destination from every alive switch over alive channels,
// (b) carry a certificate the independent checker accepts, and (c) be
// bitwise identical across thread counts. Plus the bookkeeping contracts:
// RoutingStats.paths and the fault/* metrics never go stale.
#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "analysis/certificate.hpp"
#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "fault/schedule.hpp"
#include "obs/metrics.hpp"
#include "routing/dfsssp.hpp"
#include "routing/dump.hpp"
#include "routing/sssp.hpp"
#include "routing/verify.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

std::uint32_t alive_terminals(const Network& net) {
  std::uint32_t alive = 0;
  for (NodeId t : net.terminals()) alive += net.terminal_alive(t) ? 1 : 0;
  return alive;
}

/// The admission rule, written out independently of ChurnEngine: some
/// switch is alive and the alive switches are connected.
bool admissible(const Network& net) {
  return net.num_alive_switches() > 0 && net.alive_connected();
}

/// Every (alive switch, alive destination) pair must walk to the
/// destination over alive channels only.
void expect_reachable(const Network& net, const RoutingTable& table) {
  std::vector<ChannelId> path;
  for (NodeId d : net.terminals()) {
    if (!net.terminal_alive(d)) continue;
    for (NodeId sw : net.switches()) {
      if (!net.switch_up(sw)) continue;
      ASSERT_TRUE(table.extract_path(net, sw, d, path))
          << "broken walk " << net.node_name(sw) << " -> "
          << net.node_name(d);
      for (ChannelId c : path) {
        ASSERT_TRUE(net.channel_alive(c))
            << "path " << net.node_name(sw) << " -> " << net.node_name(d)
            << " crosses dead channel " << c;
      }
    }
  }
}

TEST(FaultSchedule, DeterministicAndConnectivityPreserving) {
  Topology topo = make_kary_ntree(4, 2);
  FaultScheduleOptions opts;
  opts.num_events = 50;
  const FaultSchedule a = FaultSchedule::random(topo.net, opts, 7);
  const FaultSchedule b = FaultSchedule::random(topo.net, opts, 7);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].sw, b[i].sw);
  }
  // Applying the whole stream never disconnects the alive switches.
  ChurnEngine churn(topo);
  std::uint32_t applied = 0;
  for (const FaultEvent& ev : a) {
    const ChurnDelta delta = churn.apply(ev);
    applied += delta.applied ? 1 : 0;
    EXPECT_TRUE(topo.net.alive_connected()) << ev.describe(topo.net);
  }
  EXPECT_GT(applied, 0u);
}

/// FNV-1a 64 over each event's (kind, channel, sw), little-endian.
std::uint64_t stream_digest(const FaultSchedule& sched) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (const FaultEvent& ev : sched) {
    mix(static_cast<std::uint8_t>(ev.kind), 1);
    mix(ev.channel, 4);
    mix(ev.sw, 4);
  }
  return h;
}

// The perf workloads and the churn, churn_deimos and soak baselines replay
// these streams, so a change to how schedules are drawn must keep every
// seed's events. The values were read from the generator that kept its own
// copy of the link and switch flags.
TEST(FaultSchedule, StreamIsPinned) {
  Topology deimos = make_deimos();
  FaultScheduleOptions links;
  links.num_events = 200;
  links.switch_down_weight = 0;
  links.switch_up_weight = 0;
  const FaultSchedule a = FaultSchedule::random(deimos.net, links, 0xFA17);
  EXPECT_EQ(a.size(), 200u);
  EXPECT_EQ(stream_digest(a), 0x74D98DC5B74BDFB6ULL);

  Topology tree = make_kary_ntree(4, 2);
  FaultScheduleOptions all;
  all.num_events = 200;
  const FaultSchedule b = FaultSchedule::random(tree.net, all, 7);
  EXPECT_EQ(b.size(), 159u);
  EXPECT_EQ(stream_digest(b), 0x8BE6A2970FBF4A55ULL);
}

TEST(ChurnEngine, VetoesDisconnectingKill) {
  // A 3-switch line: the middle links are bridges.
  Topology topo;
  Network& net = topo.net;
  NodeId a = net.add_switch(), b = net.add_switch(), c = net.add_switch();
  const ChannelId ab = net.add_link(a, b);
  net.add_link(b, c);
  net.add_terminal(a);
  net.add_terminal(c);
  net.freeze();

  ChurnEngine churn(topo);
  FaultEvent ev;
  ev.kind = FaultKind::kLinkDown;
  ev.channel = ab;
  const ChurnDelta delta = churn.apply(ev);
  EXPECT_FALSE(delta.applied);
  EXPECT_FALSE(delta.veto_reason.empty());
  EXPECT_TRUE(net.channel_alive(ab));
  EXPECT_TRUE(net.alive_connected());
  EXPECT_EQ(churn.events_vetoed(), 1u);
  EXPECT_EQ(churn.events_applied(), 0u);
}

TEST(ChurnEngine, DeltaReportsEffectiveChanges) {
  Topology topo = make_kary_ntree(4, 2);
  Network& net = topo.net;
  ChurnEngine churn(topo);

  const NodeId sw = net.switch_by_index(0);
  FaultEvent down{FaultKind::kSwitchDown, kInvalidChannel, sw};
  const ChurnDelta delta = churn.apply(down);
  ASSERT_TRUE(delta.applied);
  ASSERT_EQ(delta.switches_down.size(), 1u);
  EXPECT_EQ(delta.switches_down[0], sw);
  // Every physical channel touching the switch died: inter-switch links in
  // both directions plus its terminals' injection/ejection channels.
  EXPECT_EQ(delta.downed.size(),
            2 * net.out_channels_all(sw).size());
  EXPECT_EQ(delta.downed.size(), net.num_dead_channels());
  for (NodeId t : net.terminals()) {
    EXPECT_EQ(net.terminal_alive(t), net.switch_of(t) != sw);
  }

  // Re-killing a dead switch is a no-op, not a new delta.
  const ChurnDelta again = churn.apply(down);
  EXPECT_FALSE(again.applied);
  EXPECT_TRUE(again.no_effect());

  // Revival restores exactly what died.
  FaultEvent up{FaultKind::kSwitchUp, kInvalidChannel, sw};
  const ChurnDelta revive = churn.apply(up);
  ASSERT_TRUE(revive.applied);
  EXPECT_EQ(revive.restored, delta.downed);
  EXPECT_EQ(net.num_dead_channels(), 0u);
}

TEST(IncrementalDfsssp, SingleLinkRepairReroutesOnlyAffected) {
  Topology topo = make_kary_ntree(4, 2);
  IncrementalDfsssp inc;
  RouteResponse base = inc.route(RouteRequest(topo));
  ASSERT_TRUE(base.ok) << base.error;
  EXPECT_FALSE(base.repair.incremental);

  ChurnEngine churn(topo);
  const FaultSchedule kills = FaultSchedule::link_kills(topo.net, 1, 3);
  ASSERT_EQ(kills.size(), 1u);
  const ChurnDelta delta = churn.apply(kills[0]);
  ASSERT_TRUE(delta.applied);

  RouteResponse repaired = inc.repair(RouteRequest(topo), delta);
  ASSERT_TRUE(repaired.ok) << repaired.error;
  EXPECT_TRUE(repaired.repair.incremental);
  EXPECT_GT(repaired.repair.destinations_rerouted, 0u);
  // Only destinations whose forwarding trees crossed the dead link move.
  EXPECT_LT(repaired.repair.destinations_rerouted,
            topo.net.num_terminals());
  expect_reachable(topo.net, repaired.table);

  const CertCheckResult check =
      check_certificate(topo.net, repaired.table, inc.certificate());
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(IncrementalDfsssp, MonotoneKillsStayMinimalAndCertified) {
  Topology topo = make_kary_ntree(4, 3);
  IncrementalDfsssp inc;
  ASSERT_TRUE(inc.route(RouteRequest(topo)).ok);
  ChurnEngine churn(topo);
  const FaultSchedule kills = FaultSchedule::link_kills(topo.net, 10, 11);
  ASSERT_GT(kills.size(), 0u);
  for (const FaultEvent& ev : kills) {
    const ChurnDelta delta = churn.apply(ev);
    if (!delta.applied) continue;
    RouteResponse out = inc.repair(RouteRequest(topo), delta);
    ASSERT_TRUE(out.ok) << out.error;
    // With no restorations in the history, repaired routings keep the
    // balanced-SSSP minimality guarantee: the accumulated balance weight on
    // any channel stays below the |V|^2 initial weight.
    const VerifyReport report = verify_routing(topo.net, out.table);
    EXPECT_TRUE(report.connected());
    EXPECT_TRUE(report.minimal());
    const CertCheckResult check =
        check_certificate(topo.net, out.table, inc.certificate());
    ASSERT_TRUE(check.ok) << check.error;
  }
}

TEST(IncrementalDfsssp, RepairProvenance) {
  Topology topo = make_kary_ntree(4, 2);
  IncrementalDfsssp inc;
  ASSERT_TRUE(inc.route(RouteRequest(topo)).ok);
  ChurnEngine churn(topo);
  Network& net = topo.net;

  const FaultSchedule kills = FaultSchedule::link_kills(net, 1, 5);
  const ChurnDelta down = churn.apply(kills[0]);
  ASSERT_TRUE(down.applied);
  RouteResponse repaired = inc.repair(RouteRequest(topo), down);
  ASSERT_TRUE(repaired.ok);
  EXPECT_TRUE(repaired.repair.incremental);
  EXPECT_TRUE(repaired.repair.fallback_reason.empty());
  EXPECT_GT(repaired.repair.paths_migrated, 0u);

  // Restoring a link keeps every existing route valid: a no-op repair.
  FaultEvent up{FaultKind::kLinkUp, kills[0].channel, kInvalidNode};
  const ChurnDelta restored = churn.apply(up);
  ASSERT_TRUE(restored.applied);
  RouteResponse noop = inc.repair(RouteRequest(topo), restored);
  ASSERT_TRUE(noop.ok);
  EXPECT_TRUE(noop.repair.incremental);
  EXPECT_EQ(noop.repair.destinations_rerouted, 0u);

  // A revived switch needs entries for every destination: full recompute.
  const NodeId sw = net.switch_by_index(1);
  ASSERT_TRUE(churn.apply({FaultKind::kSwitchDown, kInvalidChannel, sw})
                  .applied);
  RouteResponse after_down = inc.repair(
      RouteRequest(topo),
      ChurnDelta{});  // deliberately stale delta: still safe, no-op
  ASSERT_TRUE(after_down.ok);
  const ChurnDelta revive =
      churn.apply({FaultKind::kSwitchUp, kInvalidChannel, sw});
  ASSERT_TRUE(revive.applied);
  RouteResponse full = inc.repair(RouteRequest(topo), revive);
  ASSERT_TRUE(full.ok);
  EXPECT_FALSE(full.repair.incremental);
  EXPECT_EQ(full.repair.fallback_reason, "switch revived");
  expect_reachable(net, full.table);
}

// A failed route must not leave the engine bound to its half-built state:
// the next repair, even one whose coalesced delta has no effect, is a full
// recompute.
TEST(IncrementalDfsssp, FailedRouteUnbindsTheEngine) {
  Topology topo = make_deimos();
  IncrementalDfsssp inc;
  ASSERT_TRUE(inc.route(RouteRequest(topo)).ok);
  const RouteResponse failed = inc.route(RouteRequest(topo, Layer{1}));
  ASSERT_FALSE(failed.ok);  // Deimos needs two layers
  EXPECT_TRUE(inc.certificate().empty());

  ChurnEngine churn(topo);
  const ChannelId link = FaultSchedule::link_kills(topo.net, 1, 3)[0].channel;
  const FaultEvent flap[] = {{FaultKind::kLinkDown, link, kInvalidNode},
                             {FaultKind::kLinkUp, link, kInvalidNode}};
  const ChurnDelta delta =
      churn.apply_all(std::span<const FaultEvent>(flap, 2));
  ASSERT_TRUE(delta.no_effect());

  const RouteResponse out = inc.repair(RouteRequest(topo), delta);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_FALSE(out.repair.incremental);
  EXPECT_EQ(out.repair.fallback_reason,
            "repair without a matching prior route");
  expect_reachable(topo.net, out.table);
  const CertCheckResult check =
      check_certificate(topo.net, out.table, inc.certificate());
  EXPECT_TRUE(check.ok) << check.error;
}

// The from-scratch route and DFSSSP's online mode share the SSSP kernel
// and first-fit in the same order (source-major), so the daemon serves the
// routing DFSSSP(online) reports: the same next hop and layer for every
// (switch, terminal), and the same layer count. The Figure 9 fabrics are
// bench_fig9's seed 0 at 200 links and the perf workloads' seed-1 fabric at
// 140 links, which needs 3 layers source-major and 4 destination-major.
TEST(IncrementalDfsssp, RouteMatchesDfssspOnlineNextHops) {
  Rng fig9(0xF169'0000ULL + 200);
  Rng perf_seed1(0x87074D17124E87CEULL);
  for (const Topology& topo :
       {make_deimos(), make_tsubame(), make_random(128, 16, 200, 16, fig9),
        make_random(128, 16, 140, 16, perf_seed1)}) {
    SCOPED_TRACE(topo.name);
    const RouteResponse online =
        DfssspRouter(DfssspOptions{.max_layers = 16,
                                   .balance = false,
                                   .mode = LayeringMode::kOnline})
            .route(RouteRequest(topo));
    ASSERT_TRUE(online.ok) << online.error;
    IncrementalDfsssp inc(IncrementalOptions{.max_layers = 16});
    const RouteResponse incremental = inc.route(RouteRequest(topo));
    ASSERT_TRUE(incremental.ok) << incremental.error;
    EXPECT_EQ(incremental.stats.layers_used, online.stats.layers_used);
    EXPECT_EQ(incremental.table.num_layers(), online.table.num_layers());
    std::uint64_t hop_differences = 0, layer_differences = 0;
    for (NodeId sw : topo.net.switches()) {
      for (NodeId d : topo.net.terminals()) {
        hop_differences +=
            online.table.next(sw, d) != incremental.table.next(sw, d);
        layer_differences +=
            online.table.layer(sw, d) != incremental.table.layer(sw, d);
      }
    }
    EXPECT_EQ(hop_differences, 0u);
    EXPECT_EQ(layer_differences, 0u);
  }
}

// Every engine on the SSSP kernel tallies its Dijkstra work, and the
// incremental engine counts its Dijkstra too: one pop per (destination,
// switch) on Deimos.
TEST(IncrementalDfsssp, SsspCountersTallyEveryPop) {
  const Topology topo = make_deimos();
  const std::uint64_t pops =
      topo.net.num_terminals() * topo.net.num_switches();
  EXPECT_EQ(pops, 65160u);
  const auto route = [&](auto&& engine) {
    const obs::Snapshot before = obs::registry().snapshot();
    ASSERT_TRUE(engine.route(RouteRequest(topo)).ok);
    const obs::Snapshot delta =
        obs::snapshot_delta(obs::registry().snapshot(), before);
    EXPECT_EQ(delta.at("sssp/heap_pops").value, pops);
    EXPECT_EQ(delta.at("sssp/dijkstra_passes").value,
              topo.net.num_terminals());
  };
  route(SsspRouter());
  route(DfssspRouter(DfssspOptions{.mode = LayeringMode::kOnline}));
  route(IncrementalDfsssp());
}

// Satellite: Network mutation keeps the metrics and RoutingStats.paths
// consistent — counters reflect the alive state, never stale entries.
// Runs on a fat tree and on a torus: the fat tree's repairs re-insert
// paths without a reorder, while the torus's CDG has cycles, so its
// repairs search and reject in the persistent layer CDGs.
TEST(IncrementalDfsssp, StatsAndMetricsStayConsistentUnderMutation) {
  const std::uint32_t dims[] = {4, 4};
  struct Case {
    Topology topo;
    bool repairs_search;
  };
  for (Case c : {Case{make_kary_ntree(4, 2), false},
                 Case{make_torus(dims, 2, true), true}}) {
    SCOPED_TRACE(c.topo.name);
    Topology& topo = c.topo;
    Network& net = topo.net;
    RouteRequest request(topo);
    // Counters read this case's delta; gauges keep their latest reading.
    const obs::Snapshot before = obs::registry().snapshot();
    const auto metrics = [&] {
      return obs::snapshot_delta(obs::registry().snapshot(), before);
    };

    IncrementalDfsssp inc;
    RouteResponse base = inc.route(request);
    ASSERT_TRUE(base.ok);
    const auto expect_consistent = [&](const RouteResponse& out) {
      const std::uint64_t alive_sw = net.num_alive_switches();
      const std::uint64_t expected =
          alive_terminals(net) * (alive_sw - 1);
      EXPECT_EQ(out.stats.paths, expected);
      const obs::Snapshot snap = metrics();
      EXPECT_EQ(snap.at("fault/active_paths").value, expected);
      EXPECT_EQ(snap.at("fault/dead_channels").value, net.num_dead_channels());
      EXPECT_EQ(snap.at("fault/layers_used").value, out.stats.layers_used);
      // No stale columns: dead destinations have no forwarding entries.
      for (NodeId d : net.terminals()) {
        if (net.terminal_alive(d)) continue;
        for (NodeId sw : net.switches()) {
          EXPECT_EQ(out.table.next(sw, d), kInvalidChannel);
        }
      }
    };
    expect_consistent(base);
    // The layer CDGs persist across repairs, so each call must flush its own
    // search work, not the CDGs' running totals: a repair re-routes a few
    // destinations and so searches less than the full route did.
    const auto counter = [&](const char* name) {
      return metrics().at(name).value;
    };
    std::uint64_t visits = counter("cdg/pk_search_visits");
    std::uint64_t rejects = counter("cdg/pk_cycle_rejects");
    std::uint64_t checks = counter("fault/acyclicity_checks");
    const std::uint64_t route_visits = visits;
    const std::uint64_t route_rejects = rejects;
    ASSERT_GT(route_visits, 0u);
    const auto expect_own_search_work = [&] {
      const std::uint64_t call_visits =
          counter("cdg/pk_search_visits") - visits;
      const std::uint64_t call_rejects =
          counter("cdg/pk_cycle_rejects") - rejects;
      const std::uint64_t call_checks =
          counter("fault/acyclicity_checks") - checks;
      EXPECT_LT(call_visits, route_visits);
      EXPECT_LE(call_rejects, call_checks);  // at most one per failed check
      if (c.repairs_search) {
        EXPECT_GT(call_visits, 0u);
        EXPECT_GT(call_rejects, 0u);
        EXPECT_LT(call_rejects, route_rejects);
      }
      visits += call_visits;
      rejects += call_rejects;
      checks += call_checks;
    };

    ChurnEngine churn(topo);
    // Kill a switch: its terminals must drop out of every counter.
    NodeId victim = kInvalidNode;
    ChurnDelta delta;
    for (NodeId sw : net.switches()) {
      delta = churn.apply({FaultKind::kSwitchDown, kInvalidChannel, sw});
      if (delta.applied) {
        victim = sw;
        break;
      }
    }
    ASSERT_NE(victim, kInvalidNode) << "no switch could die without partition";
    RouteResponse repaired = inc.repair(request, delta);
    ASSERT_TRUE(repaired.ok) << repaired.error;
    expect_consistent(repaired);
    EXPECT_EQ(metrics().at("fault/repairs").value, 1u);
    ASSERT_TRUE(repaired.repair.incremental);
    expect_own_search_work();

    // And a link kill on the degraded fabric.
    const FaultSchedule kills = FaultSchedule::link_kills(net, 1, 17);
    ASSERT_EQ(kills.size(), 1u);
    const ChurnDelta link_delta = churn.apply(kills[0]);
    ASSERT_TRUE(link_delta.applied);
    RouteResponse again = inc.repair(request, link_delta);
    ASSERT_TRUE(again.ok) << again.error;
    expect_consistent(again);
    EXPECT_EQ(metrics().at("fault/repairs").value, 2u);
    ASSERT_TRUE(again.repair.incremental);
    expect_own_search_work();
    EXPECT_GT(metrics().at("fault/destinations_rerouted").value, 0u);
  }
}

// Satellite: the randomized churn soak. Every repair state must be
// reachable for alive pairs, certified deadlock-free by the independent
// checker, and bitwise identical across --threads=1/2/8.
TEST(ChurnEngine, ApplyAllCoalescesDownUpToNoEffect) {
  Topology topo = make_kary_ntree(4, 2);
  Network& net = topo.net;
  ChurnEngine churn(topo);

  const ChannelId link = FaultSchedule::link_kills(net, 1, 3)[0].channel;
  const NodeId sw = net.switch_by_index(1);
  const FaultEvent batch[] = {
      {FaultKind::kLinkDown, link, kInvalidNode},
      {FaultKind::kSwitchDown, kInvalidChannel, sw},
      {FaultKind::kLinkUp, link, kInvalidNode},
      {FaultKind::kSwitchUp, kInvalidChannel, sw},
  };
  const ChurnDelta delta =
      churn.apply_all(std::span<const FaultEvent>(batch, 4));

  // Down-then-up within one batch nets out to nothing: the coalesced delta
  // is empty, the fabric is untouched, yet each event had its individual
  // effect counted (exactly like a serial apply() loop would).
  EXPECT_TRUE(delta.no_effect());
  EXPECT_FALSE(delta.applied);
  EXPECT_TRUE(delta.veto_reason.empty());
  EXPECT_EQ(net.num_dead_channels(), 0u);
  EXPECT_TRUE(net.channel_alive(link));
  EXPECT_TRUE(net.switch_up(sw));
  EXPECT_EQ(churn.events_applied(), 4u);
  EXPECT_EQ(churn.events_vetoed(), 0u);
}

TEST(ChurnEngine, ApplyAllMatchesSerialApply) {
  Topology serial_topo = make_kary_ntree(4, 2);
  Topology batched_topo = serial_topo;

  FaultScheduleOptions opts;
  opts.num_events = 30;
  const FaultSchedule schedule =
      FaultSchedule::random(serial_topo.net, opts, 0xAB5E);
  ASSERT_GT(schedule.size(), 0u);

  ChurnEngine serial(serial_topo);
  ChurnEngine batched(batched_topo);
  const std::size_t batch = 5;
  for (std::size_t i = 0; i < schedule.size(); i += batch) {
    const std::size_t count = std::min(batch, schedule.size() - i);
    for (std::size_t j = 0; j < count; ++j) serial.apply(schedule[i + j]);
    batched.apply_all(std::span<const FaultEvent>(
        schedule.events().data() + i, count));
    // Both engines hold the one admission rule, so every batch boundary
    // leaves an alive switch and the alive switches connected.
    EXPECT_TRUE(admissible(serial_topo.net)) << "batch at " << i;
    EXPECT_TRUE(admissible(batched_topo.net)) << "batch at " << i;
  }

  // Identical fault history, identical fabric — batching only coalesces
  // the reporting, never the physics.
  EXPECT_EQ(batched.events_applied(), serial.events_applied());
  EXPECT_EQ(batched.events_vetoed(), serial.events_vetoed());
  const Network& a = serial_topo.net;
  const Network& b = batched_topo.net;
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (ChannelId c = 0; c < a.num_channels(); ++c) {
    ASSERT_EQ(a.channel_alive(c), b.channel_alive(c)) << "channel " << c;
  }
  for (NodeId sw : a.switches()) {
    ASSERT_EQ(a.switch_up(sw), b.switch_up(sw)) << "switch " << sw;
  }
}

TEST(ChurnEngine, ApplyAllVetoRollsBackAndReplaysPerEvent) {
  // A 4-switch cycle a-b-c-d-a: any single link kill keeps the ring
  // connected, but killing two opposite links partitions it.
  Topology topo;
  Network& net = topo.net;
  NodeId a = net.add_switch(), b = net.add_switch(), c = net.add_switch(),
         d = net.add_switch();
  const ChannelId ab = net.add_link(a, b);
  net.add_link(b, c);
  const ChannelId cd = net.add_link(c, d);
  net.add_link(d, a);
  net.add_terminal(a);
  net.add_terminal(c);
  net.freeze();

  ChurnEngine churn(topo);
  const FaultEvent batch[] = {
      {FaultKind::kLinkDown, ab, kInvalidNode},
      {FaultKind::kLinkDown, cd, kInvalidNode},
  };
  const ChurnDelta delta =
      churn.apply_all(std::span<const FaultEvent>(batch, 2));

  // Each event is judged on the state right after it: the first kill
  // keeps the ring connected, the second (now a bridge kill) is vetoed —
  // exactly what a serial apply() loop would do.
  EXPECT_TRUE(delta.applied);
  EXPECT_FALSE(delta.veto_reason.empty());
  EXPECT_FALSE(net.channel_alive(ab));
  EXPECT_TRUE(net.channel_alive(cd));
  EXPECT_TRUE(net.alive_connected());
  EXPECT_EQ(churn.events_applied(), 1u);
  EXPECT_EQ(churn.events_vetoed(), 1u);

  // The coalesced delta lists exactly the one downed link, both directions.
  ASSERT_EQ(delta.downed.size(), 2u);
  EXPECT_TRUE(delta.restored.empty());
  EXPECT_TRUE(delta.switches_down.empty());
}

// A switch whose links all went down while it was dead would rejoin the
// fabric isolated: a partition no engine routes across. The revival is
// vetoed like any other inadmissible event, and the repair succeeds.
TEST(ChurnEngine, VetoesIsolatedSwitchRevival) {
  Topology topo = make_kary_ntree(4, 2);
  Network& net = topo.net;
  IncrementalDfsssp inc;
  ASSERT_TRUE(inc.route(RouteRequest(topo)).ok);
  ChurnEngine churn(topo);

  const NodeId sw = net.switch_by_index(0);
  std::vector<FaultEvent> down{{FaultKind::kSwitchDown, kInvalidChannel, sw}};
  for (ChannelId c : net.out_channels_all(sw)) {
    if (net.is_switch_channel(c)) {
      down.push_back({FaultKind::kLinkDown, c, kInvalidNode});
    }
  }
  const ChurnDelta isolated = churn.apply_all(down);
  ASSERT_TRUE(isolated.applied);
  ASSERT_TRUE(inc.repair(RouteRequest(topo), isolated).ok);

  const ChurnDelta revive =
      churn.apply({FaultKind::kSwitchUp, kInvalidChannel, sw});
  EXPECT_FALSE(revive.applied);
  EXPECT_FALSE(revive.veto_reason.empty());
  EXPECT_TRUE(revive.no_effect());
  EXPECT_FALSE(net.switch_up(sw));
  EXPECT_TRUE(admissible(net));
  EXPECT_EQ(churn.events_vetoed(), 1u);

  const RouteResponse out = inc.repair(RouteRequest(topo), revive);
  ASSERT_TRUE(out.ok) << out.error;
  expect_reachable(net, out.table);
}

TEST(ChurnEngine, VetoesTheLastAliveSwitch) {
  Topology topo;
  Network& net = topo.net;
  const NodeId a = net.add_switch(), b = net.add_switch();
  net.add_link(a, b);
  net.add_terminal(a);
  net.add_terminal(b);
  net.freeze();
  ChurnEngine churn(topo);

  // In one batch: b goes down, then taking a down would leave no switch
  // alive, so that event alone is vetoed.
  const FaultEvent batch[] = {{FaultKind::kSwitchDown, kInvalidChannel, b},
                              {FaultKind::kSwitchDown, kInvalidChannel, a}};
  const ChurnDelta delta =
      churn.apply_all(std::span<const FaultEvent>(batch, 2));
  EXPECT_TRUE(delta.applied);
  EXPECT_FALSE(delta.veto_reason.empty());
  EXPECT_EQ(delta.switches_down, std::vector<NodeId>{b});
  EXPECT_TRUE(net.switch_up(a));
  EXPECT_FALSE(net.switch_up(b));

  // One at a time: the last alive switch stays up.
  const ChurnDelta last =
      churn.apply({FaultKind::kSwitchDown, kInvalidChannel, a});
  EXPECT_FALSE(last.applied);
  EXPECT_FALSE(last.veto_reason.empty());
  EXPECT_TRUE(net.switch_up(a));
  EXPECT_EQ(net.num_alive_switches(), 1u);
  EXPECT_EQ(churn.events_applied(), 1u);
  EXPECT_EQ(churn.events_vetoed(), 2u);
}

// Raw random events, not drawn by a schedule, so many are inadmissible:
// isolating kills, revivals of isolated switches, the last switch going
// down. After every call the fabric is admissible and a call whose every
// event was vetoed left every link and switch flag as it found it; the
// engine fed one event per call ends where the engine fed batches of 4
// ends.
TEST(ChurnEngine, VetoLeavesTheFabricUntouched) {
  const Topology pristine = make_kary_ntree(4, 2);
  const Network& pnet = pristine.net;
  std::vector<ChannelId> links;
  for (ChannelId c = 0; c < pnet.num_channels(); ++c) {
    if (pnet.is_switch_channel(c) && c < pnet.channel(c).reverse) {
      links.push_back(c);
    }
  }
  const auto flags = [&](const Network& net) {
    std::vector<bool> f;
    for (ChannelId c : links) f.push_back(net.link_up(c));
    for (NodeId sw : net.switches()) f.push_back(net.switch_up(sw));
    return f;
  };
  const auto apply = [&](ChurnEngine& churn, const Network& net,
                         std::span<const FaultEvent> events) {
    const std::vector<bool> before = flags(net);
    const std::uint64_t vetoed = churn.events_vetoed();
    churn.apply_all(events);
    EXPECT_TRUE(admissible(net));
    if (churn.events_vetoed() - vetoed == events.size()) {
      EXPECT_EQ(flags(net), before);
    }
  };

  std::uint64_t vetoes = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<FaultEvent> events(300);
    for (FaultEvent& e : events) {
      e.kind = static_cast<FaultKind>(rng.next_below(4));
      if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
        e.channel = links[rng.next_below(links.size())];
      } else {
        e.sw = pnet.switch_by_index(
            static_cast<std::uint32_t>(rng.next_below(pnet.num_switches())));
      }
    }
    Topology serial_topo = pristine;
    Topology batched_topo = pristine;
    ChurnEngine serial(serial_topo);
    ChurnEngine batched(batched_topo);
    for (std::size_t i = 0; i < events.size(); i += 4) {
      for (std::size_t j = i; j < i + 4; ++j) {
        apply(serial, serial_topo.net, {&events[j], 1});
      }
      apply(batched, batched_topo.net, {&events[i], 4});
      ASSERT_EQ(flags(serial_topo.net), flags(batched_topo.net))
          << "events " << i << ".." << i + 3;
    }
    EXPECT_EQ(batched.events_applied(), serial.events_applied());
    EXPECT_EQ(batched.events_vetoed(), serial.events_vetoed());
    vetoes += serial.events_vetoed();
  }
  EXPECT_GT(vetoes, 0u);
}

TEST(ChurnSoak, RepairStatesReachableCertifiedAndThreadInvariant) {
  FaultScheduleOptions opts;
  opts.num_events = 40;
  const FaultSchedule schedule = [&] {
    const Topology pristine = make_kary_ntree(4, 3);
    return FaultSchedule::random(pristine.net, opts, 0x50AC);
  }();
  ASSERT_GT(schedule.size(), 0u);

  // One full soak per thread count, on an independent Topology copy; the
  // per-event forwarding dumps and certificates must agree bitwise.
  std::vector<std::string> reference;  // dump+cert per event, threads=1
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    const ExecContext exec(threads);
    Topology topo = make_kary_ntree(4, 3);
    ChurnEngine churn(topo);
    IncrementalDfsssp inc;
    RouteResponse out = inc.route(RouteRequest(topo, exec));
    ASSERT_TRUE(out.ok) << out.error;

    std::size_t event_index = 0;
    for (const FaultEvent& ev : schedule) {
      const ChurnDelta delta = churn.apply(ev);
      out = inc.repair(RouteRequest(topo, exec), delta);
      ASSERT_TRUE(out.ok) << ev.describe(topo.net) << ": " << out.error;
      if (delta.applied) {
        expect_reachable(topo.net, out.table);
        const CertCheckResult check =
            check_certificate(topo.net, out.table, inc.certificate());
        ASSERT_TRUE(check.ok)
            << ev.describe(topo.net) << ": " << check.error;
      }

      std::ostringstream state;
      write_forwarding_dump(topo.net, out.table, state);
      write_certificate(topo.net, inc.certificate(), state);
      if (threads == 1) {
        reference.push_back(state.str());
      } else {
        ASSERT_EQ(state.str(), reference[event_index])
            << "state diverged at threads=" << threads << " event "
            << event_index << " (" << ev.describe(topo.net) << ")";
      }
      ++event_index;
    }
  }
}

}  // namespace
}  // namespace dfsssp
