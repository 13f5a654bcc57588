// Quickstart: build a topology, route it deadlock-free with DFSSSP, and
// measure the effective bisection bandwidth.
//
//   ./quickstart [--topo=random:12:4:30:16:1]
//
// --topo takes any topology spec; the default is a random fabric of 12
// switches with 4 terminals each, 30 links, 16 ports per switch, seed 1.
//
// Walks through the library's core loop:
//   topology -> Router::route -> verify -> simulate.
#include <cstdio>

#include "common/cli.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/minhop.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"

using namespace dfsssp;

int main(int argc, char** argv) {
  Cli cli(argc, argv);

  // 1. An irregular network - the case the paper targets: no specialized
  //    engine (fat-tree, DOR) can route it, but DFSSSP can.
  Topology topo;
  try {
    topo = build_topology_config(cli.get("topo", "random:12:4:30:16:1"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }
  std::printf("topology %s: %zu switches, %zu terminals, %zu channels\n",
              topo.name.c_str(), topo.net.num_switches(),
              topo.net.num_terminals(), topo.net.num_channels());

  // 2. Route it with DFSSSP (globally balanced minimal paths + virtual
  //    layers for deadlock freedom) and MinHop as the baseline.
  DfssspRouter dfsssp;
  MinHopRouter minhop;
  RouteResponse df = dfsssp.route(RouteRequest(topo));
  RouteResponse mh = minhop.route(RouteRequest(topo));
  if (!df.ok || !mh.ok) {
    std::printf("routing failed: %s%s\n", df.error.c_str(), mh.error.c_str());
    return 1;
  }
  std::printf("DFSSSP: %llu paths in %.3f ms, %u virtual layers, %llu cycles broken\n",
              static_cast<unsigned long long>(df.stats.paths),
              df.stats.total_seconds() * 1e3, unsigned(df.stats.layers_used),
              static_cast<unsigned long long>(df.stats.cycles_broken));

  // 3. Verify what the paper promises: connected, minimal, deadlock-free.
  VerifyReport report = verify_routing(topo.net, df.table);
  std::printf("verify: connected=%s minimal=%s deadlock-free=%s\n",
              report.connected() ? "yes" : "no",
              report.minimal() ? "yes" : "no",
              routing_is_deadlock_free(topo.net, df.table) ? "yes" : "no");
  std::printf("MinHop deadlock-free=%s (no layering - cycles are expected)\n",
              routing_is_deadlock_free(topo.net, mh.table) ? "yes" : "no");

  // 4. Effective bisection bandwidth, the paper's headline metric.
  RankMap map = RankMap::round_robin(
      topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
  Rng pat(42);
  EbbResult df_ebb = effective_bisection_bandwidth(topo.net, df.table, map, 200, pat);
  Rng pat2(42);
  EbbResult mh_ebb = effective_bisection_bandwidth(topo.net, mh.table, map, 200, pat2);
  std::printf("effective bisection bandwidth: DFSSSP %.3f vs MinHop %.3f (%.1f%%)\n",
              df_ebb.ebb, mh_ebb.ebb, 100.0 * (df_ebb.ebb / mh_ebb.ebb - 1.0));
  return 0;
}
