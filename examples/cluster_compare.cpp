// Compare the full engine roster on one fabric — the Section V/VI story in
// one binary.
//
//   ./cluster_compare [--topo=deimos] [--patterns=100] [--ranks=0]
//
// --topo takes any topology spec (odin, chic, deimos, tsubame, juropa,
// ranger, a family spec or a file); --ranks 0..2^20, 0 = one per terminal.
//
// Prints routing runtime, virtual lanes, minimality, and effective
// bisection bandwidth per engine (missing rows = the engine refused the
// topology, exactly like Figure 4's missing bars).
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "routing/collect.hpp"
#include "routing/router.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"

using namespace dfsssp;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::uint32_t patterns = cli.get_count("patterns", 100);
  auto ranks =
      static_cast<std::uint32_t>(cli.get_count("ranks", 0, 1U << 20, 0));

  Topology topo;
  try {
    topo = build_topology_config(cli.get("topo", "deimos"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cluster_compare: %s\n", e.what());
    return 2;
  }
  if (ranks == 0) ranks = static_cast<std::uint32_t>(topo.net.num_terminals());
  std::printf("%s: %zu switches, %zu terminals; %u ranks, %u patterns\n",
              topo.name.c_str(), topo.net.num_switches(),
              topo.net.num_terminals(), ranks, patterns);

  Table table("Routing comparison on " + topo.name,
              {"engine", "route_ms", "layering_ms", "VLs", "minimal",
               "deadlock-free", "eBB"});
  RankMap map = RankMap::round_robin(topo.net, ranks);
  for (const auto& router : make_all_routers()) {
    RouteResponse out = router->route(RouteRequest(topo));
    if (!out.ok) {
      table.row().cell(router->name()).cell("-").cell("-").cell("-")
          .cell("-").cell("-").cell("failed: " + out.error);
      continue;
    }
    VerifyReport report = verify_routing(topo.net, out.table);
    Rng rng(4711);  // identical pattern stream per engine
    EbbResult ebb =
        effective_bisection_bandwidth(topo.net, out.table, map, patterns, rng);
    table.row()
        .cell(router->name())
        .cell(out.stats.route_seconds * 1e3, 1)
        .cell(out.stats.layering_seconds * 1e3, 1)
        .cell(static_cast<std::uint64_t>(out.stats.layers_used))
        .cell(report.minimal() ? "yes" : "no")
        .cell(routing_is_deadlock_free(topo.net, out.table) ? "yes" : "no")
        .cell(ebb.ebb, 4);
  }
  table.print();
  return 0;
}
