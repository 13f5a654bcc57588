// Swiss-army CLI around the library: generate or load a topology, route it
// with any engine, print statistics, and export DOT/netfile renderings.
//
//   ./topology_explorer --topo=torus:4x4:2 --router=DFSSSP --dot=out.dot
//     --netfile=out.net
//   ./topology_explorer --topo=my.net --router=LASH
//
// --topo takes any topology spec (build_topology_config): a registered
// config, a family spec, or a netfile, ibnetdiscover or DFEL file. The
// default is random:16:2:40:16:1.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cdg/report.hpp"
#include "common/cli.hpp"
#include "routing/collect.hpp"
#include "routing/dump.hpp"
#include "routing/router.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

using namespace dfsssp;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: topology_explorer [--topo=SPEC]\n"
        "  [--router=MinHop|Up*/Down*|FatTree|DOR|LASH|SSSP|DFSSSP|all]\n"
        "  [--dot=FILE] [--netfile=FILE] [--patterns=N] [--metrics]\n"
        "  [--save-dump=FILE] [--load-dump=FILE] [--cdg-dot=FILE]\n");
    return 0;
  }
  Topology topo;
  try {
    topo = build_topology_config(cli.get("topo", "random:16:2:40:16:1"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topology_explorer: %s\n", e.what());
    return 2;
  }
  std::printf("%s: %zu switches, %zu terminals, %zu directed channels\n",
              topo.name.c_str(), topo.net.num_switches(),
              topo.net.num_terminals(), topo.net.num_channels());

  if (cli.has("dot")) {
    std::ofstream out(cli.get("dot", ""));
    write_dot(topo.net, out);
    std::printf("wrote DOT to %s\n", cli.get("dot", "").c_str());
  }
  if (cli.has("netfile")) {
    write_netfile(topo.net, cli.get("netfile", ""));
    std::printf("wrote netfile to %s\n", cli.get("netfile", "").c_str());
  }
  if (cli.get_bool("metrics", false)) {
    NetworkMetrics m = compute_metrics(topo.net);
    Rng mrng(1);
    std::printf(
        "metrics: diameter=%u avg_path=%.3f degree=%u..%u (avg %.2f) "
        "links=%llu bisection~%llu links (ceiling eBB ~%.3f)\n",
        m.diameter, m.avg_path_length, m.min_degree, m.max_degree,
        m.avg_degree, static_cast<unsigned long long>(m.num_links),
        static_cast<unsigned long long>(estimate_bisection_width(topo.net, mrng)),
        bisection_bandwidth_ceiling(topo.net, mrng));
  }

  if (cli.has("load-dump")) {
    try {
      RoutingTable loaded =
          read_forwarding_dump_path(topo.net, cli.get("load-dump", ""));
      VerifyReport report = verify_routing(topo.net, loaded);
      std::printf("loaded dump: connected=%s minimal=%s deadlock-free=%s\n",
                  report.connected() ? "yes" : "no",
                  report.minimal() ? "yes" : "no",
                  routing_is_deadlock_free(topo.net, loaded) ? "yes" : "no");
    } catch (const std::exception& e) {
      std::printf("cannot load dump: %s\n", e.what());
      return 1;
    }
  }

  const std::string engine = cli.get("router", "DFSSSP");
  const std::uint32_t patterns = cli.get_count("patterns", 100);
  RankMap map = RankMap::round_robin(
      topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
  for (const auto& router : make_all_routers()) {
    if (engine != "all" && router->name() != engine) continue;
    RouteResponse out = router->route(RouteRequest(topo));
    if (!out.ok) {
      std::printf("%-10s failed: %s\n", router->name().c_str(),
                  out.error.c_str());
      continue;
    }
    VerifyReport report = verify_routing(topo.net, out.table);
    Rng rng(4711);
    EbbResult ebb =
        effective_bisection_bandwidth(topo.net, out.table, map, patterns, rng);
    std::printf(
        "%-10s routed %llu paths in %.2f ms | VLs=%u minimal=%s dlfree=%s "
        "eBB=%.4f\n",
        router->name().c_str(), static_cast<unsigned long long>(out.stats.paths),
        out.stats.total_seconds() * 1e3, unsigned(out.stats.layers_used),
        report.minimal() ? "yes" : "no",
        routing_is_deadlock_free(topo.net, out.table) ? "yes" : "no", ebb.ebb);

    if (cli.has("save-dump")) {
      write_forwarding_dump(topo.net, out.table, cli.get("save-dump", ""));
      std::printf("wrote forwarding dump to %s\n",
                  cli.get("save-dump", "").c_str());
    }
    if (cli.has("cdg-dot")) {
      PathSet paths = collect_paths(topo.net, out.table);
      std::vector<Layer> layers = collect_layers(topo.net, out.table, paths);
      std::ofstream cdg_out(cli.get("cdg-dot", ""));
      write_cdg_dot(topo.net, paths, layers, 0, cdg_out);
      std::printf("wrote layer-0 CDG DOT to %s\n",
                  cli.get("cdg-dot", "").c_str());
    }
  }
  return 0;
}
