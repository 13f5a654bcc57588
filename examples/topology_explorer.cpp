// Swiss-army CLI around the library: generate or load a topology, route it
// with any engine, print statistics, and export DOT/netfile renderings.
//
//   ./topology_explorer --family=torus --dims=4x4 --terminals=2
//     --router=DFSSSP --dot=out.dot --netfile=out.net
//   ./topology_explorer --load=my.net --router=LASH
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdg/report.hpp"
#include "common/cli.hpp"
#include "routing/collect.hpp"
#include "routing/dump.hpp"
#include "routing/router.hpp"
#include "routing/verify.hpp"
#include "sim/congestion.hpp"
#include "topology/generators.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

using namespace dfsssp;

namespace {

std::vector<std::uint32_t> parse_dims(const std::string& spec) {
  std::vector<std::uint32_t> dims;
  std::stringstream ss(spec);
  std::string part;
  while (std::getline(ss, part, 'x')) {
    dims.push_back(static_cast<std::uint32_t>(std::stoul(part)));
  }
  return dims;
}

Topology build(const Cli& cli) {
  if (cli.has("load")) return read_netfile_path(cli.get("load", ""));
  if (cli.has("load-ib")) return read_ibnetdiscover_path(cli.get("load-ib", ""));
  const std::string family = cli.get("family", "random");
  const std::uint32_t terminals =
      static_cast<std::uint32_t>(cli.get_int("terminals", 2));
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  if (family == "ring") {
    return make_ring(static_cast<std::uint32_t>(cli.get_int("switches", 8)),
                     terminals);
  }
  if (family == "torus" || family == "mesh") {
    auto dims = parse_dims(cli.get("dims", "4x4"));
    return make_torus(dims, terminals, family == "torus");
  }
  if (family == "hypercube") {
    return make_hypercube(static_cast<std::uint32_t>(cli.get_int("dim", 4)),
                          terminals);
  }
  if (family == "tree") {
    return make_kary_ntree(static_cast<std::uint32_t>(cli.get_int("k", 4)),
                           static_cast<std::uint32_t>(cli.get_int("n", 2)));
  }
  if (family == "xgft") {
    auto ms = parse_dims(cli.get("ms", "4x4"));
    auto ws = parse_dims(cli.get("ws", "2x2"));
    return make_xgft(static_cast<std::uint32_t>(ms.size()), ms, ws);
  }
  if (family == "kautz") {
    return make_kautz(static_cast<std::uint32_t>(cli.get_int("b", 3)),
                      static_cast<std::uint32_t>(cli.get_int("n", 3)),
                      static_cast<std::uint32_t>(cli.get_int("endpoints", 256)));
  }
  if (family == "dragonfly") {
    return make_dragonfly(static_cast<std::uint32_t>(cli.get_int("a", 4)),
                          terminals,
                          static_cast<std::uint32_t>(cli.get_int("h", 2)),
                          static_cast<std::uint32_t>(cli.get_int("g", 9)));
  }
  if (family == "hyperx") {
    auto dims = parse_dims(cli.get("dims", "4x4"));
    return make_hyperx(dims, terminals);
  }
  if (family == "complete") {
    return make_fully_connected(
        static_cast<std::uint32_t>(cli.get_int("switches", 8)), terminals);
  }
  if (family == "random") {
    return make_random(static_cast<std::uint32_t>(cli.get_int("switches", 16)),
                       terminals,
                       static_cast<std::uint32_t>(cli.get_int("links", 40)),
                       static_cast<std::uint32_t>(cli.get_int("ports", 16)),
                       rng);
  }
  throw std::runtime_error("unknown --family=" + family);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: topology_explorer [--family=ring|torus|mesh|hypercube|tree|"
        "xgft|kautz|dragonfly|hyperx|complete|random] [--load=FILE]\n"
        "  [--router=MinHop|Up*/Down*|FatTree|DOR|LASH|SSSP|DFSSSP|all]\n"
        "  [--dot=FILE] [--netfile=FILE] [--patterns=N] [--metrics]\n"
        "  [--save-dump=FILE] [--load-dump=FILE] [--cdg-dot=FILE]\n");
    return 0;
  }
  Topology topo;
  try {
    topo = build(cli);
  } catch (const std::exception& e) {
    std::printf("cannot build topology: %s\n", e.what());
    return 1;
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
