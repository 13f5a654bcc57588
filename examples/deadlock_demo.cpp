// The paper's Figure 2, live: a 5-switch ring where SSSP routes all 2-hop
// traffic clockwise. With finite buffers the network physically deadlocks;
// DFSSSP's virtual-layer assignment drains the identical traffic.
//
//   ./deadlock_demo [--ring=5] [--shift=2] [--packets=16] [--buffers=1]
//
// Values outside --ring 3..1024, --shift 1..ring-1, --packets 1..65536 and
// --buffers 1..1024 exit 2 naming the flag.
#include <cstdio>

#include "common/cli.hpp"
#include "routing/dfsssp.hpp"
#include "routing/sssp.hpp"
#include "sim/flitsim.hpp"
#include "topology/generators.hpp"

using namespace dfsssp;

namespace {

Flows shift_pattern(const Network& net, std::uint32_t shift) {
  Flows flows;
  const std::uint32_t n = static_cast<std::uint32_t>(net.num_terminals());
  for (std::uint32_t i = 0; i < n; ++i) {
    flows.emplace_back(net.terminal_by_index(i),
                       net.terminal_by_index((i + shift) % n));
  }
  return flows;
}

void run(const char* label, const Topology& topo, const RoutingTable& table,
         const Flows& flows, const FlitSimOptions& opts) {
  Rng rng(7);
  FlitSimResult r = simulate_flit_level(topo.net, table, flows, opts, rng);
  std::printf("%-8s: %s after %llu cycles (%llu delivered, %llu stuck), %u VLs\n",
              label,
              r.deadlocked ? "DEADLOCKED"
                           : (r.drained ? "drained" : "cycle limit"),
              static_cast<unsigned long long>(r.cycles),
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.in_flight_at_end),
              unsigned(table.num_layers()));
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto ring =
      static_cast<std::uint32_t>(cli.get_count("ring", 5, 1024, 3));
  const auto shift =
      static_cast<std::uint32_t>(cli.get_count("shift", 2, ring - 1));
  FlitSimOptions opts;
  opts.packets_per_flow =
      static_cast<std::uint32_t>(cli.get_count("packets", 16, 65536));
  opts.buffer_slots =
      static_cast<std::uint32_t>(cli.get_count("buffers", 1, 1024));

  Topology topo = make_ring(ring, 1);
  Flows flows = shift_pattern(topo.net, shift);
  std::printf("ring of %u switches, every node sends %u packets %u hops clockwise\n",
              ring, opts.packets_per_flow, shift);

  RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
  RouteResponse dfsssp = DfssspRouter().route(RouteRequest(topo));
  if (!sssp.ok || !dfsssp.ok) {
    std::printf("routing failed\n");
    return 1;
  }
  run("SSSP", topo, sssp.table, flows, opts);
  run("DFSSSP", topo, dfsssp.table, flows, opts);
  std::printf("\nDFSSSP broke %llu dependency cycles into %u virtual layers.\n",
              static_cast<unsigned long long>(dfsssp.stats.cycles_broken),
              unsigned(dfsssp.stats.layers_used));
  return 0;
}
