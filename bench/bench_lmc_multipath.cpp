// Extension (DESIGN.md §7): LMC multipathing. OpenSM assigns each port
// 2^lmc LIDs; SSSP/DFSSSP route every LID against one shared weight map, so
// consecutive LIDs take different minimal paths and sources can spread
// flows. This bench measures the eBB gain of lmc = 0/1/2 under DFSSSP with
// a joint (all planes) deadlock-free layer assignment.
#include "bench_util.hpp"
#include "routing/multipath.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  const ExecContext exec = cfg.exec();

  // eBB over random bisections is expected to be ~neutral (Algorithm 1
  // already balances the single path well; round-robin plane choice only
  // re-randomizes). The win shows on fixed adversarial permutations, where
  // a single static path per pair collides systematically.
  Table table("Extension: LMC multipath under DFSSSP",
              {"topology", "lmc", "planes", "VLs", "eBB", "vs lmc=0",
               "tornado bw", "vs lmc=0 "});

  std::vector<Topology> zoo;
  {
    Rng rng(0x71CULL);
    zoo.push_back(make_random(32, 8, 72, 16, rng));
  }
  zoo.push_back(make_deimos());
  {
    std::uint32_t ms[2] = {10, 10};
    std::uint32_t ws[2] = {5, 5};
    zoo.push_back(make_xgft(2, ms, ws));
  }

  for (const Topology& topo : zoo) {
    RankMap map = RankMap::round_robin(
        topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
    Flows tornado_flows = map.to_flows(tornado(map.num_ranks()));
    double base = 0.0, tornado_base = 0.0;
    for (std::uint8_t lmc = 0; lmc <= 2; ++lmc) {
      MultipathOutcome out = route_dfsssp_multipath(
          topo, lmc, DfssspOptions{.max_layers = 8, .balance = false});
      if (!out.ok) {
        table.row().cell(topo.name).cell(int(lmc)).cell("-").cell("-")
            .cell("failed: " + out.error).cell("-");
        continue;
      }
      Rng pat(0x71C0 + lmc * 0);  // identical patterns for every lmc
      EbbResult ebb = effective_bisection_bandwidth(
          topo.net, out.planes, map, cfg.patterns, pat, {}, exec);
      PatternResult storm =
          simulate_pattern(topo.net, out.planes, tornado_flows);
      if (lmc == 0) {
        base = ebb.ebb;
        tornado_base = storm.avg_flow_bandwidth;
      }
      char rel[32], trel[32];
      std::snprintf(rel, sizeof(rel), "%+.1f%%", 100.0 * (ebb.ebb / base - 1.0));
      std::snprintf(trel, sizeof(trel), "%+.1f%%",
                    100.0 * (storm.avg_flow_bandwidth / tornado_base - 1.0));
      table.row()
          .cell(topo.name)
          .cell(int(lmc))
          .cell(out.planes.size())
          .cell(static_cast<std::uint64_t>(out.stats.layers_used))
          .cell(ebb.ebb, 4)
          .cell(rel)
          .cell(storm.avg_flow_bandwidth, 4)
          .cell(trel);
      std::fprintf(stderr, ".");
      std::fflush(stderr);
    }
  }
  std::fprintf(stderr, "\n");
  cfg.emit(table);
  return 0;
}
