// Extension: generator throughput and reproducibility at mid scale. Builds
// the chunked 16k-switch configurations through the named-config registry
// and reports structural invariants (switch/link/channel counts, memory
// footprint, structure hash) as deterministic table cells — the committed
// baseline pins them, so a scheduling or refactoring bug that perturbs the
// emitted stream fails the dfbench compare gate bitwise. Wall-clock
// generation time goes to the profile's topology/* spans only.
#include "bench_util.hpp"
#include "topology/metrics.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  const ExecContext exec = cfg.exec();

  Table table("Extension: chunked generation at scale (structure pinned)",
              {"config", "switches", "terminals", "channels", "mem MiB",
               "structure hash"});

  std::vector<std::string> keys{"dragonfly-mid", "torus-mid", "xgft-mid",
                                "random-regular-mid"};
  if (cfg.full) keys.push_back("warehouse-dragonfly");

  for (const std::string& key : keys) {
    const Topology topo = build_topology_config(key, exec);
    const std::uint64_t hash = structure_hash(topo.net);
    obs::registry()
        // One gauge per registry config key: bounded by the static table
        // in topology/configs.cpp.
        // NOLINTNEXTLINE(dfs-metric-name-literal): bounded by config table
        .gauge("gen/" + key + "/structure_hash")
        .set(hash);
    char hash_cell[24], mem_cell[24];
    std::snprintf(hash_cell, sizeof(hash_cell), "%016llx",
                  (unsigned long long)hash);
    std::snprintf(mem_cell, sizeof(mem_cell), "%.1f",
                  static_cast<double>(topo.net.memory_footprint()) /
                      (1024.0 * 1024.0));
    table.row()
        .cell(topo.name)
        .cell(topo.net.num_switches())
        .cell(topo.net.num_terminals())
        .cell(topo.net.num_channels())
        .cell(mem_cell)
        .cell(hash_cell);
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  cfg.emit(table);
  return 0;
}
