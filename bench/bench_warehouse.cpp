// Extension: warehouse-scale end-to-end run. Generates a large chunked
// dragonfly (100k+ switches under --full), routes it with DFSSSP against a
// destination-sharded terminal set, verifies the paths and the deadlock
// freedom of the result, and records per-phase wall-clock plus peak RSS.
// Structural cells (counts, VLs, verification verdicts, structure hash) are
// deterministic; each phase's wall clock is its warehouse/* span, so it
// lands in the profile's timing stats only.
//
//   --full       dragonfly(50,40,2001): 100050 switches, ~4.45M links
//   --dests=N    sharded destination terminals, 1..100050 (default 64)
#include "bench_util.hpp"
#include "obs/rusage.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/verify.hpp"
#include "topology/metrics.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  const ExecContext exec = cfg.exec();
  // At most one destination per switch of the --full shape.
  const auto dests =
      static_cast<std::uint32_t>(cli.get_count("dests", 64, 100050));

  // Balanced dragonflies (a*h == g-1). The quick shape keeps the same
  // construction path at ~7k switches so the bench stays runnable outside
  // the full tier.
  const std::uint32_t a = cfg.full ? 50 : 24;
  const std::uint32_t h = cfg.full ? 40 : 12;
  const std::uint32_t g = cfg.full ? 2001 : 289;

  Table table("Extension: warehouse-scale dragonfly, end to end",
              {"phase", "result"});

  Topology topo;
  {
    obs::TraceSpan span("warehouse/generate");
    topo = make_warehouse_dragonfly(a, h, g, dests, exec);
  }
  obs::registry()
      .gauge("warehouse/peak_rss_after_generate_bytes", obs::Kind::kTiming)
      .set(obs::peak_rss_bytes());
  std::uint64_t links = 0;
  for (ChannelId c = 0; c < topo.net.num_channels(); ++c) {
    const Channel& ch = topo.net.channel(c);
    if (c < ch.reverse && topo.net.is_switch(ch.src) &&
        topo.net.is_switch(ch.dst)) {
      ++links;
    }
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu switches, %llu links, %zu sharded terminals",
                topo.net.num_switches(), (unsigned long long)links,
                topo.net.num_terminals());
  table.row().cell("generate " + topo.name).cell(buf);
  std::snprintf(buf, sizeof(buf), "%016llx",
                (unsigned long long)structure_hash(topo.net));
  table.row().cell("structure hash").cell(buf);
  std::snprintf(buf, sizeof(buf), "%.1f MiB",
                static_cast<double>(topo.net.memory_footprint()) /
                    (1024.0 * 1024.0));
  table.row().cell("topology footprint").cell(buf);
  std::fprintf(stderr, "generated\n");

  DfssspRouter router(DfssspOptions{.max_layers = 8, .balance = false});
  RouteResponse out;
  {
    obs::TraceSpan span("warehouse/route");
    out = router.route(RouteRequest(topo, exec));
  }
  if (!out.ok) {
    table.row().cell("route DFSSSP").cell("FAILED: " + out.error);
    cfg.emit(table);
    return 1;
  }
  std::snprintf(buf, sizeof(buf), "ok, %u VLs",
                unsigned(out.stats.layers_used));
  table.row().cell("route DFSSSP").cell(buf);
  std::fprintf(stderr, "routed\n");

  VerifyReport verify;
  {
    obs::TraceSpan span("warehouse/verify_paths");
    verify = verify_routing(topo.net, out.table, exec);
  }
  std::snprintf(buf, sizeof(buf), "%llu paths, %llu broken, %llu non-minimal",
                (unsigned long long)verify.total_paths,
                (unsigned long long)verify.broken,
                (unsigned long long)verify.non_minimal);
  table.row().cell("verify paths").cell(buf);

  bool deadlock_free;
  {
    obs::TraceSpan span("warehouse/verify_deadlock");
    deadlock_free = routing_is_deadlock_free(topo.net, out.table, exec);
  }
  table.row().cell("deadlock-free").cell(deadlock_free ? "yes" : "NO");

  obs::registry()
      .gauge("warehouse/peak_rss_bytes", obs::Kind::kTiming)
      .set(obs::peak_rss_bytes());

  cfg.emit(table);
  const bool ok = verify.connected() && deadlock_free;
  return ok ? 0 : 1;
}
