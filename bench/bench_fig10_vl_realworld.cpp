// Figure 10: virtual layers required to route the real-world systems
// deadlock-free, LASH vs DFSSSP (balancing off - we count demand).
// Paper shape: the tree-like systems need 1 layer under both; the
// director-chain systems (Deimos, Tsubame) need a few, with DFSSSP at or
// below LASH. On our stand-ins the offline Algorithm 2 over-fragments the
// chain systems (its bulk cycle cuts cascade), so the online first-fit
// variant is reported alongside - see EXPERIMENTS.md for the discussion.
#include "bench_util.hpp"
#include "routing/dfsssp.hpp"
#include "routing/lash.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  // --cert-dir=DIR: additionally emit (and independently re-check) a
  // deadlock-freedom certificate per system's DFSSSP routing.
  const std::string cert_dir = Cli(argc, argv).get("cert-dir", "");
  const Layer max_layers = 16;

  Table table("Figure 10: required virtual layers on real-world systems",
              {"system", "LASH", "DFSSSP(offline)", "DFSSSP(online)"});
  LashRouter lash(LashOptions{.max_layers = max_layers});
  DfssspRouter dfsssp(
      DfssspOptions{.max_layers = max_layers, .balance = false});
  DfssspRouter dfsssp_online(DfssspOptions{
      .max_layers = max_layers, .balance = false,
      .mode = LayeringMode::kOnline});

  std::vector<std::string> cert_notes;
  const ExecContext exec = cfg.exec();
  for (const Topology& topo : make_all_real_systems()) {
    RouteResponse l = lash.route(RouteRequest(topo));
    RouteResponse d = dfsssp.route(RouteRequest(topo));
    RouteResponse o = dfsssp_online.route(RouteRequest(topo));
    table.row()
        .cell(topo.name)
        .cell(l.ok ? std::to_string(l.stats.layers_used) : "failed")
        .cell(d.ok ? std::to_string(d.stats.layers_used) : "failed")
        .cell(o.ok ? std::to_string(o.stats.layers_used) : "failed");
    if (!cert_dir.empty() && d.ok) {
      cert_notes.push_back(emit_certificate(topo, d.table, cert_dir,
                                            "fig10-" + topo.name + "-dfsssp",
                                            exec));
    }
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  for (const std::string& note : cert_notes) {
    std::printf("certificate %s\n", note.c_str());
  }
  cfg.emit(table);
  return 0;
}
