// dfrouted: the routing service daemon.
//
// Owns one Topology for its whole lifetime, keeps the DFSSSP engine's
// incremental state (per-layer online CDGs, channel weights) warm across
// fault events, and serves the versioned framed protocol of
// src/service/envelope.hpp — the process shape of a subnet manager:
// long-lived state, short-lived requests.
//
//   dfrouted --topo=deimos --engine=dfsssp --socket=/tmp/dfrouted.sock
//   dfrouted --topo=kary-tree:4:2 --pipe        # stdin/stdout framing
//
// In --pipe mode the daemon serves exactly one framed stream on
// stdin/stdout and exits 0 on EOF — the mode tests and CI drive. SIGTERM
// (either mode) or a shutdown request begins the drain: in-flight
// requests finish, later frames are answered with kErrDraining, then the
// process exits 0.
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "common/cli.hpp"
#include "routing/registry.hpp"
#include "service/core.hpp"
#include "service/server.hpp"
#include "topology/configs.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_sigterm(int) { g_stop = 1; }

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s --topo=<spec> [--engine=<name>] [--max-layers=N]\n"
      "          (--socket=<path> | --pipe)\n"
      "  --topo        topology spec: a config (see `dftopo list`), a\n"
      "                family spec such as kary-tree:4:2, or a topology\n"
      "                file (all forms: docs/verification.md)\n"
      "  --engine      routing engine registry key (default dfsssp;\n"
      "                see `dfbench engines`)\n"
      "  --max-layers  virtual-layer budget, 1 to 16 (default 8)\n"
      "  --socket      serve a unix-domain socket at <path>\n"
      "  --pipe        serve one framed stream on stdin/stdout\n"
      "  --journal     record every mutation in the flight recorder\n"
      "                (serves `dfroutectl tail` / `journal`)\n"
      "  --journal-file=PATH      also append a DFJR segment for dfreplay\n"
      "  --journal-capacity=N     ring size in records (default 8192)\n",
      prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfsssp;
  Cli cli(argc, argv);
  const std::string topo_spec = cli.get("topo", "");
  const std::string socket_path = cli.get("socket", "");
  const bool pipe_mode = cli.get_bool("pipe", false);
  if (topo_spec.empty() || (socket_path.empty() && !pipe_mode)) {
    return usage(cli.program().c_str());
  }

  service::ServiceCoreOptions core_options;
  core_options.engine = cli.get("engine", "dfsssp");
  core_options.max_layers =
      static_cast<Layer>(cli.get_count("max-layers", 8, kMaxLayers));
  core_options.journal_path = cli.get("journal-file", "");
  core_options.journal =
      cli.get_bool("journal", false) || !core_options.journal_path.empty();
  core_options.journal_capacity = cli.get_count("journal-capacity", 8192);
  core_options.journal_config = topo_spec;

  try {
    Topology topo = build_topology_config(topo_spec);
    service::ServiceCore core(std::move(topo), core_options);

    std::signal(SIGTERM, on_sigterm);
    std::signal(SIGINT, on_sigterm);

    service::ServerOptions server_options;
    server_options.socket_path = socket_path;
    server_options.stop = &g_stop;
    service::Server server(core, server_options);
    if (pipe_mode) {
      return server.run_pipe();
    }
    std::fprintf(stderr, "dfrouted: serving %s (%s) on %s\n",
                 core.topo().name.c_str(), core.engine_name().c_str(),
                 socket_path.c_str());
    return server.run_socket();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfrouted: %s\n", e.what());
    return 2;
  }
}
