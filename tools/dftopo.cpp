// dftopo: generate, validate and inspect topology files.
//
// The separate-validator idiom: generation (possibly parallel, possibly on
// another machine) and validation are different invocations, so a corrupted
// or hand-edited file never reaches a router without an independent
// structural check.
//
//   dftopo list
//   dftopo generate <spec> --out=FILE [--format=edgelist|netfile|dot]
//                   [--threads=N] [--no-validate]
//   dftopo validate <spec> [--threads=N]
//   dftopo stats <spec> [--threads=N]
//
// Every command also accepts --trace=FILE: a Chrome trace_event span log
// of the generation/validation phases (load in ui.perfetto.dev), the same
// instrumentation stream the bench binaries expose.
//
// <spec> is a topology spec (build_topology_config): a registered config,
// a family spec such as kary-tree:4:2, or a topology file, its format
// sniffed. generate's --format names the output format.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "topology/configs.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {
namespace {

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <command> ...\n"
      "  list                         known topology configs\n"
      "  generate <spec> --out=FILE   [--format=edgelist|netfile|dot]\n"
      "                               [--threads=N] [--no-validate]\n"
      "  validate <spec>              [--threads=N]\n"
      "  stats <spec>                 [--threads=N]\n"
      "  --trace=FILE                 Chrome trace_event span log (any "
      "command)\n"
      "<spec>: a config from `list`, a family spec (kary-tree:4:2, ...; see\n"
      "docs/verification.md) or a DFEL, netfile or ibnetdiscover file\n",
      prog);
  return 2;
}

ExecContext exec_from(const Cli& cli) {
  return ExecContext(static_cast<unsigned>(
      cli.get_count("threads", 0, kMaxThreads, 0)));  // 0 = hardware
}

void print_stats(const Topology& topo) {
  const Network& net = topo.net;
  std::uint64_t min_deg = ~0ULL, max_deg = 0, sum_deg = 0, links = 0;
  for (NodeId sw : net.switches()) {
    const std::uint64_t d = net.switch_degree(sw);
    min_deg = std::min(min_deg, d);
    max_deg = std::max(max_deg, d);
    sum_deg += d;
  }
  if (net.num_switches() == 0) min_deg = 0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    if (c < ch.reverse && net.is_switch(ch.src) && net.is_switch(ch.dst)) {
      ++links;
    }
  }
  std::printf("name            %s\n", topo.name.c_str());
  std::printf("family          %s\n", topo.meta.family.c_str());
  std::printf("switches        %zu\n", net.num_switches());
  std::printf("terminals       %zu\n", net.num_terminals());
  std::printf("links           %llu\n", (unsigned long long)links);
  std::printf("channels        %zu\n", net.num_channels());
  std::printf("degree min/avg/max  %llu / %.2f / %llu\n",
              (unsigned long long)min_deg,
              net.num_switches() == 0
                  ? 0.0
                  : static_cast<double>(sum_deg) /
                        static_cast<double>(net.num_switches()),
              (unsigned long long)max_deg);
  std::printf("memory_bytes    %llu\n",
              (unsigned long long)net.memory_footprint());
  std::printf("structure_hash  %016llx\n",
              (unsigned long long)structure_hash(net));
}

int cmd_list() {
  for (const TopoConfig& cfg : topology_configs()) {
    std::printf("%-24s %s\n", cfg.name.c_str(), cfg.summary.c_str());
  }
  return 0;
}

int cmd_generate(const Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "generate: missing <spec>\n");
    return 2;
  }
  const std::string spec = cli.positional()[1];
  const std::string out = cli.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: missing --out=FILE\n");
    return 2;
  }
  const std::string format = cli.get("format", "edgelist");
  Timer timer;
  Topology topo = build_topology_config(spec, exec_from(cli));
  const double gen_ms = timer.milliseconds();
  if (!cli.get_bool("no-validate", false)) {
    topo.net.validate();
    if (!topo.net.connected()) {
      std::fprintf(stderr, "generate: '%s' is not connected\n",
                   spec.c_str());
      return 1;
    }
  }
  timer.restart();
  if (format == "edgelist") {
    write_edgelist(topo.net, out);
  } else if (format == "netfile") {
    write_netfile(topo.net, out);
  } else if (format == "dot") {
    std::ofstream os(out);
    if (!os) throw std::runtime_error("cannot open for writing: " + out);
    write_dot(topo.net, os);
  } else {
    std::fprintf(stderr, "generate: unknown format '%s'\n", format.c_str());
    return 2;
  }
  std::printf(
      "%s: %zu switches, %zu terminals -> %s (%s)  "
      "[generate %.1f ms, write %.1f ms, hash %016llx]\n",
      topo.name.c_str(), topo.net.num_switches(), topo.net.num_terminals(),
      out.c_str(), format.c_str(), gen_ms, timer.milliseconds(),
      (unsigned long long)structure_hash(topo.net));
  return 0;
}

int cmd_validate(const Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "validate: missing <spec>\n");
    return 2;
  }
  Topology topo = build_topology_config(cli.positional()[1], exec_from(cli));
  // The readers and generators already ran Network::validate(); re-run
  // explicitly so a future relaxed reader still gets caught here, then
  // check connectivity, which loaders deliberately do not enforce.
  topo.net.validate();
  const bool connected = topo.net.connected();
  print_stats(topo);
  std::printf("validate        ok\n");
  std::printf("connected       %s\n", connected ? "yes" : "NO");
  if (!connected) return 1;
  return 0;
}

int cmd_stats(const Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "stats: missing <spec>\n");
    return 2;
  }
  print_stats(build_topology_config(cli.positional()[1], exec_from(cli)));
  return 0;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.positional().empty()) return usage(argv[0]);
  // Spans buffer from here; the atexit hook writes the file, so every exit
  // path (including thrown errors) still produces the trace.
  const std::string trace = cli.get("trace", "");
  if (!trace.empty()) obs::start_tracing(trace);
  const std::string& cmd = cli.positional()[0];
  if (cmd == "list") return cmd_list();
  if (cmd == "generate") return cmd_generate(cli);
  if (cmd == "validate") return cmd_validate(cli);
  if (cmd == "stats") return cmd_stats(cli);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return usage(argv[0]);
}

}  // namespace
}  // namespace dfsssp

int main(int argc, char** argv) {
  try {
    return dfsssp::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dftopo: %s\n", e.what());
    return 1;
  }
}
