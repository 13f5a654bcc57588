// dfcheck — static routing analyzer with machine-checkable deadlock-freedom
// certificates, the role OpenSM's ibdmchk plays for real fabrics.
//
// Takes a topology spec (a registered config, a generator family spec or a
// topology file; see build_topology_config) plus a routing (forwarding dump
// or in-memory engine run) and:
//   * default: decides deadlock freedom; on failure prints a minimal
//     witness cycle with the inducing paths per CDG edge;
//   * --cert-out:   emits a certificate (per layer, a topological order of
//                   the layer's CDG) a third party can re-check;
//   * --cert-check: validates a certificate against the routing in one
//                   O(V+E) pass, with no cycle search;
//   * --lints:      runs the static lint suite (unreachable destinations,
//                   non-minimal paths, layer skew, VL budget, dangling or
//                   duplicate LFT entries, out-of-range SL entries, and the
//                   conservative existence lower bound on the layer count);
//   * --json:       machine-readable report of everything above;
//   * --report:     versioned run report (the dfbench BENCH_*.json schema),
//                   so dfcheck runs slot into the same baseline trajectory
//                   and compare gate as the benches.
//
// Exit codes: 0 = clean, 1 = deadlock possible / certificate rejected /
// structural lint defects, 2 = usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <iostream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/lints.hpp"
#include "analysis/witness.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/report/build_info.hpp"
#include "obs/report/report.hpp"
#include "obs/trace.hpp"
#include "routing/dump.hpp"
#include "routing/registry.hpp"
#include "routing/router.hpp"
#include "topology/configs.hpp"

namespace dfsssp {
namespace {

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <topology> <routing> [actions]\n"
               "\n"
               "topology:\n"
               "  --topo=SPEC         a config (dftopo list: deimos, ...), a family\n"
               "                      spec (ring:<switches>:<terminals>,\n"
               "                      kary-tree:<k>:<n>, ...; docs/verification.md)\n"
               "                      or a DFEL, netfile or ibnetdiscover file\n"
               "routing (one of):\n"
               "  --dump=FILE         read a forwarding dump\n"
               "  --route=ENGINE      engine registry key (minhop|updown|fattree|\n"
               "                      dor|dordateline|lash|sssp|dfsssp)\n"
               "  --max-layers=N      layer budget for --route engines (1..16, default 8)\n"
               "actions (default: deadlock-freedom analysis + witness):\n"
               "  --cert-out=FILE     emit a deadlock-freedom certificate\n"
               "  --cert-check=FILE   validate a certificate (no cycle search)\n"
               "  --dump-out=FILE     write the forwarding dump\n"
               "  --lints             run the lint suite\n"
               "  --json              machine-readable output\n"
               "  --report=FILE       versioned run report (dfbench schema)\n"
               "  --witness-paths=N   inducing paths shown per cycle edge (3)\n"
               "  --threads=N         worker threads (0 = hardware)\n"
               "  --trace=FILE        Chrome trace_event span log (Perfetto)\n",
               program);
  return 2;
}

/// The "dfcheck/..." phase spans and the library's "certificate/..." spans
/// of the profile session (started for --json and --report), as (name, ms,
/// calls); empty without a session. What --trace records as spans, this
/// reports as totals.
std::vector<std::tuple<std::string, double, std::uint64_t>> dfcheck_timings() {
  std::vector<std::tuple<std::string, double, std::uint64_t>> out;
  for (const obs::ProfileNode& n : obs::collect_profile().nodes) {
    if (n.name.rfind("dfcheck/", 0) != 0 &&
        n.name.rfind("certificate/", 0) != 0) {
      continue;
    }
    out.emplace_back(n.name, static_cast<double>(n.total_ns) / 1e6,
                     n.invocations);
  }
  return out;
}

struct Report {
  std::string topology;
  std::size_t switches = 0, terminals = 0, channels = 0;
  std::string routing_source;
  Layer layers = 1;
  bool analyzed = false;
  bool deadlock_free = false;
  DeadlockWitness witness;
  std::string cert_out, cert_check;
  CertCheckResult check;
  bool checked = false;
  bool linted = false;
  LintReport lints;
};

void print_json(const Network& net, const Report& r, std::ostream& out) {
  using obs::JsonValue;
  const auto integer = [](std::uint64_t v) {
    return JsonValue::integer(static_cast<std::int64_t>(v));
  };
  JsonValue doc = JsonValue::object();
  doc.set("topology", JsonValue::string(r.topology));
  doc.set("switches", integer(r.switches));
  doc.set("terminals", integer(r.terminals));
  doc.set("channels", integer(r.channels));
  doc.set("routing", JsonValue::string(r.routing_source));
  doc.set("layers", integer(r.layers));
  if (r.analyzed) {
    doc.set("deadlock_free", JsonValue::boolean(r.deadlock_free));
    if (!r.witness.empty()) {
      JsonValue cycle = JsonValue::array();
      for (const WitnessEdge& e : r.witness.edges) {
        const Channel& ch = net.channel(e.from);
        JsonValue& edge = cycle.push_back(JsonValue::object());
        edge.set("channel", JsonValue::string(net.node_name(ch.src) + "->" +
                                              net.node_name(ch.dst)));
        edge.set("inducing_paths", integer(e.inducing_paths));
      }
      JsonValue witness = JsonValue::object();
      witness.set("layer", integer(r.witness.layer));
      witness.set("cycle", std::move(cycle));
      doc.set("witness", std::move(witness));
    }
  }
  if (!r.cert_out.empty()) {
    doc.set("certificate_written", JsonValue::string(r.cert_out));
  }
  if (r.checked) {
    JsonValue cert = JsonValue::object();
    cert.set("file", JsonValue::string(r.cert_check));
    cert.set("ok", JsonValue::boolean(r.check.ok));
    cert.set("paths_checked", integer(r.check.paths_checked));
    cert.set("deps_checked", integer(r.check.deps_checked));
    if (!r.check.ok) cert.set("error", JsonValue::string(r.check.error));
    doc.set("certificate", std::move(cert));
  }
  if (r.linted) {
    JsonValue counts = JsonValue::object();
    for (std::size_t k = 0; k < kNumLintKinds; ++k) {
      if (r.lints.counts[k] == 0) continue;
      counts.set(to_string(static_cast<LintKind>(k)),
                 integer(r.lints.counts[k]));
    }
    JsonValue lints = JsonValue::array();
    for (const Lint& l : r.lints.lints) {
      JsonValue& lint = lints.push_back(JsonValue::object());
      lint.set("kind", JsonValue::string(to_string(l.kind)));
      lint.set("message", JsonValue::string(l.message));
    }
    doc.set("lint_counts", std::move(counts));
    doc.set("lints", std::move(lints));
  }
  const auto timings = dfcheck_timings();
  if (!timings.empty()) {
    JsonValue timing = JsonValue::object();
    for (const auto& [name, ms, calls] : timings) {
      timing.set(name, JsonValue::number(ms));
    }
    doc.set("timing_ms", std::move(timing));
  }
  doc.write(out);
  out << "\n";
}

/// Writes the analysis as a versioned run report (the dfbench BENCH_*.json
/// schema): analysis outcomes land in the deterministic `metrics` section,
/// the span profile in `profile` and its wall times in `timing_stats`,
/// registry timing metrics in `timing_metrics`. A dfcheck
/// run on a fixed topology+routing is bitwise reproducible, so the report
/// slots straight into `dfbench compare`'s quality gate.
void write_report(const Report& r, const obs::JsonValue& config,
                  double wall_seconds, const std::string& path) {
  obs::RunReport out;
  out.bench = "dfcheck";
  out.git_rev = obs::git_rev();
  out.build_flags = obs::build_flags();
  out.config = config;
  out.wall_seconds = wall_seconds;

  obs::JsonValue m = obs::JsonValue::object();
  auto put = [&m](const char* key, std::uint64_t v) {
    m.set(key, obs::JsonValue::integer(static_cast<std::int64_t>(v)));
  };
  put("dfcheck/switches", r.switches);
  put("dfcheck/terminals", r.terminals);
  put("dfcheck/channels", r.channels);
  put("dfcheck/layers", r.layers);
  if (r.analyzed) {
    m.set("dfcheck/deadlock_free", obs::JsonValue::boolean(r.deadlock_free));
    put("dfcheck/witness_edges", r.witness.edges.size());
  }
  if (r.checked) {
    m.set("dfcheck/cert_ok", obs::JsonValue::boolean(r.check.ok));
    put("dfcheck/cert_paths_checked", r.check.paths_checked);
    put("dfcheck/cert_deps_checked", r.check.deps_checked);
  }
  if (r.linted) {
    put("dfcheck/lint_paths_checked", r.lints.paths_checked);
    for (std::size_t k = 0; k < kNumLintKinds; ++k) {
      put((std::string("dfcheck/lint_") +
           to_string(static_cast<LintKind>(k))).c_str(),
          r.lints.counts[k]);
    }
  }
  out.metrics = std::move(m);

  const obs::Snapshot snap = obs::registry().snapshot();
  out.timing_metrics = obs::metrics_to_json(snap, obs::Kind::kTiming);
  obs::derive_timing_stats(out);
  const obs::Profile prof = obs::collect_profile();
  out.profile = obs::profile_to_json(prof);
  obs::profile_timing_stats(prof, out.timing_stats);
  obs::write_run_report(out, path);
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.get_bool("help", false)) return usage(cli.program().c_str());
  Timer wall_timer;

  const std::string topo_spec = cli.get("topo", "");
  const std::string dump_file = cli.get("dump", "");
  const std::string engine = cli.get("route", "");
  if (topo_spec.empty() || (dump_file.empty() == engine.empty())) {
    return usage(cli.program().c_str());
  }

  // An out-of-range count exits 2 naming its flag before any work starts.
  const auto threads =
      static_cast<unsigned>(cli.get_count("threads", 0, kMaxThreads, 0));
  const ExecContext exec(threads);
  const auto max_layers =
      static_cast<Layer>(cli.get_count("max-layers", 8, kMaxLayers));
  const auto witness_paths =
      static_cast<std::uint32_t>(cli.get_count("witness-paths", 3));

  const std::string trace_file = cli.get("trace", "");
  if (!trace_file.empty()) obs::start_tracing(trace_file);
  // The phase timings of --json and --report come from the span profile.
  const bool json = cli.get_bool("json", false);
  const std::string report_file = cli.get("report", "");
  if (json || !report_file.empty()) obs::start_profiling();

  Topology topo = build_topology_config(topo_spec, exec);
  Report report;
  report.topology = topo.name;
  report.switches = topo.net.num_switches();
  report.terminals = topo.net.num_terminals();
  report.channels = topo.net.num_channels();

  RoutingTable table;
  DumpStats dump_stats;
  const DumpStats* dump_stats_ptr = nullptr;
  if (!dump_file.empty()) {
    table = read_forwarding_dump_path(topo.net, dump_file, &dump_stats);
    dump_stats_ptr = &dump_stats;
    report.routing_source = "dump:" + dump_file;
  } else {
    std::unique_ptr<Router> chosen = routing::make_router(engine, max_layers);
    if (!chosen) {
      std::fprintf(stderr, "dfcheck: unknown engine '%s' (have: %s)\n",
                   engine.c_str(), routing::engine_names().c_str());
      return 2;
    }
    RouteResponse out = [&] {
      obs::TraceSpan span("dfcheck/route");
      return chosen->route(RouteRequest(topo, exec));
    }();
    if (!out.ok) {
      std::fprintf(stderr, "dfcheck: %s refused %s: %s\n",
                   chosen->name().c_str(), topo.name.c_str(),
                   out.error.c_str());
      return 2;
    }
    table = std::move(out.table);
    report.routing_source = "engine:" + chosen->name();
  }
  report.layers = table.num_layers();

  const std::string dump_out = cli.get("dump-out", "");
  if (!dump_out.empty()) write_forwarding_dump(topo.net, table, dump_out);

  const std::string cert_out = cli.get("cert-out", "");
  const std::string cert_check = cli.get("cert-check", "");
  const bool want_lints = cli.get_bool("lints", false);

  int exit_code = 0;

  // Certificate emission and the default analysis share the build: both
  // need the per-layer topological orders (or the cyclic layer).
  if (!cert_check.empty()) {
    report.cert_check = cert_check;
    const Certificate cert = read_certificate_path(topo.net, cert_check);
    report.check = check_certificate(topo.net, table, cert);
    report.checked = true;
    if (!report.check.ok) exit_code = 1;
    if (!json) {
      if (report.check.ok) {
        std::printf("certificate %s: OK (%llu paths, %llu dependencies "
                    "checked, no cycle search)\n",
                    cert_check.c_str(),
                    static_cast<unsigned long long>(report.check.paths_checked),
                    static_cast<unsigned long long>(report.check.deps_checked));
      } else {
        std::printf("certificate %s: REJECTED: %s\n", cert_check.c_str(),
                    report.check.error.c_str());
      }
    }
  } else {
    report.analyzed = true;
    const CertificateResult cert = make_certificate(topo.net, table, exec);
    report.deadlock_free = cert.ok;
    if (!cert.ok) {
      exit_code = 1;
      report.witness = extract_witness(topo.net, table, witness_paths);
      if (!json) {
        std::printf("routing is NOT deadlock-free (layer %u CDG is cyclic)\n",
                    unsigned(cert.cyclic_layer));
        write_witness(topo.net, report.witness, std::cout);
      }
    } else {
      if (!json) {
        std::printf("routing is deadlock-free: every one of the %u layer "
                    "CDGs admits a topological order\n",
                    unsigned(cert.cert.num_layers));
      }
      if (!cert_out.empty()) {
        write_certificate_path(topo.net, cert.cert, cert_out);
        report.cert_out = cert_out;
        if (!json) {
          std::printf("certificate written to %s\n", cert_out.c_str());
        }
      }
    }
    if (!cert.ok && !cert_out.empty() && !json) {
      std::printf("no certificate written (no topological order exists)\n");
    }
  }

  if (want_lints) {
    report.linted = true;
    {
      obs::TraceSpan span("dfcheck/lints");
      report.lints = lint_routing(topo.net, table, {}, dump_stats_ptr, exec);
    }
    if (report.lints.count(LintKind::kUnreachableDestination) > 0 ||
        report.lints.count(LintKind::kSlOutOfRange) > 0) {
      exit_code = std::max(exit_code, 1);
    }
    if (!json) {
      if (report.lints.clean()) {
        std::printf("lints: clean (%llu paths checked)\n",
                    static_cast<unsigned long long>(
                        report.lints.paths_checked));
      } else {
        for (const Lint& l : report.lints.lints) {
          std::printf("lint[%s]: %s\n", to_string(l.kind), l.message.c_str());
        }
        for (std::size_t k = 0; k < kNumLintKinds; ++k) {
          if (report.lints.counts[k] != 0) {
            std::printf("lint-count[%s]: %llu\n",
                        to_string(static_cast<LintKind>(k)),
                        static_cast<unsigned long long>(
                            report.lints.counts[k]));
          }
        }
      }
    }
  }

  if (!report_file.empty()) {
    obs::JsonValue config = obs::JsonValue::object();
    config.set("topology", obs::JsonValue::string(topo_spec));
    config.set("routing", obs::JsonValue::string(report.routing_source));
    config.set("threads", obs::JsonValue::integer(threads));
    config.set("lints", obs::JsonValue::boolean(want_lints));
    write_report(report, config, wall_timer.seconds(), report_file);
    if (!json) {
      std::printf("run report written to %s\n", report_file.c_str());
    }
  }

  if (json) {
    print_json(topo.net, report, std::cout);
  } else {
    for (const auto& [name, ms, samples] : dfcheck_timings()) {
      std::printf("timing[%s]: %.3f ms (%llu sample%s)\n", name.c_str(), ms,
                  static_cast<unsigned long long>(samples),
                  samples == 1 ? "" : "s");
    }
  }
  if (!trace_file.empty()) {
    const std::size_t spans = obs::stop_tracing();
    std::fprintf(stderr, "trace written to %s (%zu spans)\n",
                 trace_file.c_str(), spans);
  }
  return exit_code;
}

}  // namespace
}  // namespace dfsssp

int main(int argc, char** argv) {
  try {
    return dfsssp::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfcheck: %s\n", e.what());
    return 2;
  }
}
