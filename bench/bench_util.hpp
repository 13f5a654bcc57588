// Shared plumbing for the per-figure bench binaries.
//
// Every binary accepts:
//   --full        run the largest paper configurations too (slower)
//   --patterns=N  random bisection patterns per eBB data point
//   --seeds=N     repetitions for randomized experiments
//   --threads=N   worker threads for the parallel layers (default: one per
//                 hardware core; results are identical at any N)
//   --csv=FILE    additionally dump the table as CSV
//   --json=FILE   structured run report in the versioned obs/report schema
//                 (schema_version, git_rev, build_flags, config, tables,
//                 metrics, timing_metrics, timing_stats, profile); the
//                 `metrics` and `profile` sections are bitwise identical
//                 at any --threads=N
//   --trace=FILE  Chrome trace_event span log (load in ui.perfetto.dev)
//   --profile=FILE collapsed-stack flamegraph export (dfprof.folded format,
//                 feed to flamegraph.pl or speedscope); either --json or
//                 --profile activates the span-tree profiler
// Default sizes finish in seconds so `for b in build/bench/*; do $b; done`
// stays practical; --full reproduces the paper's largest configurations.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/certificate.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"
#include "obs/report/build_info.hpp"
#include "obs/report/report.hpp"
#include "obs/rusage.hpp"
#include "obs/trace.hpp"
#include "routing/registry.hpp"
#include "routing/router.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"
#include "topology/generators.hpp"

namespace dfsssp::bench {

struct BenchConfig {
  bool full = false;
  std::uint32_t patterns = 100;
  std::uint32_t seeds = 10;
  /// 0 = one thread per hardware core.
  std::uint32_t threads = 0;
  std::string csv;
  std::string json;
  std::string trace;
  std::string profile;
  std::string program;
  /// --engines=key1,key2 — restrict roster_routers() to these registry
  /// keys (empty = the full default roster).
  std::string engines;
  /// Whether this binary's table cells are derived purely from the work
  /// (eBB values, layer counts, modeled times) and therefore bitwise
  /// identical across runs and thread counts. Binaries whose cells embed
  /// wall clock (fig7/fig8 runtimes, churn repair latencies) clear this so
  /// the dfbench quality gate never diffs their tables.
  bool tables_deterministic = true;

  static BenchConfig parse(int argc, char** argv) {
    Cli cli(argc, argv);
    BenchConfig cfg;
    cfg.full = cli.get_bool("full", false);
    cfg.patterns = cli.get_count("patterns", cfg.patterns);
    cfg.seeds = cli.get_count("seeds", cfg.seeds);
    cfg.threads = static_cast<std::uint32_t>(
        cli.get_count("threads", 0, kMaxThreads, 0));
    cfg.csv = cli.get("csv", "");
    cfg.json = cli.get("json", "");
    cfg.trace = cli.get("trace", "");
    cfg.profile = cli.get("profile", "");
    cfg.engines = cli.get("engines", "");
    cfg.program = cli.program();
    const std::size_t slash = cfg.program.find_last_of('/');
    if (slash != std::string::npos) cfg.program.erase(0, slash + 1);
    // Spans buffer from here on; the atexit hook writes the file, so a
    // bench that exits through any path still produces its trace.
    if (!cfg.trace.empty()) obs::start_tracing(cfg.trace);
    // Every --json report carries the schema-3 profile section, so the
    // profiler runs whenever a report or a folded export was requested.
    if (!cfg.json.empty() || !cfg.profile.empty()) obs::start_profiling();
    return cfg;
  }

  /// Execution context for the parallel layers. Build it once per binary:
  /// each call spins up a fresh thread pool.
  ExecContext exec() const { return ExecContext(threads); }

  /// The fabric a --topo spec names (build_topology_config). A spec that
  /// cannot be built exits 2 with the reason, as a bad count flag does.
  Topology fabric(const std::string& spec,
                  const ExecContext& exec = {}) const {
    try {
      return build_topology_config(spec, exec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
      std::exit(2);
    }
  }

  void emit(Table& table) {
    table.print();
    if (!csv.empty()) {
      table.write_csv(csv);
      std::printf("(csv written to %s)\n", csv.c_str());
    }
    emitted_.push_back(table);
    if (!json.empty()) {
      write_json_report();
      std::printf("(json report written to %s)\n", json.c_str());
    }
    if (!profile.empty()) {
      write_folded_profile();
      std::printf("(folded profile written to %s)\n", profile.c_str());
    }
  }

  /// Extra wall-clock statistics merged into the --json report's
  /// timing_stats (benches that compute their own percentiles — e.g.
  /// bench_soak's p50/p99 lookup latency — publish them here; existing
  /// derived entries win on name collision).
  std::map<std::string, obs::TimingStat> extra_timing_stats;

  /// The structured run report behind --json, in the versioned schema of
  /// obs/report (schema_version, git rev, build flags, deterministic
  /// `metrics` vs wall-clock `timing_metrics`/`timing_stats` split).
  /// Rewritten on every emit() so multi-table binaries accumulate; dfbench
  /// aggregates several of these single-repetition reports into the
  /// canonical BENCH_<name>.json trajectory points.
  void write_json_report() const {
    obs::RunReport report;
    report.bench = program;
    report.git_rev = obs::git_rev();
    report.build_flags = obs::build_flags();
    report.repetitions = 1;
    report.tables_deterministic = tables_deterministic;
    report.config.set("full", obs::JsonValue::boolean(full));
    report.config.set("patterns", obs::JsonValue::integer(patterns));
    report.config.set("seeds", obs::JsonValue::integer(seeds));
    report.config.set("threads", obs::JsonValue::integer(threads));
    report.wall_seconds = wall_.seconds();
    for (const Table& t : emitted_) report.tables.push_back(t.to_json());
    // Peak RSS at report time, as a timing-kind gauge (machine-dependent,
    // never exact-diffed) — recorded for every bench, not just warehouse.
    obs::registry()
        .gauge("process/peak_rss_bytes", obs::Kind::kTiming)
        .set(obs::peak_rss_bytes());
    const obs::Snapshot snap = obs::registry().snapshot();
    report.metrics = obs::metrics_to_json(snap, obs::Kind::kDeterministic);
    report.timing_metrics = obs::metrics_to_json(snap, obs::Kind::kTiming);
    obs::derive_timing_stats(report);
    report.timing_stats.insert(extra_timing_stats.begin(),
                               extra_timing_stats.end());
    if (obs::profiling_active()) {
      const obs::Profile prof = obs::collect_profile();
      report.profile = obs::profile_to_json(prof);
      obs::profile_timing_stats(prof, report.timing_stats);
    }
    try {
      obs::write_run_report(report, json);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write json report: %s\n", e.what());
    }
  }

  /// Collapsed-stack export behind --profile; rewritten on every emit()
  /// like the json report, so the final write covers the whole run.
  void write_folded_profile() const {
    std::ofstream out(profile);
    if (!out) {
      std::fprintf(stderr, "cannot write folded profile: %s\n",
                   profile.c_str());
      return;
    }
    obs::write_folded(out, obs::collect_profile());
  }

 private:
  Timer wall_;
  std::vector<Table> emitted_;
};

/// The bench's engine roster, resolved through the routing registry: the
/// full default roster (make_all_routers order) or, with --engines=a,b,
/// just the named registry keys in roster order. Throws on unknown keys so
/// a typo fails loudly instead of silently benchmarking nothing.
inline std::vector<std::unique_ptr<Router>> roster_routers(
    const BenchConfig& cfg, Layer max_layers = 8) {
  if (cfg.engines.empty()) return make_all_routers(max_layers);
  std::vector<std::string> keys;
  std::string key;
  std::istringstream in(cfg.engines);
  while (std::getline(in, key, ',')) {
    if (routing::find_engine(key) == nullptr) {
      throw std::invalid_argument("--engines: unknown engine '" + key +
                                  "' (have: " + routing::engine_names() +
                                  ")");
    }
    keys.push_back(key);
  }
  std::vector<std::unique_ptr<Router>> routers;
  for (const routing::EngineInfo& e : routing::engine_roster()) {
    for (const std::string& k : keys) {
      if (routing::find_engine(k) == &e) {
        routers.push_back(routing::make_router(e.name, max_layers));
        break;
      }
    }
  }
  return routers;
}

/// eBB over all terminals with a fixed pattern stream (so engines see
/// identical patterns). Returns -1 when the engine refused the topology.
inline double ebb_for(const Topology& topo, const Router& router,
                      std::uint32_t patterns, std::uint64_t pattern_seed,
                      const ExecContext& exec = {}) {
  RouteResponse out = router.route(RouteRequest(topo, exec));
  if (!out.ok) return -1.0;
  RankMap map = RankMap::round_robin(
      topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
  Rng rng(pattern_seed);
  return effective_bisection_bandwidth(topo.net, out.table, map, patterns, rng,
                                       {}, exec)
      .ebb;
}

inline std::string fmt_or_dash(double v, int precision = 3) {
  if (v < 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// The engine×topology loop shared by the roster figures (4-8): one table
/// row per topology, one column per engine. `prefix` fills the leading
/// cells of a row; `cell` computes one engine cell. Replaces the loop that
/// used to be copy-pasted into every per-figure binary.
inline Table run_roster(
    const std::string& title, std::vector<std::string> prefix_columns,
    const std::string& engine_column_suffix,
    const std::vector<Topology>& topos,
    const std::vector<std::unique_ptr<Router>>& routers,
    const std::function<void(Table&, const Topology&, std::size_t)>& prefix,
    const std::function<std::string(const Topology&, const Router&,
                                    std::size_t)>& cell) {
  std::vector<std::string> columns = std::move(prefix_columns);
  for (const auto& r : routers) columns.push_back(r->name() +
                                                  engine_column_suffix);
  Table table(title, std::move(columns));
  for (std::size_t i = 0; i < topos.size(); ++i) {
    table.row();
    prefix(table, topos[i], i);
    for (const auto& router : routers) {
      table.cell(cell(topos[i], *router, i));
    }
    // Progress goes to stderr: with stdout redirected to a file the dots
    // would interleave with the table output.
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");
  return table;
}

/// Canned run_roster cell: eBB under `cfg`'s pattern count and thread
/// count, with the pattern stream keyed by `pattern_seed`.
inline std::function<std::string(const Topology&, const Router&, std::size_t)>
ebb_cell(const BenchConfig& cfg, std::uint64_t pattern_seed) {
  return [patterns = cfg.patterns, exec = cfg.exec(), pattern_seed](
             const Topology& topo, const Router& router, std::size_t) {
    return fmt_or_dash(ebb_for(topo, router, patterns, pattern_seed, exec), 4);
  };
}

/// Canned run_roster cell: the engine's routing runtime in milliseconds,
/// path computation plus layering as RoutingStats reports them (read from
/// the engine's phase spans, which --json reports also carry).
inline std::string runtime_cell(const Topology& topo, const Router& router,
                                std::size_t) {
  RouteResponse out = router.route(RouteRequest(topo));
  return out.ok ? fmt_or_dash(out.stats.total_seconds() * 1e3, 1) : "-";
}

/// Emits a deadlock-freedom certificate for a finished routing into
/// `<dir>/<name>.cert` — after validating it with the independent checker,
/// so a bench run doubles as an end-to-end certificate round trip. Returns
/// a one-line status for the bench log.
inline std::string emit_certificate(const Topology& topo,
                                    const RoutingTable& table,
                                    const std::string& dir,
                                    std::string name,
                                    const ExecContext& exec = {}) {
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_') {
      c = '-';
    }
  }
  const std::string file = dir + "/" + name + ".cert";
  CertificateResult cert = make_certificate(topo.net, table, exec);
  if (!cert.ok) {
    return file + ": FAILED (layer " +
           std::to_string(unsigned(cert.cyclic_layer)) + " CDG is cyclic)";
  }
  const CertCheckResult check = check_certificate(topo.net, table, cert.cert);
  if (!check.ok) return file + ": FAILED self-check: " + check.error;
  write_certificate_path(topo.net, cert.cert, file);
  return file + ": ok (" + std::to_string(check.paths_checked) + " paths, " +
         std::to_string(check.deps_checked) + " deps)";
}

// TableOneRow / table_one() moved to topology/configs.hpp — the named-config
// registry shared by benches, dftopo and tests.

}  // namespace dfsssp::bench
