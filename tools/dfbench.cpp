// dfbench — continuous-benchmarking orchestrator for the bench roster.
//
//   dfbench run      [--tier=quick|full] [--filter=GLOB] [--repetitions=N]
//                    [--out=DIR] [--bench-dir=DIR] [--threads=N]
//                    [--timeout=SECONDS] [--verbose]
//   dfbench compare  <baseline-dir> <run-dir>
//                    [--mad-k=K] [--rel-eps=F] [--abs-eps-ms=MS]
//                    [--fail-on-timing] [--verbose]
//   dfbench profile  <bench> [--tier=quick|full] [--out=DIR]
//                    [--bench-dir=DIR] [--threads=N] [--top=N]
//                    [--min-attribution=PCT] [--timeout=SECONDS]
//   dfbench list     [--tier=quick|full]
//
// `run` executes every roster bench (quick tier: small configurations that
// finish in seconds; full tier: the paper's largest configurations plus the
// extended benches), N repetitions each, and aggregates the per-repetition
// --json reports into one canonical BENCH_<name>.json per bench (median +
// MAD timing statistics; deterministic sections asserted identical across
// repetitions). Benches run as subprocesses with a per-bench timeout; a
// hung bench is killed, recorded as a failure, and the roster continues.
//
// `profile` runs one roster bench under the span-tree profiler and renders
// its hierarchical wall-time/work attribution: a top-N self-time table
// with the deterministic cost counters (heap operations, cycle-search
// steps, CDG insertions) per node, plus a collapsed-stack .folded export
// for flamegraph.pl / speedscope. --min-attribution=PCT fails the run when
// less than PCT% of the root wall time lands below the root — the CI guard
// that keeps the hot paths instrumented.
//
// `compare` pairs BENCH_*.json files by name across two directories and
// applies the obs/report gate: deterministic quality metrics (layer
// counts, eBB tables, CDG statistics, path histograms) must match the
// baseline EXACTLY — they are bitwise-stable at any --threads=N, so any
// drift is a real behavior change and exits nonzero. Wall-clock timings
// get noise-aware verdicts (PASS/REGRESSED/IMPROVED/NEW) from MAD-scaled
// thresholds and never fail the gate unless --fail-on-timing is given
// (committed baselines travel across machines; wall clock does not).
//
// Exit codes: 0 = all benches ran / gate passed, 1 = bench failure or
// quality drift, 2 = usage or I/O error.
#include <fcntl.h>
#include <fnmatch.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/profile/profile.hpp"
#include "obs/report/build_info.hpp"
#include "obs/report/compare.hpp"
#include "obs/report/report.hpp"
#include "obs/report/stats.hpp"
#include "routing/registry.hpp"

namespace dfsssp {
namespace {

namespace fs = std::filesystem;

// Upper bounds of the count flags; anything outside exits 2 naming the flag.
constexpr std::uint64_t kMaxRepetitions = 100;
constexpr std::uint64_t kMaxTimeoutS = 24 * 3600;

int usage() {
  std::fprintf(
      stderr,
      "usage: dfbench <command> [flags]\n"
      "\n"
      "commands:\n"
      "  run                    run the bench roster, write BENCH_<name>.json\n"
      "    --tier=quick|full    roster tier (default quick)\n"
      "    --filter=GLOB        only benches whose name matches (fnmatch)\n"
      "    --repetitions=N      repetitions per bench, 1..100 (default 3)\n"
      "    --out=DIR            output directory (default out)\n"
      "    --bench-dir=DIR      bench binaries (default build/bench)\n"
      "    --threads=N          forwarded to every bench (0..256, 0 = auto)\n"
      "    --timeout=SECONDS    override the per-bench timeout (0 = keep)\n"
      "  compare BASE RUN       gate RUN's reports against BASE's\n"
      "    --mad-k=K            timing threshold in MAD-sigmas (default 3)\n"
      "    --rel-eps=F          relative timing floor (default 0.10)\n"
      "    --abs-eps-ms=MS      absolute timing floor (default 0.5)\n"
      "    --fail-on-timing     timing regressions fail the gate too\n"
      "  profile BENCH          run one bench under the span-tree profiler\n"
      "    --tier=quick|full    argument tier (default quick)\n"
      "    --out=DIR            output directory (default out)\n"
      "    --bench-dir=DIR      bench binaries (default build/bench)\n"
      "    --threads=N          forwarded to the bench (0..256, 0 = auto)\n"
      "    --top=N              rows in the self-time table (default 20)\n"
      "    --min-attribution=P  fail when < P%% of wall time is attributed\n"
      "                         below the root (default 0 = report only)\n"
      "    --timeout=SECONDS    override the per-bench timeout (0 = keep)\n"
      "  list                   print the roster\n"
      "  engines                print the routing-engine registry\n"
      "  --verbose              also print PASS findings / bench stdout\n");
  return 2;
}

// ---- roster -----------------------------------------------------------------

enum class Tier : std::uint8_t { kQuick, kFull };

struct RosterEntry {
  std::string name;    // BENCH_<name>.json
  std::string binary;  // executable under --bench-dir
  /// Quick-tier membership; full-only benches still run under --tier=full.
  bool quick = true;
  /// google-benchmark binary (different CLI and report translation).
  bool micro = false;
  std::vector<std::string> quick_args;
  std::vector<std::string> full_args;
  int timeout_s = 300;
};

/// The bench roster. Quick-tier arguments are sized so the whole tier
/// finishes in a few minutes on one core — they are the committed-baseline
/// configurations, so changing them invalidates baselines/ (refresh and
/// commit together).
std::vector<RosterEntry> roster() {
  std::vector<RosterEntry> r;
  auto add = [&r](std::string name, std::string binary, bool quick,
                  std::vector<std::string> quick_args,
                  std::vector<std::string> full_args, int timeout_s) {
    RosterEntry e;
    e.name = std::move(name);
    e.binary = std::move(binary);
    e.quick = quick;
    e.quick_args = std::move(quick_args);
    e.full_args = std::move(full_args);
    e.timeout_s = timeout_s;
    r.push_back(std::move(e));
  };
  add("fig4", "bench_fig4_realworld_ebb", true, {"--patterns=20"},
      {"--full", "--patterns=1000"}, 600);
  add("fig5", "bench_fig5_xgft_ebb", true, {"--patterns=10"},
      {"--full", "--patterns=1000"}, 600);
  add("fig6", "bench_fig6_kautz_ebb", true, {"--patterns=10"},
      {"--full", "--patterns=1000"}, 600);
  add("fig7", "bench_fig7_runtime_trees", true, {}, {"--full"}, 600);
  add("fig8", "bench_fig8_runtime_realworld", true, {}, {"--full"}, 600);
  add("fig9", "bench_fig9_vl_random", true, {"--seeds=3"},
      {"--full", "--seeds=100"}, 900);
  add("fig10", "bench_fig10_vl_realworld", true, {}, {"--full"}, 600);
  add("fig12", "bench_fig12_netgauge_deimos", true, {"--patterns=10"},
      {"--full", "--patterns=100"}, 900);
  add("fig13", "bench_fig13_alltoall", true, {}, {"--full"}, 600);
  add("fig14", "bench_fig14_nas_bt", true, {}, {"--full"}, 600);
  add("fig15", "bench_fig15_nas_sp", true, {}, {"--full"}, 600);
  add("fig16", "bench_fig16_nas_ft", true, {}, {"--full"}, 600);
  add("table2", "bench_table2_nas_1024", true, {}, {"--full"}, 900);
  // Defaults are the README's headline configuration (32-ary 2-tree,
  // 40 events) and already run in quick-tier time.
  add("churn", "bench_churn", true, {}, {"--events=200"}, 900);
  // Deimos repairs, unlike the tree's, reject paths in their layers: this
  // baseline pins the repair's cycle-reject and reject-cache work.
  add("churn_deimos", "bench_churn", true,
      {"--topo=deimos", "--events=80", "--batch=4"},
      {"--topo=deimos", "--events=400", "--batch=4"}, 900);
  // Routing-as-a-service soak: concurrent lookup clients through the
  // service envelope while churn batches repair (RCU snapshot swaps).
  add("soak", "bench_soak", true, {"--events=200", "--clients=4",
                                   "--lookups=2000"},
      {"--events=2000", "--clients=8", "--lookups=20000"}, 900);
  // Chunked generation at 16k switches; the structure hashes in the table
  // pin the emitted streams bitwise against the committed baseline.
  add("gen_scale", "bench_gen_scale", true, {}, {"--full"}, 600);
  // LMC planes under DFSSSP: pins the congestion kernel's multi-plane path
  // (flow i on plane i mod #planes) against the committed baseline.
  add("lmc_multipath", "bench_lmc_multipath", true, {"--patterns=20"}, {},
      900);
  {
    RosterEntry micro;
    micro.name = "micro";
    micro.binary = "bench_micro";
    micro.micro = true;
    micro.quick_args = {"--benchmark_min_time=0.05"};
    micro.full_args = {"--benchmark_min_time=0.5"};
    micro.timeout_s = 900;
    r.push_back(std::move(micro));
  }
  // Extended benches beyond the paper's figures: full tier only.
  add("heuristics", "bench_heuristics", false, {}, {}, 900);
  add("online_vs_offline", "bench_online_vs_offline", false, {}, {}, 900);
  add("app_exact_gap", "bench_app_exact_gap", false, {}, {}, 900);
  add("fault_sweep", "bench_fault_sweep", false, {}, {}, 900);
  add("ablation_balancing", "bench_ablation_balancing", false, {}, {}, 900);
  add("modern_topologies", "bench_modern_topologies", false, {}, {}, 900);
  add("torus_routing", "bench_torus_routing", false, {}, {}, 900);
  // 100k-switch dragonfly generated, routed (destination-sharded) and
  // verified end to end; records phase timings and peak RSS.
  add("warehouse", "bench_warehouse", false, {}, {"--full"}, 1800);
  return r;
}

// ---- subprocess -------------------------------------------------------------

struct RunResult {
  int exit_code = -1;
  bool timed_out = false;
  double seconds = 0.0;
};

/// Runs `argv` with stdout+stderr redirected to `log_path`, killing the
/// child after `timeout_s`. Keeps dfbench's own output readable and a hung
/// bench from wedging the roster.
RunResult run_subprocess(const std::vector<std::string>& argv,
                         const std::string& log_path, int timeout_s) {
  RunResult result;
  Timer timer;
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("dfbench: fork");
    return result;
  }
  if (pid == 0) {
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(cargv[0], cargv.data());
    std::fprintf(stderr, "dfbench: exec %s: %s\n", cargv[0],
                 std::strerror(errno));
    _exit(127);
  }

  const double deadline = static_cast<double>(timeout_s);
  int status = 0;
  while (true) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) {
      std::perror("dfbench: waitpid");
      return result;
    }
    if (timer.seconds() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      result.timed_out = true;
      result.seconds = timer.seconds();
      return result;
    }
    usleep(20 * 1000);
  }
  result.seconds = timer.seconds();
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  else if (WIFSIGNALED(status)) result.exit_code = 128 + WTERMSIG(status);
  return result;
}

// ---- micro translation ------------------------------------------------------

/// Translates one google-benchmark JSON document into the run-report
/// schema: each benchmark's real_time becomes a timing stat under
/// "micro/<name>". No deterministic sections — microbenchmarks measure
/// time only.
obs::RunReport translate_google_benchmark(const std::string& text) {
  const obs::JsonValue doc = obs::JsonValue::parse(text);
  obs::RunReport report;
  report.bench = "bench_micro";
  report.git_rev = obs::git_rev();
  report.build_flags = obs::build_flags();
  report.tables_deterministic = false;
  const obs::JsonValue& benchmarks = doc.at("benchmarks");
  for (const obs::JsonValue& b : benchmarks.items()) {
    const std::string& name = b.at("name").as_string();
    double ms = b.at("real_time").as_double();
    const std::string unit =
        b.contains("time_unit") ? b.at("time_unit").as_string() : "ns";
    if (unit == "ns") ms /= 1e6;
    else if (unit == "us") ms /= 1e3;
    else if (unit == "s") ms *= 1e3;
    obs::TimingStat st;
    st.median_ms = ms;
    st.reps = 1;
    report.timing_stats.emplace("micro/" + name, st);
  }
  return report;
}

// ---- run --------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

int cmd_run(const Cli& cli) {
  const std::string tier_name = cli.get("tier", "quick");
  if (tier_name != "quick" && tier_name != "full") return usage();
  const Tier tier = tier_name == "full" ? Tier::kFull : Tier::kQuick;
  const std::string filter = cli.get("filter", "");
  const auto repetitions = static_cast<std::uint32_t>(
      cli.get_count("repetitions", 3, kMaxRepetitions));
  const std::string out_dir = cli.get("out", "out");
  const std::string bench_dir = cli.get("bench-dir", "build/bench");
  const std::uint64_t threads = cli.get_count("threads", 0, kMaxThreads, 0);
  const std::uint64_t timeout_override =
      cli.get_count("timeout", 0, kMaxTimeoutS, 0);
  const bool verbose = cli.get_bool("verbose", false);

  fs::create_directories(out_dir);
  fs::create_directories(out_dir + "/logs");
  fs::create_directories(out_dir + "/raw");

  Table summary("dfbench run: tier=" + tier_name + ", repetitions=" +
                    std::to_string(repetitions),
                {"bench", "status", "reps", "wall s (median)", "report"});
  std::uint32_t failures = 0, selected = 0;

  for (const RosterEntry& e : roster()) {
    if (tier == Tier::kQuick && !e.quick) continue;
    if (!filter.empty() &&
        fnmatch(filter.c_str(), e.name.c_str(), 0) != 0) {
      continue;
    }
    ++selected;
    const std::string binary = bench_dir + "/" + e.binary;
    const int timeout_s = timeout_override > 0
                              ? static_cast<int>(timeout_override)
                              : e.timeout_s;
    if (!fs::exists(binary)) {
      std::fprintf(stderr, "dfbench: %s: missing binary %s (build it first)\n",
                   e.name.c_str(), binary.c_str());
      summary.row().cell(e.name).cell("NO BINARY").cell(0u).cell("-").cell("-");
      ++failures;
      continue;
    }

    std::vector<obs::RunReport> reps;
    std::string failure;
    for (std::uint32_t rep = 0; rep < repetitions && failure.empty(); ++rep) {
      const std::string raw = out_dir + "/raw/" + e.name + ".rep" +
                              std::to_string(rep) + ".json";
      const std::string log = out_dir + "/logs/" + e.name + ".rep" +
                              std::to_string(rep) + ".log";
      std::vector<std::string> argv{binary};
      const std::vector<std::string>& extra =
          tier == Tier::kFull ? e.full_args : e.quick_args;
      argv.insert(argv.end(), extra.begin(), extra.end());
      if (e.micro) {
        argv.push_back("--benchmark_format=json");
        argv.push_back("--benchmark_out=" + raw);
        argv.push_back("--benchmark_out_format=json");
      } else {
        argv.push_back("--threads=" + std::to_string(threads));
        argv.push_back("--json=" + raw);
      }
      std::fprintf(stderr, "dfbench: %s rep %u/%u ...\n", e.name.c_str(),
                   rep + 1, repetitions);
      const RunResult run = run_subprocess(argv, log, timeout_s);
      if (run.timed_out) {
        failure = "TIMEOUT after " + std::to_string(timeout_s) + "s";
        break;
      }
      if (run.exit_code != 0) {
        failure = "exit " + std::to_string(run.exit_code) + " (see " + log +
                  ")";
        break;
      }
      try {
        obs::RunReport r = e.micro
                               ? translate_google_benchmark(read_file(raw))
                               : obs::read_run_report(raw);
        if (e.micro) r.wall_seconds = run.seconds;
        reps.push_back(std::move(r));
      } catch (const std::exception& ex) {
        failure = std::string("bad report: ") + ex.what();
      }
      if (verbose) {
        const std::string text = read_file(log);
        std::fwrite(text.data(), 1, text.size(), stdout);
      }
    }

    if (failure.empty()) {
      try {
        obs::RunReport final_report = obs::aggregate_runs(reps);
        // Every bench must surface its phase timings: the profile's span
        // wall times (prof/...) or its own timing entries. Only the wall
        // clock means no span reached the report.
        if (final_report.timing_stats.size() <= 1) {
          throw std::runtime_error(
              "timing_stats holds only the wall clock — no phase span "
              "reached the report");
        }
        const std::string path = out_dir + "/BENCH_" + e.name + ".json";
        obs::write_run_report(final_report, path);
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.2f", final_report.wall_seconds);
        summary.row()
            .cell(e.name)
            .cell("ok")
            .cell(repetitions)
            .cell(wall)
            .cell(path);
      } catch (const std::exception& ex) {
        failure = ex.what();
      }
    }
    if (!failure.empty()) {
      std::fprintf(stderr, "dfbench: %s FAILED: %s\n", e.name.c_str(),
                   failure.c_str());
      summary.row().cell(e.name).cell("FAILED").cell(
          static_cast<std::uint32_t>(reps.size()))
          .cell("-")
          .cell(failure);
      ++failures;
    }
  }

  if (selected == 0) {
    std::fprintf(stderr, "dfbench: no roster bench matches --filter=%s\n",
                 filter.c_str());
    return 2;
  }
  summary.print();
  if (failures > 0) {
    std::printf("dfbench: %u of %u benches FAILED\n", failures, selected);
    return 1;
  }
  std::printf("dfbench: all %u benches ok; reports in %s\n", selected,
              out_dir.c_str());
  return 0;
}

// ---- compare ----------------------------------------------------------------

std::map<std::string, std::string> report_files(const std::string& dir) {
  std::map<std::string, std::string> out;
  if (!fs::is_directory(dir)) {
    throw std::runtime_error(dir + " is not a directory");
  }
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 && file.size() > 11 &&
        file.substr(file.size() - 5) == ".json") {
      out.emplace(file.substr(6, file.size() - 11), entry.path().string());
    }
  }
  return out;
}

int cmd_compare(const Cli& cli) {
  const auto& pos = cli.positional();
  if (pos.size() != 3) return usage();  // "compare" BASE RUN
  obs::CompareOptions opts;
  opts.mad_k = cli.get_double("mad-k", opts.mad_k);
  opts.rel_epsilon = cli.get_double("rel-eps", opts.rel_epsilon);
  opts.abs_epsilon_ms = cli.get_double("abs-eps-ms", opts.abs_epsilon_ms);
  opts.fail_on_timing = cli.get_bool("fail-on-timing", false);
  const bool verbose = cli.get_bool("verbose", false);

  const auto base_files = report_files(pos[1]);
  const auto run_files = report_files(pos[2]);

  std::uint32_t gated = 0, failed = 0, timing_flags = 0;
  for (const auto& [name, run_path] : run_files) {
    const auto base_it = base_files.find(name);
    if (base_it == base_files.end()) {
      std::printf("[%s] NEW — no baseline; commit one to start the "
                  "trajectory\n", name.c_str());
      continue;
    }
    const obs::RunReport base = obs::read_run_report(base_it->second);
    const obs::RunReport run = obs::read_run_report(run_path);
    const obs::CompareResult result = obs::compare_reports(base, run, opts);
    ++gated;
    const bool ok = result.gate_ok(opts);
    if (!ok) ++failed;
    timing_flags += result.timing_regressions;
    std::printf("[%s] %s — %u quality drift, %u timing regressed, "
                "%u improved, %u new (baseline rev %s, run rev %s)\n",
                name.c_str(), ok ? "PASS" : "FAIL", result.quality_drift,
                result.timing_regressions, result.timing_improvements,
                result.new_metrics, base.git_rev.c_str(),
                run.git_rev.c_str());
    for (const obs::Finding& f : result.findings) {
      if (!verbose && f.verdict == obs::Verdict::kPass) continue;
      std::printf("  %-9s %-32s base=%s run=%s%s%s\n", to_string(f.verdict),
                  f.metric.c_str(), f.baseline.c_str(), f.run.c_str(),
                  f.note.empty() ? "" : "  ", f.note.c_str());
    }
  }
  for (const auto& [name, path] : base_files) {
    if (run_files.count(name) == 0) {
      std::printf("[%s] SKIPPED — baseline %s has no counterpart in the "
                  "run\n", name.c_str(), path.c_str());
    }
  }

  if (gated == 0) {
    std::fprintf(stderr, "dfbench compare: no overlapping BENCH_*.json "
                         "between %s and %s\n", pos[1].c_str(),
                 pos[2].c_str());
    return 2;
  }
  std::printf("dfbench compare: %u bench(es) gated, %u failed%s\n", gated,
              failed,
              !opts.fail_on_timing && timing_flags > 0
                  ? " (timing regressions reported but not gated; use "
                    "--fail-on-timing to gate them)"
                  : "");
  return failed == 0 ? 0 : 1;
}

// ---- profile ----------------------------------------------------------------

/// Rebuilds an obs::Profile from a schema-3 run report: the deterministic
/// columns come from the `profile` array (already in canonical DFS
/// preorder), the wall times from the "prof/<path>/{total,self}_ms" timing
/// stats the same report carries.
obs::Profile profile_from_report(const obs::RunReport& report) {
  obs::Profile prof;
  if (!report.profile.is_array()) return prof;
  for (const obs::JsonValue& node : report.profile.items()) {
    const obs::JsonValue* path = node.find("path");
    if (path == nullptr || !path->is_string()) continue;
    obs::ProfileNode n;
    n.path = path->as_string();
    const std::size_t semi = n.path.find_last_of(';');
    n.name = semi == std::string::npos ? n.path : n.path.substr(semi + 1);
    n.depth = static_cast<std::uint32_t>(
        std::count(n.path.begin(), n.path.end(), ';'));
    if (const obs::JsonValue* v = node.find("invocations")) {
      n.invocations = v->as_uint();
    }
    if (const obs::JsonValue* v = node.find("counters")) {
      for (const obs::JsonValue::Member& m : v->members()) {
        n.counters.emplace(m.first, m.second.as_uint());
      }
    }
    const auto ns_of = [&report, &n](const char* suffix) -> std::uint64_t {
      const auto it = report.timing_stats.find("prof/" + n.path + suffix);
      if (it == report.timing_stats.end() || it->second.median_ms < 0) {
        return 0;
      }
      return static_cast<std::uint64_t>(
          std::llround(it->second.median_ms * 1e6));
    };
    n.total_ns = ns_of("/total_ms");
    n.self_ns = ns_of("/self_ms");
    prof.nodes.push_back(std::move(n));
  }
  return prof;
}

int cmd_profile(const Cli& cli) {
  const auto& pos = cli.positional();
  if (pos.size() != 2) return usage();  // "profile" BENCH
  const std::string& bench_name = pos[1];
  const std::string tier_name = cli.get("tier", "quick");
  if (tier_name != "quick" && tier_name != "full") return usage();
  const Tier tier = tier_name == "full" ? Tier::kFull : Tier::kQuick;
  const std::string out_dir = cli.get("out", "out");
  const std::string bench_dir = cli.get("bench-dir", "build/bench");
  const std::uint64_t threads = cli.get_count("threads", 0, kMaxThreads, 0);
  const auto top_n = static_cast<std::size_t>(cli.get_count("top", 20));
  const double min_attribution = cli.get_double("min-attribution", 0.0);
  const std::uint64_t timeout_override =
      cli.get_count("timeout", 0, kMaxTimeoutS, 0);

  const RosterEntry* entry = nullptr;
  static const std::vector<RosterEntry> all = roster();
  for (const RosterEntry& e : all) {
    if (e.name == bench_name) { entry = &e; break; }
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "dfbench profile: unknown bench '%s' (see "
                         "`dfbench list --tier=full`)\n", bench_name.c_str());
    return 2;
  }
  if (entry->micro) {
    std::fprintf(stderr, "dfbench profile: '%s' is a google-benchmark "
                         "binary without span instrumentation\n",
                 bench_name.c_str());
    return 2;
  }
  const std::string binary = bench_dir + "/" + entry->binary;
  if (!fs::exists(binary)) {
    std::fprintf(stderr, "dfbench profile: missing binary %s (build it "
                         "first)\n", binary.c_str());
    return 2;
  }

  fs::create_directories(out_dir);
  const std::string report_path =
      out_dir + "/BENCH_" + entry->name + ".profile.json";
  const std::string folded_path = out_dir + "/" + entry->name + ".folded";
  const std::string log_path = out_dir + "/" + entry->name + ".profile.log";

  std::vector<std::string> argv{binary};
  const std::vector<std::string>& extra =
      tier == Tier::kFull ? entry->full_args : entry->quick_args;
  argv.insert(argv.end(), extra.begin(), extra.end());
  argv.push_back("--threads=" + std::to_string(threads));
  argv.push_back("--json=" + report_path);
  argv.push_back("--profile=" + folded_path);
  const int timeout_s = timeout_override > 0 ? static_cast<int>(timeout_override)
                                             : entry->timeout_s;
  std::fprintf(stderr, "dfbench: profiling %s (%s tier) ...\n",
               entry->name.c_str(), tier_name.c_str());
  const RunResult run = run_subprocess(argv, log_path, timeout_s);
  if (run.timed_out) {
    std::fprintf(stderr, "dfbench profile: %s TIMEOUT after %ds\n",
                 entry->name.c_str(), timeout_s);
    return 1;
  }
  if (run.exit_code != 0) {
    std::fprintf(stderr, "dfbench profile: %s exited %d (see %s)\n",
                 entry->name.c_str(), run.exit_code, log_path.c_str());
    return 1;
  }

  const obs::RunReport report = obs::read_run_report(report_path);
  const obs::Profile prof = profile_from_report(report);
  if (prof.nodes.empty()) {
    std::fprintf(stderr, "dfbench profile: %s produced no profile section "
                         "— does the bench start a profiling session for "
                         "--json?\n",
                 entry->name.c_str());
    return 1;
  }
  obs::write_profile_text(std::cout, prof, top_n);
  const double attributed = obs::attributed_fraction(prof) * 100.0;
  std::printf("\nattribution: %.1f%% of %.0f ms wall time attributed below "
              "the root\nfolded stacks: %s\nreport: %s\n",
              attributed, static_cast<double>(prof.nodes.front().total_ns) / 1e6,
              folded_path.c_str(), report_path.c_str());
  if (attributed < min_attribution) {
    std::printf("dfbench profile: FAIL — attribution %.1f%% is below the "
                "--min-attribution=%.1f%% floor; instrument the uncovered "
                "hot paths\n", attributed, min_attribution);
    return 1;
  }
  return 0;
}

int cmd_list(const Cli& cli) {
  const std::string tier_name = cli.get("tier", "quick");
  const Tier tier = tier_name == "full" ? Tier::kFull : Tier::kQuick;
  Table table("dfbench roster (tier=" + tier_name + ")",
              {"name", "binary", "args", "timeout s"});
  for (const RosterEntry& e : roster()) {
    if (tier == Tier::kQuick && !e.quick) continue;
    std::string args;
    for (const std::string& a :
         tier == Tier::kFull ? e.full_args : e.quick_args) {
      args += (args.empty() ? "" : " ") + a;
    }
    table.row().cell(e.name).cell(e.binary).cell(args).cell(e.timeout_s);
  }
  table.print();
  return 0;
}

int cmd_engines() {
  Table table("routing-engine registry (dfcheck --route / dfrouted --engine)",
              {"key", "display", "deadlock-free", "layered", "incremental",
               "roster", "description"});
  for (const routing::EngineInfo& e : routing::engine_roster()) {
    table.row()
        .cell(e.name)
        .cell(e.display_name)
        .cell(e.deadlock_free ? "yes" : "no")
        .cell(e.layered ? "yes" : "no")
        .cell(e.incremental ? "yes" : "no")
        .cell(e.in_default_roster ? "yes" : "-")
        .cell(e.description);
  }
  table.print();
  return 0;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto& pos = cli.positional();
  if (pos.empty()) return usage();
  const std::string& command = pos[0];
  if (command == "run") return cmd_run(cli);
  if (command == "compare") return cmd_compare(cli);
  if (command == "profile") return cmd_profile(cli);
  if (command == "list") return cmd_list(cli);
  if (command == "engines") return cmd_engines();
  return usage();
}

}  // namespace
}  // namespace dfsssp

int main(int argc, char** argv) {
  try {
    return dfsssp::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfbench: %s\n", e.what());
    return 2;
  }
}
