// Incremental repair under churn (fault subsystem end-to-end).
//
// Drives a seeded stream of link/switch down/up events into a fabric
// IN PLACE and repairs after every event with IncrementalDfsssp, validating
// the repaired table's deadlock-freedom certificate with the independent
// checker at every step. Two tables (and the --json report used as the
// committed BENCH_churn.json trajectory point):
//
//   * single-link-failure repair vs from-scratch DFSSSP on the pristine
//     fabric — the headline wall-clock speedup and the count of
//     destinations the repair actually touched;
//   * the churn soak summary — events applied/vetoed, full-recompute
//     fallbacks, repair-latency stats against sampled from-scratch runs,
//     and the certificate-check failure count (always 0 on a passing run).
//
// Extra flags on top of the bench_util set:
//   --topo=SPEC       the fabric, a topology spec as `dfrouted --topo`
//                     takes it (default kary-tree:32:2: 1024 terminals)
//   --events=E        churn events to generate (default 40)
//   --event-seed=S    schedule seed, any u64
//   --batch=B         coalesce B consecutive events into one repair via
//                     ChurnEngine::apply_all (default 1 = repair per event,
//                     the daemon's behavior between fault notifications)
//   --full-every=F    sample a from-scratch recompute every F applied
//                     batches (0 = never; default 10)
//   --cert-dir=DIR    also write the certificate at every sample point
#include <algorithm>
#include <limits>
#include <span>

#include "bench_util.hpp"
#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "fault/schedule.hpp"
#include "topology/configs.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  // Table cells embed wall clock; keep them out of the dfbench quality gate.
  cfg.tables_deterministic = false;
  Cli cli(argc, argv);
  const std::string topo_spec = cli.get("topo", "kary-tree:32:2");
  const std::uint32_t events = cli.get_count("events", 40);
  const std::uint64_t event_seed = cli.get_count(
      "event-seed", 0xC4A17, std::numeric_limits<std::uint64_t>::max(), 0);
  const std::size_t batch = cli.get_count("batch", 1);
  const auto full_every = static_cast<std::uint32_t>(cli.get_count(
      "full-every", 10, std::numeric_limits<std::uint32_t>::max(), 0));
  const std::string cert_dir = cli.get("cert-dir", "");
  const ExecContext exec = cfg.exec();

  Topology topo = cfg.fabric(topo_spec, exec);
  std::printf("fabric: %s (%zu switches, %zu terminals, %zu channels)\n",
              topo.name.c_str(), topo.net.num_switches(),
              topo.net.num_terminals(), topo.net.num_channels());

  // --- headline: one link failure, repair vs recompute -------------------
  IncrementalDfsssp inc;
  Timer route_timer;
  RouteResponse base = inc.route(RouteRequest(topo, exec));
  const double initial_route_ms = route_timer.seconds() * 1e3;
  if (!base.ok) {
    std::fprintf(stderr, "initial route failed: %s\n", base.error.c_str());
    return 1;
  }

  ChurnEngine churn(topo);
  const FaultSchedule one_kill =
      FaultSchedule::link_kills(topo.net, 1, event_seed);
  Table headline("Single-link-failure repair vs from-scratch DFSSSP",
                 {"fabric", "alive dests", "dests rerouted", "repair ms",
                  "full ms", "speedup"});
  if (!one_kill.empty()) {
    const ChurnDelta delta = churn.apply(one_kill[0]);
    Timer repair_timer;
    RouteResponse repaired = inc.repair(RouteRequest(topo, exec), delta);
    const double repair_ms = repair_timer.seconds() * 1e3;
    if (!repaired.ok || !repaired.repair.incremental) {
      std::fprintf(stderr, "single-link repair was not incremental: %s%s\n",
                   repaired.error.c_str(),
                   repaired.repair.fallback_reason.c_str());
      return 1;
    }
    Timer full_timer;
    IncrementalDfsssp fresh;
    RouteResponse full = fresh.route(RouteRequest(topo, exec));
    const double full_ms = full_timer.seconds() * 1e3;
    if (!full.ok) {
      std::fprintf(stderr, "full recompute failed: %s\n", full.error.c_str());
      return 1;
    }
    std::uint32_t alive = 0;
    for (NodeId t : topo.net.terminals()) {
      alive += topo.net.terminal_alive(t) ? 1 : 0;
    }
    headline.row()
        .cell(topo.name)
        .cell(alive)
        .cell(repaired.repair.destinations_rerouted)
        .cell(fmt_or_dash(repair_ms, 3))
        .cell(fmt_or_dash(full_ms, 3))
        .cell(repair_ms > 0 ? fmt_or_dash(full_ms / repair_ms, 1) : "-");
    base = std::move(repaired);
  }
  cfg.emit(headline);

  // --- churn soak --------------------------------------------------------
  FaultScheduleOptions sched_opts;
  sched_opts.num_events = events;
  const FaultSchedule schedule =
      FaultSchedule::random(topo.net, sched_opts, event_seed + 1);

  // batch == 1 repairs per fault notification (apply() is apply_all of
  // one event); larger batches coalesce consecutive events into one delta
  // and one repair, the daemon's burst behavior.
  std::uint32_t applied = 0, vetoed = 0, fallbacks = 0, cert_failures = 0;
  std::uint64_t dests_rerouted = 0;
  std::vector<double> repair_ms, full_ms;
  for (std::size_t i = 0; i < schedule.size(); i += batch) {
    const std::size_t count = std::min(batch, schedule.size() - i);
    const ChurnDelta delta = churn.apply_all(
        std::span<const FaultEvent>(schedule.events().data() + i, count));
    if (!delta.applied) {
      ++vetoed;
      continue;
    }
    ++applied;

    Timer repair_timer;
    base = inc.repair(RouteRequest(topo, exec), delta);
    repair_ms.push_back(repair_timer.seconds() * 1e3);
    if (!base.ok) {
      std::fprintf(stderr, "repair after event %zu (%s) failed: %s\n", i,
                   schedule[i].describe(topo.net).c_str(), base.error.c_str());
      return 1;
    }
    if (!base.repair.incremental) ++fallbacks;
    dests_rerouted += base.repair.destinations_rerouted;

    // Every repaired state is independently certified deadlock-free.
    const CertCheckResult check =
        check_certificate(topo.net, base.table, inc.certificate());
    if (!check.ok) {
      ++cert_failures;
      std::fprintf(stderr, "certificate check failed after event %zu: %s\n",
                   i, check.error.c_str());
    }

    if (full_every > 0 && applied % full_every == 0) {
      Timer full_timer;
      IncrementalDfsssp fresh;
      RouteResponse full = fresh.route(RouteRequest(topo, exec));
      if (full.ok) full_ms.push_back(full_timer.seconds() * 1e3);
      if (!cert_dir.empty()) {
        std::printf("  %s\n",
                    emit_certificate(topo, base.table, cert_dir,
                                     "churn-" + std::to_string(applied), exec)
                        .c_str());
      }
    }
    std::fprintf(stderr, ".");
    std::fflush(stderr);
  }
  std::fprintf(stderr, "\n");

  auto mean = [](const std::vector<double>& v) {
    if (v.empty()) return -1.0;
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  const double mean_repair = mean(repair_ms);
  const double mean_full = mean(full_ms);
  const double max_repair =
      repair_ms.empty() ? -1.0
                        : *std::max_element(repair_ms.begin(), repair_ms.end());

  Table soak("Churn soak",
             {"events", "applied", "vetoed", "full fallbacks",
              "dests rerouted", "mean repair ms", "max repair ms",
              "mean full ms", "speedup", "VLs", "cert failures",
              "initial route ms"});
  soak.row()
      .cell(static_cast<std::uint64_t>(schedule.size()))
      .cell(applied)
      .cell(vetoed)
      .cell(fallbacks)
      .cell(dests_rerouted)
      .cell(fmt_or_dash(mean_repair, 3))
      .cell(fmt_or_dash(max_repair, 3))
      .cell(fmt_or_dash(mean_full, 3))
      .cell(mean_repair > 0 && mean_full > 0
                ? fmt_or_dash(mean_full / mean_repair, 1)
                : "-")
      .cell(base.stats.layers_used)
      .cell(cert_failures)
      .cell(fmt_or_dash(initial_route_ms, 3));
  cfg.emit(soak);
  return cert_failures == 0 ? 0 : 1;
}
