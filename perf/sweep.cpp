// The offline and online workloads: DfssspRouter over Figure 9's random
// fabrics, then an in-process subnet-manager session on Deimos (lookups
// answered from the routed table, fault batches answered by a from-scratch
// recompute with the same router). The two workloads differ only in the
// layering mode, so they isolate Algorithm 2 (cycle search + CDG build)
// from Pearce-Kelly first-fit over identical SSSP work.
#include <array>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/certificate.hpp"
#include "bench.hpp"
#include "cdg/cdg.hpp"
#include "common/rng.hpp"
#include "fault/churn.hpp"
#include "fault/schedule.hpp"
#include "obs/metrics.hpp"
#include "routing/collect.hpp"
#include "routing/sssp.hpp"
#include "service/envelope.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"
#include "topology/generators.hpp"

namespace perf {
namespace {

using namespace dfsssp;

// Figure 9: 128 switches x 16 terminals, 16 fabric ports, the sparse link
// counts, no balancing, a 16-VL budget (count the demand, do not clip).
constexpr std::uint32_t kSwitches = 128;
constexpr std::uint32_t kTerminals = 16;
constexpr std::uint32_t kPorts = 16;
constexpr std::array<std::uint32_t, 7> kLinkCounts{140, 160, 180, 200,
                                                    240, 280, 320};
constexpr std::uint32_t kFabricsPerCount = 2;
constexpr Layer kMaxLayers = 16;
constexpr int kSetupRepeats = 9;
// A timed run is a sequence of rounds, each one pass over the fabric set
// and a burst of Deimos lookups, repeated for kRoundShare of --seconds (at
// least kMinRounds); the first kMinRounds also make a slice of the Deimos
// repairs. Interleaving spreads every metric's samples over the whole run,
// so a few seconds of contention on a shared host shift all of them a
// little instead of one of them a lot; pass and route times are sums of
// per-fabric medians.
constexpr double kRoundShare = 0.85;
constexpr int kMinRounds = 4;
constexpr int kMaxRounds = 16;
constexpr std::uint32_t kRepairsPerRound = kRepairs / kMinRounds;
constexpr std::uint64_t kLookupsPerRound = 200000;

struct Fabric {
  Topology topo;
  RankMap ranks;
};

std::vector<Fabric> make_fabrics(std::uint64_t seed) {
  std::vector<Fabric> out;
  for (std::uint32_t links : kLinkCounts) {
    for (std::uint32_t f = 0; f < kFabricsPerCount; ++f) {
      Rng rng(derive_seed(seed, links * 64ULL + f));
      Fabric fab{make_random(kSwitches, kTerminals, links, kPorts, rng), {}};
      fab.ranks = RankMap::round_robin(
          fab.topo.net,
          static_cast<std::uint32_t>(fab.topo.net.num_terminals()));
      out.push_back(std::move(fab));
    }
  }
  return out;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

bool certified(const Network& net, const RoutingTable& table,
               std::uint64_t* deps_checked = nullptr) {
  const CertificateResult cert = make_certificate(net, table);
  if (!cert.ok) return false;
  const CertCheckResult check = check_certificate(net, table, cert.cert);
  if (deps_checked != nullptr) *deps_checked += check.deps_checked;
  return check.ok;
}

double ebb_of(const Fabric& f, const RoutingTable& table, std::uint64_t seed) {
  Rng rng(seed);
  return effective_bisection_bandwidth(f.topo.net, table, f.ranks,
                                       kEbbPatterns, rng)
      .ebb;
}

/// Per-fabric times of the timed passes, one sample per round.
struct PassSamples {
  std::vector<std::vector<double>> pass_s, route_s;  // [fabric][round]
  std::uint64_t layers = 0;  // of the first pass
  double ebb_sum = 0.0;      // of the first pass (offline)
};

/// One timed pass: route + certify (+ eBB), the user-visible work.
/// `keep`, when set, receives every routed table.
void timed_pass(const std::vector<Fabric>& fabrics, const DfssspRouter& router,
                bool with_ebb, std::uint64_t ebb_seed, PassSamples& samples,
                Report& report, std::vector<RoutingTable>* keep) {
  const bool first = samples.pass_s.empty();
  if (first) {
    samples.pass_s.resize(fabrics.size());
    samples.route_s.resize(fabrics.size());
  }
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const Fabric& f = fabrics[i];
    const double t0 = now_s();
    RouteResponse r = router.route(RouteRequest(f.topo, kMaxLayers));
    const double t1 = now_s();
    if (!r.ok) {
      report.attempt(false, f.topo.name, r.error);
      continue;
    }
    report.attempt(certified(f.topo.net, r.table), f.topo.name,
                   "certificate rejected");
    double ebb = 0.0;
    if (with_ebb) ebb = ebb_of(f, r.table, derive_seed(ebb_seed, i));
    samples.pass_s[i].push_back(now_s() - t0);
    samples.route_s[i].push_back(t1 - t0);
    if (first) {
      samples.layers += r.stats.layers_used;
      samples.ebb_sum += ebb;
    }
    if (keep != nullptr) keep->push_back(std::move(r.table));
  }
}

double sum_of_medians(const std::vector<std::vector<double>>& per_fabric) {
  double sum = 0.0;
  for (const std::vector<double>& samples : per_fabric) sum += median(samples);
  return sum;
}

/// Per-layer times and counts of one traced pass.
struct LayerTotals {
  double pass_s = 0.0, route_s = 0.0;
  double sssp_s = 0.0, collect_s = 0.0, build_s = 0.0, layering_s = 0.0;
  double certify_s = 0.0, ebb_s = 0.0;
  std::uint64_t heap_pops = 0, paths = 0, dependencies = 0;
  std::uint64_t cycles_broken = 0, cycle_search_steps = 0, paths_migrated = 0;
  std::uint64_t acyclicity_checks = 0, pk_reorders = 0, deps_checked = 0;
};

/// The traced pass. Offline runs the router's public steps one by one
/// (route_sssp -> collect_paths -> assign_layers_offline -> write layers);
/// online calls the router and splits its layering time with a second
/// collect_paths. Probes (the layer-0 Cdg build, the online re-collect)
/// are timed on their own and excluded from the traced pass and route.
LayerTotals traced_pass(const std::vector<Fabric>& fabrics,
                        const DfssspRouter& router, LayeringMode mode,
                        bool in_pass_ebb, std::uint64_t ebb_seed,
                        Report& report) {
  LayerTotals t;
  const std::uint64_t pops0 = counter("sssp/heap_pops");
  const std::uint64_t steps0 = counter("cdg/cycle_search_steps");
  const std::uint64_t migrated0 = counter("cdg/paths_migrated");
  const std::uint64_t checks0 = counter("dfsssp/acyclicity_checks");
  const std::uint64_t reorders0 = counter("dfsssp/pk_reorders");
  double probes_s = 0.0;
  const double start = now_s();
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const Fabric& f = fabrics[i];
    const Network& net = f.topo.net;
    const auto num_channels = static_cast<std::uint32_t>(net.num_channels());
    RoutingTable table;
    PathSet paths;
    const double t0 = now_s();
    if (mode == LayeringMode::kOffline) {
      RouteResponse out = route_sssp(net, SsspOptions{.balance = true});
      const double t1 = now_s();
      if (!out.ok) {
        report.attempt(false, f.topo.name, out.error);
        continue;
      }
      paths = collect_paths(net, out.table);
      const double t2 = now_s();
      LayerOptions lopts;
      lopts.max_layers = kMaxLayers;
      lopts.heuristic = CycleHeuristic::kWeakestEdge;
      lopts.balance = false;
      LayerResult res = assign_layers_offline(paths, num_channels, lopts);
      const double t3 = now_s();
      if (!res.ok) {
        report.attempt(false, f.topo.name, res.error);
        continue;
      }
      for (std::uint32_t p = 0; p < paths.size(); ++p) {
        out.table.set_layer(net.switch_by_index(paths.src_switch_index(p)),
                            net.terminal_by_index(paths.dst_terminal_index(p)),
                            res.layer[p]);
      }
      out.table.set_num_layers(res.layers_used);
      const double t4 = now_s();
      t.sssp_s += t1 - t0;
      t.collect_s += t2 - t1;
      t.layering_s += t3 - t2;
      t.route_s += t4 - t0;
      t.cycles_broken += res.cycles_broken;
      table = std::move(out.table);
    } else {
      RouteResponse r = router.route(RouteRequest(f.topo, kMaxLayers));
      t.route_s += now_s() - t0;
      if (!r.ok) {
        report.attempt(false, f.topo.name, r.error);
        continue;
      }
      const double p0 = now_s();
      paths = collect_paths(net, r.table);
      const double collect = now_s() - p0;
      probes_s += collect;
      t.sssp_s += r.stats.route_seconds;
      t.collect_s += collect;
      t.layering_s += r.stats.layering_seconds - collect;
      table = std::move(r.table);
    }
    t.paths += paths.size();
    {
      std::vector<std::uint32_t> members(paths.size());
      std::iota(members.begin(), members.end(), 0u);
      const double p0 = now_s();
      const Cdg cdg(paths, members, num_channels);
      const double build = now_s() - p0;
      t.build_s += build;
      probes_s += build;
      t.dependencies += cdg.num_edges();
    }
    const double c0 = now_s();
    report.attempt(certified(net, table, &t.deps_checked), f.topo.name,
                   "certificate rejected");
    t.certify_s += now_s() - c0;
    // Online scores eBB outside its pass (see run_sweep), so its eBB time
    // is a probe here too.
    const double e0 = now_s();
    ebb_of(f, table, derive_seed(ebb_seed, i));
    const double ebb = now_s() - e0;
    t.ebb_s += ebb;
    if (!in_pass_ebb) probes_s += ebb;
  }
  t.pass_s = now_s() - start - probes_s;
  t.heap_pops = counter("sssp/heap_pops") - pops0;
  t.cycle_search_steps = counter("cdg/cycle_search_steps") - steps0;
  t.paths_migrated = counter("cdg/paths_migrated") - migrated0;
  t.acyclicity_checks = counter("dfsssp/acyclicity_checks") - checks0;
  t.pk_reorders = counter("dfsssp/pk_reorders") - reorders0;
  return t;
}


/// The in-process subnet-manager session on Deimos: the router's table
/// answers lookups through the service envelope (no socket), and seeded
/// fault batches are answered by a from-scratch recompute.
class DeimosSession {
 public:
  DeimosSession(const DfssspRouter& router, std::uint64_t seed,
                Report& report)
      : router_(router) {
    const double g0 = now_s();
    topo_ = build_topology_config("deimos");
    generate_s = now_s() - g0;
    const double r0 = now_s();
    RouteResponse base = router.route(RouteRequest(topo_, kMaxLayers));
    route_s = now_s() - r0;
    ok = base.ok && certified(topo_.net, base.table);
    report.attempt(ok, "deimos: initial route failed or was not certified");
    table_ = std::move(base.table);
    schedule_ = deimos_fault_schedule(topo_.net, seed, kRepairs);
    churn_ = std::make_unique<ChurnEngine>(topo_);
  }

  /// `count` lookups continuing the (switch, terminal) walk, answered from
  /// the initial table. Lookup answers are checked structurally, which the
  /// fault state does not change.
  void lookups(std::uint64_t count, bool split, Report& report) {
    using namespace dfsssp::service;
    const Network& net = topo_.net;
    const double start = now_s();
    for (std::uint64_t end = next_lookup_ + count; next_lookup_ < end;
         ++next_lookup_) {
      const std::uint64_t k = next_lookup_;
      ServiceRequest req;
      req.kind = MsgKind::kLookup;
      req.request_id = k;
      std::tie(req.src_switch, req.dst_terminal) = lookup_pair(net, k);
      const double a = now_s();
      const std::string q = encode_request(req);
      ServiceRequest in;
      const Status qs = decode_request(q, in);
      const double b = now_s();
      ServiceResponse resp;
      resp.kind = MsgKind::kLookup;
      resp.request_id = in.request_id;
      resp.snapshot_version = 1;
      resp.next_channel = table_.next(in.src_switch, in.dst_terminal);
      resp.layer = table_.layer(in.src_switch, in.dst_terminal);
      resp.ejected = resp.next_channel == kInvalidChannel;
      const double c = now_s();
      const std::string bytes = encode_response(resp);
      ServiceResponse out;
      const Status rs = decode_response(bytes, out);
      const double d = now_s();
      lookup_ns.add_seconds(d - a);
      if (split) {
        codec_ns.add_seconds((b - a) + (d - c));
        handle_ns.add_seconds(c - b);
      }
      report.attempt(qs == Status::kOk && rs == Status::kOk &&
                         out.request_id == k &&
                         lookup_answer_ok(net, req.src_switch,
                                          req.dst_terminal, out.ejected,
                                          out.next_channel),
                     "lookup answer does not match the fabric");
    }
    lookup_wall_s += now_s() - start;
  }

  /// The next `count` fault batches, each applied and then recomputed and
  /// certified; stops early when the schedule runs out.
  void repairs(std::uint32_t count, Report& report) {
    const auto& events = schedule_.events();
    for (std::uint32_t i = 0;
         i < count && next_event_ + kEventsPerRepair <= events.size(); ++i) {
      const double t0 = now_s();
      churn_->apply_all(std::span<const FaultEvent>(&events[next_event_],
                                                    kEventsPerRepair));
      const double t1 = now_s();
      RouteResponse r = router_.route(RouteRequest(topo_, kMaxLayers));
      const double t2 = now_s();
      repair_ms.push_back((t2 - t0) * 1e3);
      handle_ms.push_back((t2 - t1) * 1e3);
      report.attempt(r.ok && certified(topo_.net, r.table), "deimos repair",
                     r.ok ? "certificate rejected" : r.error);
      if (r.ok) repair_layers += r.stats.layers_used;
      next_event_ += kEventsPerRepair;
    }
  }

  const Network& net() const { return topo_.net; }

  bool ok = false;
  double generate_s = 0.0, route_s = 0.0, lookup_wall_s = 0.0;
  NsHistogram lookup_ns, codec_ns, handle_ns;
  std::vector<double> repair_ms, handle_ms;
  std::uint64_t repair_layers = 0;

 private:
  const DfssspRouter& router_;
  Topology topo_;
  RoutingTable table_;
  FaultSchedule schedule_;
  std::unique_ptr<ChurnEngine> churn_;
  std::uint64_t next_lookup_ = 0;
  std::size_t next_event_ = 0;
};

}  // namespace

void run_sweep(const Args& args, LayeringMode mode, Report& report) {
  const bool offline = mode == LayeringMode::kOffline;
  DfssspOptions opts;
  opts.max_layers = kMaxLayers;
  opts.heuristic = CycleHeuristic::kWeakestEdge;
  opts.balance = false;
  opts.mode = mode;
  const DfssspRouter router(opts);
  const std::uint64_t ebb_seed = derive_seed(args.seed, 0xEBB);

  // Set-up: the fabric set, generated kSetupRepeats times.
  std::vector<double> setups;
  std::vector<Fabric> fabrics;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    fabrics = make_fabrics(args.seed);
    setups.push_back(now_s() - t0);
  }
  std::uint64_t channels = 0;
  for (const Fabric& f : fabrics) channels += f.topo.net.num_channels();
  report.count("fabrics", fabrics.size());
  report.count("fabric_channels", channels);

  DeimosSession deimos(router, args.seed, report);
  if (!deimos.ok) return;

  if (args.trace) {
    const LayerTotals t =
        traced_pass(fabrics, router, mode, offline, ebb_seed, report);
    deimos.lookups(kLookupsPerRound, /*split=*/true, report);
    const std::uint64_t checks0 = counter("dfsssp/acyclicity_checks");
    deimos.repairs(kRepairs, report);
    const std::uint64_t repair_checks =
        counter("dfsssp/acyclicity_checks") - checks0;
    report.count("repairs", deimos.repair_ms.size());
    report.count("repair_layers", deimos.repair_layers);
    const double attributed = t.sssp_s + t.collect_s + t.layering_s +
                              t.certify_s + (offline ? t.ebb_s : 0.0);
    const double repairs = static_cast<double>(deimos.repair_ms.size());
    report.metric("topology.generate_s", median(setups) + deimos.generate_s,
                  "s");
    report.metric("topology.channels",
                  static_cast<double>(channels + deimos.net().num_channels()),
                  "count");
    report.metric("routing.sssp_s", t.sssp_s, "s");
    report.metric("routing.heap_pops", static_cast<double>(t.heap_pops),
                  "count");
    report.metric("routing.collect_s", t.collect_s, "s");
    report.metric("routing.paths", static_cast<double>(t.paths), "count");
    report.metric("cdg.build_s", t.build_s, "s");
    report.metric("cdg.dependencies", static_cast<double>(t.dependencies),
                  "count");
    report.metric("cdg.layering_s", t.layering_s, "s");
    report.metric("cdg.cycles_broken", static_cast<double>(t.cycles_broken),
                  "count");
    report.metric("cdg.cycle_search_steps",
                  static_cast<double>(t.cycle_search_steps), "count");
    report.metric("cdg.paths_migrated", static_cast<double>(t.paths_migrated),
                  "count");
    report.metric("cdg.acyclicity_checks",
                  static_cast<double>(t.acyclicity_checks), "count");
    report.metric("cdg.pk_reorders", static_cast<double>(t.pk_reorders),
                  "count");
    report.metric("analysis.certify_s", t.certify_s, "s");
    report.metric("analysis.deps_checked",
                  static_cast<double>(t.deps_checked), "count");
    report.metric("sim.ebb_s", t.ebb_s, "s");
    report.metric("sim.patterns",
                  static_cast<double>(kEbbPatterns * fabrics.size()), "count");
    report.metric("service.route_s", deimos.route_s, "s");
    // Means, not medians: these parts take tens of nanoseconds, where a
    // median at the clock's 1 ns resolution can repeat exactly.
    report.metric("service.codec_us", deimos.codec_ns.mean_ns() * 1e-3, "us");
    report.metric("service.lookup_handle_us",
                  deimos.handle_ns.mean_ns() * 1e-3, "us");
    report.metric("service.lookups",
                  static_cast<double>(deimos.lookup_ns.count()), "count");
    report.metric("fault.repair_handle_ms",
                  report.percentile("fault.repair_handle_ms",
                                    deimos.handle_ms, 0.5),
                  "ms");
    // Every repair here is a from-scratch recompute of every destination;
    // none migrates paths incrementally.
    report.metric("fault.repairs", repairs, "count");
    report.metric("fault.full_recomputes", repairs, "count");
    report.metric("fault.destinations_rerouted",
                  repairs * static_cast<double>(deimos.net().num_terminals()),
                  "count");
    report.metric("fault.paths_migrated", 0.0, "count");
    report.metric("fault.acyclicity_checks",
                  static_cast<double>(repair_checks), "count");
    report.metric("trace.pass_s", t.pass_s, "s");
    report.metric("trace.route_s", t.route_s, "s");
    report.metric("trace.attributed_pct", 100.0 * attributed / t.pass_s, "%");
    return;
  }

  // Repairs ride on the first kMinRounds rounds only, so every run of one
  // seed repairs the same fault history.
  PassSamples passes;
  std::vector<RoutingTable> online_tables;
  const double start = now_s();
  int rounds = 0;
  do {
    timed_pass(fabrics, router, offline, ebb_seed, passes, report,
               rounds == 0 && !offline ? &online_tables : nullptr);
    deimos.lookups(kLookupsPerRound, /*split=*/false, report);
    if (rounds < kMinRounds) deimos.repairs(kRepairsPerRound, report);
    ++rounds;
  } while (rounds < kMinRounds ||
           (rounds < kMaxRounds &&
            now_s() - start < args.seconds * kRoundShare));

  // eBB is part of the offline pass. Online scores its first pass's tables
  // once, outside the timed passes: its paths, hence its eBB, equal
  // offline's, so the eBB step would only dilute the layering signal.
  double ebb_sum = passes.ebb_sum;
  for (std::size_t i = 0; i < online_tables.size(); ++i) {
    ebb_sum += ebb_of(fabrics[i], online_tables[i], derive_seed(ebb_seed, i));
  }

  report.count("layers", passes.layers);
  report.count("repairs", deimos.repair_ms.size());
  report.count("repair_layers", deimos.repair_layers);
  report.metric("setup_s", median(setups), "s");
  report.metric("pass_s", sum_of_medians(passes.pass_s), "s");
  report.metric("route_s", sum_of_medians(passes.route_s), "s");
  report.metric("layers", static_cast<double>(passes.layers), "count");
  report.metric("ebb", ebb_sum / static_cast<double>(fabrics.size()), "ratio");
  report.metric("lookups_per_s",
                static_cast<double>(deimos.lookup_ns.count()) /
                    deimos.lookup_wall_s,
                "1/s");
  report.metric("lookup_p50_us",
                report.percentile_us("lookup_p50_us", deimos.lookup_ns, 0.5),
                "us");
  report.metric("lookup_p99_us",
                report.percentile_us("lookup_p99_us", deimos.lookup_ns, 0.99),
                "us");
  report.metric("repair_p50_ms",
                report.percentile("repair_p50_ms", deimos.repair_ms, 0.5),
                "ms");
  report.metric("repair_p90_ms",
                report.percentile("repair_p90_ms", deimos.repair_ms, 0.9),
                "ms");
  report.metric("peak_rss_mib", own_peak_rss_mib(), "MiB");
}

}  // namespace perf
