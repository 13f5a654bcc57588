// Google-benchmark microbenchmarks of the hot kernels: the per-destination
// Dijkstra loop, the offline CDG build alone and with the resumable cycle
// search, the Pearce-Kelly online CDG (one CDG, and DFSSSP(online)'s
// first-fit over layers), the incremental engine's repair, the
// certificate's maker and checker, the heap, and one congestion-simulation
// pattern.
#include <benchmark/benchmark.h>

#include <numeric>
#include <span>

#include "analysis/certificate.hpp"
#include "cdg/cdg.hpp"
#include "cdg/online.hpp"
#include "common/heap.hpp"
#include "common/rng.hpp"
#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "fault/schedule.hpp"
#include "routing/collect.hpp"
#include "routing/dfsssp.hpp"
#include "routing/minhop.hpp"
#include "routing/sssp.hpp"
#include "sim/congestion.hpp"
#include "topology/generators.hpp"

namespace dfsssp {
namespace {

void BM_MinHopRoute(benchmark::State& state) {
  Topology topo = make_kary_ntree(static_cast<std::uint32_t>(state.range(0)), 2);
  MinHopRouter router;
  for (auto _ : state) {
    RouteResponse out = router.route(RouteRequest(topo));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(topo.net.num_terminals()));
}
BENCHMARK(BM_MinHopRoute)->Arg(6)->Arg(10)->Arg(16);

void BM_SsspRoute(benchmark::State& state) {
  Topology topo = make_kary_ntree(static_cast<std::uint32_t>(state.range(0)), 2);
  SsspRouter router;
  for (auto _ : state) {
    RouteResponse out = router.route(RouteRequest(topo));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(topo.net.num_terminals()));
}
BENCHMARK(BM_SsspRoute)->Arg(6)->Arg(10)->Arg(16);

void BM_OfflineLayering(benchmark::State& state) {
  Rng rng(42);
  Topology topo = make_random(static_cast<std::uint32_t>(state.range(0)), 8,
                              static_cast<std::uint32_t>(state.range(0)) * 2,
                              16, rng);
  RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
  PathSet paths = collect_paths(topo.net, sssp.table);
  for (auto _ : state) {
    LayerResult r = assign_layers_offline(
        paths, static_cast<std::uint32_t>(topo.net.num_channels()),
        LayerOptions{.max_layers = 16});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_OfflineLayering)->Arg(16)->Arg(32)->Arg(64);

void BM_OnlineCdgInsert(benchmark::State& state) {
  Rng rng(43);
  Topology topo = make_random(32, 8, 64, 16, rng);
  RouteResponse sssp = SsspRouter().route(RouteRequest(topo));
  PathSet paths = collect_paths(topo.net, sssp.table);
  for (auto _ : state) {
    OnlineCdg cdg(static_cast<std::uint32_t>(topo.net.num_channels()));
    std::uint64_t accepted = 0;
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      accepted += cdg.try_add_path(paths.channels(p));
    }
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_OnlineCdgInsert);

// All paths of one Figure 9 fabric (128 switches x 16 terminals, 200 links,
// the seed-0 fabric of bench_fig9_vl_random) under balanced SSSP.
struct Fig9Paths {
  PathSet paths;
  std::uint32_t num_channels = 0;
};

Topology fig9_topology() {
  Rng rng(0xF169'0000ULL + 200);
  return make_random(128, 16, 200, 16, rng);
}

Fig9Paths fig9_paths() {
  const Topology topo = fig9_topology();
  RouteResponse sssp = route_sssp(topo.net, SsspOptions{.balance = true});
  return {collect_paths(topo.net, sssp.table),
          static_cast<std::uint32_t>(topo.net.num_channels())};
}

// The Cdg build alone over every path of that fabric: what layer 0 of
// Algorithm 2 pays before any search. Items = (u, v, path) dependencies
// bucketed.
void BM_CdgBuild(benchmark::State& state) {
  const Fig9Paths fabric = fig9_paths();
  std::vector<std::uint32_t> members(fabric.paths.size());
  std::iota(members.begin(), members.end(), 0U);
  std::int64_t triples = 0;
  for (std::uint32_t p : members) {
    const std::size_t hops = fabric.paths.channels(p).size();
    if (hops >= 2) triples += static_cast<std::int64_t>(hops - 1);
  }
  for (auto _ : state) {
    Cdg cdg(fabric.paths, members, fabric.num_channels);
    benchmark::DoNotOptimize(cdg);
  }
  state.SetItemsProcessed(state.iterations() * triples);
}
BENCHMARK(BM_CdgBuild);

// DFSSSP(online)'s first-fit (FirstFitLayerer) on the same fabric, where
// almost every reorder ends in a cycle reject.
void BM_OnlineFirstFit(benchmark::State& state) {
  constexpr Layer kMaxLayers = 16;
  const Fig9Paths fabric = fig9_paths();
  const PathSet& paths = fabric.paths;
  for (auto _ : state) {
    FirstFitLayerer layers(fabric.num_channels, kMaxLayers);
    std::uint64_t placed = 0;
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      if (seq.size() < 2) continue;
      placed += layers.place(seq) != kInvalidLayer ? 1 : 0;
    }
    benchmark::DoNotOptimize(placed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_OnlineFirstFit);

// IncrementalDfsssp's repair on Deimos: each iteration routes a pristine
// copy from scratch (untimed), then times 25 batches of 4 link events, each
// applied and repaired, from a fixed link-only schedule. Items = paths
// migrated by the repairs.
void BM_IncrementalRepair(benchmark::State& state) {
  constexpr std::size_t kBatch = 4;
  const Topology pristine = make_deimos();
  FaultScheduleOptions options;
  options.num_events = 25 * kBatch;
  options.switch_down_weight = 0;
  options.switch_up_weight = 0;
  const FaultSchedule schedule =
      FaultSchedule::random(pristine.net, options, 0xDE1405);
  std::int64_t migrated = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Topology topo = pristine;
    ChurnEngine churn(topo);
    IncrementalDfsssp inc;
    inc.route(RouteRequest(topo));
    state.ResumeTiming();
    for (std::size_t i = 0; i + kBatch <= schedule.size(); i += kBatch) {
      const ChurnDelta delta = churn.apply_all(
          std::span<const FaultEvent>(schedule.events().data() + i, kBatch));
      if (!delta.applied) continue;
      RouteResponse out = inc.repair(RouteRequest(topo), delta);
      migrated += static_cast<std::int64_t>(out.repair.paths_migrated);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(migrated);
}
BENCHMARK(BM_IncrementalRepair);

// The certificate of that fabric's DFSSSP(online) routing, routed once
// outside the timed loop: the maker's early-stopping table walk plus one
// Kahn sort per layer, and the checker's full walk of every path.
// Items = (source switch, destination) paths certified.
RouteResponse fig9_online(const Topology& topo) {
  DfssspOptions opts;
  opts.mode = LayeringMode::kOnline;
  opts.max_layers = 16;
  return DfssspRouter(opts).route(RouteRequest(topo));
}

void BM_MakeCertificate(benchmark::State& state) {
  const Topology topo = fig9_topology();
  const RouteResponse out = fig9_online(topo);
  const std::uint64_t paths =
      check_certificate(topo.net, out.table,
                        make_certificate(topo.net, out.table).cert)
          .paths_checked;
  for (auto _ : state) {
    CertificateResult cert = make_certificate(topo.net, out.table);
    benchmark::DoNotOptimize(cert);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths));
}
BENCHMARK(BM_MakeCertificate);

void BM_CheckCertificate(benchmark::State& state) {
  const Topology topo = fig9_topology();
  const RouteResponse out = fig9_online(topo);
  const Certificate cert = make_certificate(topo.net, out.table).cert;
  std::uint64_t paths = 0;
  for (auto _ : state) {
    CertCheckResult check = check_certificate(topo.net, out.table, cert);
    paths = check.paths_checked;
    benchmark::DoNotOptimize(check);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths));
}
BENCHMARK(BM_CheckCertificate);

void BM_HeapPushPop(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  MinHeap<std::uint64_t> heap(n);
  for (auto _ : state) {
    heap.reset(n);
    for (std::uint32_t i = 0; i < n; ++i) heap.push(keys[i], i);
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HeapPushPop)->Arg(1024)->Arg(16384);

void BM_CongestionPattern(benchmark::State& state) {
  Topology topo = make_deimos();
  RouteResponse out = DfssspRouter().route(RouteRequest(topo));
  RankMap map = RankMap::round_robin(
      topo.net, static_cast<std::uint32_t>(topo.net.num_terminals()));
  Rng rng(11);
  Flows flows = map.to_flows(random_bisection(map.num_ranks(), rng));
  for (auto _ : state) {
    PatternResult r = simulate_pattern(topo.net, out.table, flows);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_CongestionPattern);

}  // namespace
}  // namespace dfsssp

BENCHMARK_MAIN();
