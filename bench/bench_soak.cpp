// Routing-service soak: interleaved churn and lookup traffic.
//
// Drives a ServiceCore — the dfrouted daemon's brain — through the FULL
// wire path (encode_request → handle → encode/decode_response) with
// concurrent lookup clients hammering the RCU forwarding snapshot while
// the driver thread feeds fault-event batches and repairs through the
// engine. This is the end-to-end latency picture of the service PR:
//
//   * lookup p50/p99 — what a forwarding query costs while the fabric
//     churns underneath it (the RCU swap is the whole point: lookups
//     never wait for a repair);
//   * repair p50/p99 — fault-batch coalescing + incremental DFSSSP repair
//     + snapshot publication, per batch;
//   * snapshot swaps, coalesced events, veto/fallback counts.
//
// Latency percentiles are wall clock and land in the --json report's
// timing_stats (service/lookup_p50_ms, ...), which the perf gate noise-
// checks against baselines/BENCH_soak.json; every deterministic count
// (requests, repairs, swaps, fault/* provenance) lands in `metrics` and is
// exact-diffed.
//
// Extra flags on top of the bench_util set:
//   --topo=SPEC       the fabric, a topology spec as `dfrouted --topo`
//                     takes it (default kary-tree:16:2); the journal
//                     header records it
//   --events=E        churn events to generate (default 200)
//   --event-seed=S    schedule seed, any u64
//   --batch=B         fault events coalesced per repair (default 4)
//   --clients=C       concurrent lookup client threads, 1..256 (default 4)
//   --lookups=L       total lookups across all clients (default 2000)
//   --journal=0|1     flight recorder on the service core (default on,
//                     so baselines price in the recording cost)
//   --journal-file=P  also append the DFJR segment to P (for dfreplay)
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fault/schedule.hpp"
#include "obs/report/stats.hpp"
#include "service/core.hpp"
#include "service/envelope.hpp"

using namespace dfsssp;
using namespace dfsssp::bench;
using namespace dfsssp::service;

namespace {

/// Sends one request through the complete wire path: serialize, decode on
/// the "server", handle, serialize the response, decode it back. Keeps the
/// bench honest about envelope cost and round-trip fidelity.
ServiceResponse wire_call(ServiceCore& core, const ServiceRequest& req) {
  ServiceRequest decoded;
  if (decode_request(encode_request(req), decoded) != Status::kOk) {
    ServiceResponse bad;
    bad.status = Status::kErrMalformed;
    return bad;
  }
  ServiceResponse resp = core.handle(decoded);
  ServiceResponse round;
  if (decode_response(encode_response(resp), round) != Status::kOk) {
    ServiceResponse bad;
    bad.status = Status::kErrMalformed;
    return bad;
  }
  return round;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::parse(argc, argv);
  // Table cells embed wall clock; keep them out of the dfbench quality gate.
  cfg.tables_deterministic = false;
  Cli cli(argc, argv);
  const std::string topo_spec = cli.get("topo", "kary-tree:16:2");
  const std::uint32_t events = cli.get_count("events", 200);
  const std::uint64_t event_seed = cli.get_count(
      "event-seed", 0x50AC, std::numeric_limits<std::uint64_t>::max(), 0);
  const std::size_t batch = cli.get_count("batch", 4);
  // Each client is a thread.
  const auto clients =
      static_cast<std::uint32_t>(cli.get_count("clients", 4, kMaxThreads));
  const std::uint64_t lookups = cli.get_count("lookups", 2000);

  Topology topo = cfg.fabric(topo_spec);
  std::printf("fabric: %s (%zu switches, %zu terminals, %zu channels)\n",
              topo.name.c_str(), topo.net.num_switches(),
              topo.net.num_terminals(), topo.net.num_channels());
  const std::vector<NodeId> switches(topo.net.switches().begin(),
                                     topo.net.switches().end());
  const std::vector<NodeId> terminals(topo.net.terminals().begin(),
                                      topo.net.terminals().end());
  const FaultSchedule schedule =
      FaultSchedule::random(topo.net, {.num_events = events}, event_seed);

  ServiceCoreOptions core_options;
  // Journal on by default: the soak baseline prices in the recording cost
  // (ring append + DFJR frame + per-publish digests on the mutation path;
  // lookups are never journaled).
  core_options.journal = cli.get_bool("journal", true);
  core_options.journal_path = cli.get("journal-file", "");
  core_options.journal_config = topo_spec;
  ServiceCore core(std::move(topo), core_options);

  // Initial route over the wire path.
  ServiceRequest route_req;
  route_req.kind = MsgKind::kRoute;
  route_req.request_id = 1;
  const ServiceResponse routed = wire_call(core, route_req);
  if (routed.status != Status::kOk) {
    std::fprintf(stderr, "initial route failed: %s\n", routed.error.c_str());
    return 1;
  }

  // Lookup clients: fixed per-thread request counts (so every counter is
  // deterministic), deterministic (src, dst) walks, latencies kept in
  // thread-local vectors and merged after the join. No trace spans on
  // these threads — the profiler tree must stay deterministic.
  const std::uint64_t per_client = lookups / clients;
  std::vector<std::vector<double>> client_lat(clients);
  std::vector<std::uint64_t> client_errors(clients, 0);
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (std::uint32_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      std::vector<double>& lat = client_lat[c];
      lat.reserve(per_client);
      std::size_t src_i = c % switches.size();
      std::size_t dst_i = (c * 37) % terminals.size();
      for (std::uint64_t i = 0; i < per_client; ++i) {
        ServiceRequest req;
        req.kind = MsgKind::kLookup;
        req.request_id = i + 1;
        req.src_switch = switches[src_i];
        req.dst_terminal = terminals[dst_i];
        Timer t;
        const ServiceResponse resp = wire_call(core, req);
        lat.push_back(t.milliseconds());
        if (resp.status != Status::kOk) ++client_errors[c];
        src_i = (src_i + 7) % switches.size();
        dst_i = (dst_i + 1) % terminals.size();
      }
    });
  }

  // Driver: feed fault events in batches, one repair per batch, all
  // through the wire path, while the clients run.
  std::vector<double> repair_lat;
  std::uint64_t coalesced = 0;
  std::uint32_t repairs = 0, repair_errors = 0, fallbacks = 0;
  std::uint64_t request_id = 2;
  for (std::size_t i = 0; i < schedule.size(); i += batch) {
    const std::size_t count = std::min(batch, schedule.size() - i);
    for (std::size_t j = 0; j < count; ++j) {
      const FaultEvent& e = schedule[i + j];
      ServiceRequest fault_req;
      fault_req.kind = MsgKind::kFaultEvent;
      fault_req.request_id = request_id++;
      fault_req.fault_kind = static_cast<std::uint8_t>(e.kind);
      fault_req.channel = e.channel;
      fault_req.sw = e.sw;
      if (wire_call(core, fault_req).status != Status::kOk) ++repair_errors;
    }
    ServiceRequest repair_req;
    repair_req.kind = MsgKind::kRepair;
    repair_req.request_id = request_id++;
    Timer t;
    const ServiceResponse resp = wire_call(core, repair_req);
    repair_lat.push_back(t.milliseconds());
    ++repairs;
    if (resp.status != Status::kOk) {
      ++repair_errors;
    } else {
      coalesced += resp.events_coalesced;
      if (!resp.incremental) ++fallbacks;
    }
  }
  for (std::thread& t : client_threads) t.join();

  std::vector<double> lookup_lat;
  std::uint64_t lookup_errors = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    lookup_lat.insert(lookup_lat.end(), client_lat[c].begin(),
                      client_lat[c].end());
    lookup_errors += client_errors[c];
  }

  if (const obs::journal::Journal* journal = core.journal()) {
    const obs::journal::JournalStats js = journal->stats();
    std::printf("journal: %llu records (%llu dropped)%s%s\n",
                static_cast<unsigned long long>(js.appended),
                static_cast<unsigned long long>(js.dropped),
                js.sink_path.empty() ? "" : ", sink ",
                js.sink_path.c_str());
    if (js.sink_failed) {
      std::fprintf(stderr, "journal sink FAILED: %s\n",
                   core.journal()->error().c_str());
      return 1;
    }
  }

  const auto info_snapshot = core.snapshot();
  const double lookup_p50 = percentile(lookup_lat, 0.50);
  const double lookup_p99 = percentile(lookup_lat, 0.99);
  const double repair_p50 = percentile(repair_lat, 0.50);
  const double repair_p99 = percentile(repair_lat, 0.99);

  // Percentiles into the report's (noise-gated) timing_stats.
  cfg.extra_timing_stats["service/lookup_p50_ms"] = obs::TimingStat{
      lookup_p50, obs::mad(lookup_lat, obs::median(lookup_lat)),
      static_cast<std::uint32_t>(lookup_lat.size())};
  cfg.extra_timing_stats["service/lookup_p99_ms"] = obs::TimingStat{
      lookup_p99, 0.0, static_cast<std::uint32_t>(lookup_lat.size())};
  cfg.extra_timing_stats["service/repair_p50_ms"] = obs::TimingStat{
      repair_p50, obs::mad(repair_lat, obs::median(repair_lat)),
      static_cast<std::uint32_t>(repair_lat.size())};
  cfg.extra_timing_stats["service/repair_p99_ms"] = obs::TimingStat{
      repair_p99, 0.0, static_cast<std::uint32_t>(repair_lat.size())};

  Table table("Service soak: churn + concurrent lookups",
              {"events", "repairs", "coalesced", "fallbacks", "swaps",
               "lookups", "lookup p50 ms", "lookup p99 ms", "repair p50 ms",
               "repair p99 ms", "errors"});
  table.row()
      .cell(static_cast<std::uint64_t>(schedule.size()))
      .cell(repairs)
      .cell(coalesced)
      .cell(fallbacks)
      .cell(info_snapshot ? info_snapshot->version : 0)
      .cell(static_cast<std::uint64_t>(lookup_lat.size()))
      .cell(fmt_or_dash(lookup_p50, 4))
      .cell(fmt_or_dash(lookup_p99, 4))
      .cell(fmt_or_dash(repair_p50, 3))
      .cell(fmt_or_dash(repair_p99, 3))
      .cell(lookup_errors + repair_errors);
  cfg.emit(table);
  return lookup_errors + repair_errors == 0 ? 0 : 1;
}
