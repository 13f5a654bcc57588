#include "service/core.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/timer.hpp"
#include "obs/rusage.hpp"
#include "routing/registry.hpp"
#include "service/digest.hpp"

namespace dfsssp::service {

ServiceCore::ServiceCore(Topology topo, ServiceCoreOptions options)
    : topo_(std::move(topo)),
      churn_(topo_),
      engine_key_(options.engine),
      max_layers_(options.max_layers),
      requests_(obs::registry().counter("service/requests")),
      lookups_(obs::registry().counter("service/lookups")),
      repairs_(obs::registry().counter("service/repairs")),
      routes_(obs::registry().counter("service/routes")),
      fault_events_(obs::registry().counter("service/fault_events")),
      snapshot_swaps_(obs::registry().counter("service/snapshot_swaps")),
      errors_(obs::registry().counter("service/errors")),
      draining_rejects_(obs::registry().counter("service/draining_rejects")),
      pending_events_gauge_(obs::registry().gauge("service/pending_events")),
      snapshot_version_gauge_(
          obs::registry().gauge("service/snapshot_version")),
      lookup_ns_(obs::registry().timing_histogram("service/lookup_ns")),
      repair_ns_(obs::registry().timing_histogram("service/repair_ns")),
      route_ns_(obs::registry().timing_histogram("service/route_ns")) {
  start_ns_ = Timer::now_ns();
  if (options.journal) {
    obs::journal::Journal::Options jopts;
    jopts.capacity = options.journal_capacity;
    jopts.path = options.journal_path;
    jopts.topo_config = options.journal_config;
    jopts.engine = engine_key_;
    jopts.max_layers = max_layers_;
    journal_ = std::make_unique<obs::journal::Journal>(std::move(jopts));
    if (!journal_->sink_ok()) {
      throw std::runtime_error("journal: " + journal_->error());
    }
  }
  if (engine_key_ == "dfsssp") {
    incremental_ = std::make_unique<IncrementalDfsssp>(
        IncrementalOptions{.max_layers = max_layers_});
  } else {
    router_ = routing::make_router(engine_key_, max_layers_);
    if (!router_) {
      throw std::invalid_argument("unknown routing engine '" + engine_key_ +
                                  "' (have: " + routing::engine_names() +
                                  ")");
    }
  }
}

ServiceResponse ServiceCore::handle(const ServiceRequest& request) {
  requests_.inc();
  ServiceResponse resp;
  if (draining() && request.kind != MsgKind::kShutdown) {
    draining_rejects_.inc();
    resp = error_response(request, Status::kErrDraining,
                          "daemon is draining");
  } else {
    switch (request.kind) {
      case MsgKind::kRoute:
        resp = do_route(request);
        break;
      case MsgKind::kRepair:
        resp = do_repair(request);
        break;
      case MsgKind::kFaultEvent:
        resp = do_fault_event(request);
        break;
      case MsgKind::kLookup:
        resp = do_lookup(request);
        break;
      case MsgKind::kStats:
        resp = do_stats(request);
        break;
      case MsgKind::kSnapshotInfo:
        resp = do_snapshot_info(request);
        break;
      case MsgKind::kJournalTail:
        resp = do_journal_tail(request);
        break;
      case MsgKind::kJournalStats:
        resp = do_journal_stats(request);
        break;
      case MsgKind::kShutdown:
        begin_drain();
        resp.kind = MsgKind::kShutdown;
        resp.request_id = request.request_id;
        break;
    }
  }
  if (resp.status != Status::kOk) {
    errors_.inc();
    // Per status as well, so a client's wrong-type probes (bad_argument)
    // do not hide failed routes or draining rejects in the total.
    obs::registry()
        // NOLINTNEXTLINE(dfs-metric-name-literal): bounded by the Status enum
        .counter(std::string("service/errors/") + to_string(resp.status))
        .inc();
  }
  return resp;
}

ServiceResponse ServiceCore::publish(const ServiceRequest& r,
                                     RouteResponse route,
                                     std::uint64_t elapsed_ns) {
  if (!route.ok) {
    return error_response(r, Status::kErrRouteFailed, route.error);
  }
  auto snap = std::make_shared<ForwardingSnapshot>();
  snap->table = std::move(route.table);
  snap->layers_used = route.stats.layers_used;
  snap->paths = route.stats.paths;
  const std::uint64_t version = slot_.publish(std::move(snap));
  snapshot_swaps_.inc();
  snapshot_version_gauge_.set(version);

  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.snapshot_version = version;
  resp.layers = route.stats.layers_used;
  resp.paths = route.stats.paths;
  resp.elapsed_ns = elapsed_ns;
  resp.incremental = route.repair.incremental;
  resp.destinations_rerouted = route.repair.destinations_rerouted;
  resp.paths_migrated = route.repair.paths_migrated;
  return resp;
}

void ServiceCore::journal_mutation(const ServiceRequest& r,
                                   const ServiceResponse& resp,
                                   std::uint64_t ts,
                                   std::uint64_t version_before,
                                   bool fallback,
                                   std::uint64_t latency_ns) {
  const bool ok = resp.status == Status::kOk;
  std::uint64_t tdig = 0;
  std::uint64_t cdig = 0;
  if (ok) {
    const std::shared_ptr<const ForwardingSnapshot> snap = slot_.load();
    tdig = table_digest(topo_.net, snap->table);
    // The certificate is recomputed from the published table — canonical
    // and thread-count invariant — so its digest pins the generation's
    // deadlock-freedom proof. A broken walk (cannot happen for a table the
    // engine just accepted) degrades to digest 0 rather than killing the
    // daemon.
    try {
      const CertificateResult cert = make_certificate(topo_.net, snap->table);
      if (cert.ok) cdig = certificate_digest(cert.cert);
    } catch (const std::exception&) {
      cdig = 0;
    }
  }

  obs::journal::Record rec;
  rec.logical_ts = ts;
  rec.version_before = version_before;
  rec.version_after = ok ? resp.snapshot_version : version_before;
  rec.layers = static_cast<std::uint8_t>(ok ? resp.layers : 0);
  rec.paths = ok ? resp.paths : 0;
  rec.table_digest = tdig;
  rec.cert_digest = cdig;

  if (ok && resp.snapshot_version != version_before) {
    obs::journal::Record swap = rec;
    swap.kind = obs::journal::EventKind::kSnapshotSwap;
    journal_->append(swap);
  }

  rec.kind = r.kind == MsgKind::kRoute ? obs::journal::EventKind::kRoute
                                       : obs::journal::EventKind::kRepair;
  rec.flags = (ok ? obs::journal::kFlagOk : 0) |
              (ok && resp.incremental ? obs::journal::kFlagIncremental : 0) |
              (fallback ? obs::journal::kFlagFallback : 0);
  rec.count = resp.events_coalesced;
  rec.destinations_rerouted = resp.destinations_rerouted;
  rec.latency_ns = latency_ns;
  rec.req_max_layers = r.max_layers;
  journal_->append(rec);
}

ServiceResponse ServiceCore::do_route(const ServiceRequest& r) {
  routes_.inc();
  ScopedTimer timer(route_ns_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  const std::uint64_t version_before = slot_.version();
  RouteRequest req(topo_, r.max_layers != 0 ? r.max_layers : max_layers_);
  RouteResponse route =
      incremental_ ? incremental_->route(req) : router_->route(req);
  ServiceResponse resp = publish(r, std::move(route), timer.elapsed_ns());
  if (journal_) {
    journal_mutation(r, resp, ++logical_clock_, version_before,
                     /*fallback=*/false, timer.elapsed_ns());
  }
  return resp;
}

ServiceResponse ServiceCore::do_repair(const ServiceRequest& r) {
  repairs_.inc();
  ScopedTimer timer(repair_ns_);
  std::lock_guard<std::mutex> lock(engine_mu_);
  if (slot_.version() == 0) {
    return error_response(r, Status::kErrNotRouted,
                          "repair before the first route");
  }

  std::vector<FaultEvent> batch;
  batch.swap(pending_);
  pending_count_.store(0, std::memory_order_relaxed);
  pending_events_gauge_.set(0);

  const std::uint64_t version_before = slot_.version();

  if (batch.empty()) {
    // Nothing to coalesce; report the current generation untouched.
    ServiceResponse resp;
    resp.kind = r.kind;
    resp.request_id = r.request_id;
    const auto snap = slot_.load();
    resp.snapshot_version = snap->version;
    resp.layers = snap->layers_used;
    resp.paths = snap->paths;
    resp.incremental = true;
    resp.elapsed_ns = timer.elapsed_ns();
    if (journal_) {
      journal_mutation(r, resp, ++logical_clock_, version_before,
                       /*fallback=*/false, timer.elapsed_ns());
    }
    return resp;
  }

  const std::uint64_t vetoed_before = churn_.events_vetoed();
  const ChurnDelta delta = churn_.apply_all(batch);
  const std::uint64_t vetoed =
      churn_.events_vetoed() - vetoed_before;
  RouteRequest req(topo_, max_layers_);
  RouteResponse route;
  bool fallback = false;
  if (incremental_) {
    route = incremental_->repair(req, delta);
  } else {
    // Non-incremental engines repair a degraded fabric the only way they
    // can: from scratch.
    route = router_->route(req);
    route.repair.fallback_reason = "engine has no incremental repair";
    fallback = true;
  }
  ServiceResponse resp = publish(r, std::move(route), timer.elapsed_ns());
  resp.events_coalesced = static_cast<std::uint32_t>(batch.size());
  if (journal_) {
    const std::uint64_t ts = ++logical_clock_;
    obs::journal::Record rec;
    rec.logical_ts = ts;
    rec.version_before = version_before;
    rec.version_after = version_before;
    rec.kind = obs::journal::EventKind::kCoalescedBatch;
    rec.count = static_cast<std::uint32_t>(batch.size());
    journal_->append(rec);
    if (vetoed > 0) {
      rec.kind = obs::journal::EventKind::kVeto;
      rec.count = static_cast<std::uint32_t>(vetoed);
      journal_->append(rec);
    }
    journal_mutation(r, resp, ts, version_before, fallback,
                     timer.elapsed_ns());
  }
  return resp;
}

ServiceResponse ServiceCore::do_fault_event(const ServiceRequest& r) {
  fault_events_.inc();
  if (r.fault_kind > static_cast<std::uint8_t>(FaultKind::kSwitchUp)) {
    return error_response(r, Status::kErrBadArgument,
                          "unknown fault kind " +
                              std::to_string(int{r.fault_kind}));
  }
  FaultEvent event;
  event.kind = static_cast<FaultKind>(r.fault_kind);
  event.channel = r.channel;
  event.sw = r.sw;
  const Network& net = topo_.net;
  const bool is_link = event.kind == FaultKind::kLinkDown ||
                       event.kind == FaultKind::kLinkUp;
  if (is_link && event.channel >= net.num_channels()) {
    return error_response(r, Status::kErrBadArgument,
                          "channel id out of range");
  }
  if (is_link) {
    // Terminal injection/ejection channels have no independent link state
    // (Network::set_link_up rejects them); catching this here keeps a bad
    // client from poisoning the next repair's batch.
    const Channel& ch = net.channel(event.channel);
    if (net.is_terminal(ch.src) || net.is_terminal(ch.dst)) {
      return error_response(r, Status::kErrBadArgument,
                            "terminal links have no independent state");
    }
  }
  if (!is_link &&
      (event.sw >= net.num_nodes() || !net.is_switch(event.sw))) {
    return error_response(r, Status::kErrBadArgument, "not a switch id");
  }

  std::lock_guard<std::mutex> lock(engine_mu_);
  pending_.push_back(event);
  const auto count = static_cast<std::uint32_t>(pending_.size());
  pending_count_.store(count, std::memory_order_relaxed);
  pending_events_gauge_.set(count);

  if (journal_) {
    obs::journal::Record rec;
    rec.logical_ts = ++logical_clock_;
    rec.kind = obs::journal::EventKind::kFaultEvent;
    rec.flags = obs::journal::kFlagOk;
    rec.fault_kind = r.fault_kind;
    rec.channel = r.channel;
    rec.sw = r.sw;
    rec.count = count;
    rec.version_before = slot_.version();
    rec.version_after = rec.version_before;
    journal_->append(rec);
  }

  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.pending_events = count;
  return resp;
}

ServiceResponse ServiceCore::do_lookup(const ServiceRequest& r) {
  lookups_.inc();
  ScopedTimer timer(lookup_ns_);
  const std::shared_ptr<const ForwardingSnapshot> snap = slot_.load();
  if (!snap) {
    return error_response(r, Status::kErrNotRouted,
                          "lookup before the first route");
  }
  // Node structure is immutable after construction (churn only flips
  // up/down flags), so these reads are safe without the engine mutex.
  const Network& net = topo_.net;
  if (r.src_switch >= net.num_nodes() || !net.is_switch(r.src_switch)) {
    return error_response(r, Status::kErrBadArgument, "not a switch id");
  }
  if (r.dst_terminal >= net.num_nodes() || !net.is_terminal(r.dst_terminal)) {
    return error_response(r, Status::kErrBadArgument, "not a terminal id");
  }

  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.snapshot_version = snap->version;
  resp.next_channel = snap->table.next(r.src_switch, r.dst_terminal);
  resp.layer = snap->table.layer(r.src_switch, r.dst_terminal);
  resp.ejected = resp.next_channel == kInvalidChannel;
  return resp;
}

ServiceResponse ServiceCore::do_stats(const ServiceRequest& r) {
  const obs::Snapshot snap = obs::registry().snapshot();
  std::ostringstream out;
  out << "{\n  \"metrics\": ";
  obs::write_metrics_json(out, snap, obs::Kind::kDeterministic, 2);
  out << ",\n  \"timing_metrics\": ";
  obs::write_metrics_json(out, snap, obs::Kind::kTiming, 2);

  // Latency quantiles per request kind, estimated from the service/*_ns
  // histograms (nanoseconds, nearest-rank with in-bucket interpolation) —
  // what an operator wants from `dfroutectl stats` without shipping the
  // raw buckets to a spreadsheet.
  out << ",\n  \"latency\": {";
  const struct {
    const char* name;
    const obs::Histogram* hist;
  } kinds[] = {{"lookup", &lookup_ns_},
               {"route", &route_ns_},
               {"repair", &repair_ns_}};
  bool first = true;
  for (const auto& k : kinds) {
    const obs::HistogramValue h = k.hist->value();
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << k.name << "\": {\"count\": " << h.count
        << ", \"p50_ns\": "
        << static_cast<std::uint64_t>(
               std::llround(obs::histogram_quantile(h, 0.50)))
        << ", \"p90_ns\": "
        << static_cast<std::uint64_t>(
               std::llround(obs::histogram_quantile(h, 0.90)))
        << ", \"p99_ns\": "
        << static_cast<std::uint64_t>(
               std::llround(obs::histogram_quantile(h, 0.99)))
        << ", \"max_ns\": " << h.max << "}";
  }
  out << "\n  }";

  out << ",\n  \"process\": {\"uptime_ns\": " << Timer::now_ns() - start_ns_
      << ", \"peak_rss_bytes\": " << obs::peak_rss_bytes() << "}";
  out << "\n}";

  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.stats_json = out.str();
  return resp;
}

ServiceResponse ServiceCore::do_journal_tail(const ServiceRequest& r) {
  if (!journal_) {
    return error_response(r, Status::kErrBadArgument,
                          "journaling disabled (run with --journal)");
  }
  if (r.journal_kind != 0 && !obs::journal::known_kind(r.journal_kind)) {
    return error_response(r, Status::kErrBadArgument,
                          "unknown journal event kind " +
                              std::to_string(int{r.journal_kind}));
  }
  // Cap the batch so the response stays under the frame ceiling; clients
  // stream by resuming from journal_next_seq.
  constexpr std::uint32_t kTailCap = 4096;
  const std::uint32_t max =
      r.journal_max == 0 || r.journal_max > kTailCap ? kTailCap
                                                     : r.journal_max;
  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.journal_next_seq = journal_->tail(r.journal_from_seq, max,
                                         r.journal_kind,
                                         resp.journal_records);
  return resp;
}

ServiceResponse ServiceCore::do_journal_stats(const ServiceRequest& r) {
  if (!journal_) {
    return error_response(r, Status::kErrBadArgument,
                          "journaling disabled (run with --journal)");
  }
  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  resp.journal_stats = journal_->stats();
  return resp;
}

ServiceResponse ServiceCore::do_snapshot_info(const ServiceRequest& r) {
  ServiceResponse resp;
  resp.kind = r.kind;
  resp.request_id = r.request_id;
  const std::shared_ptr<const ForwardingSnapshot> snap = slot_.load();
  if (snap) {
    resp.snapshot_version = snap->version;
    resp.layers = snap->layers_used;
    resp.paths = snap->paths;
  }
  resp.snapshot_swaps = slot_.swaps();
  resp.pending_events = pending_count_.load(std::memory_order_relaxed);
  resp.switches = static_cast<std::uint32_t>(topo_.net.num_switches());
  resp.terminals = static_cast<std::uint32_t>(topo_.net.num_terminals());
  resp.engine = engine_key_;
  resp.topology = topo_.name;
  resp.uptime_ns = Timer::now_ns() - start_ns_;
  resp.peak_rss_bytes = obs::peak_rss_bytes();
  return resp;
}

}  // namespace dfsssp::service
