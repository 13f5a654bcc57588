// The daemon's brain: one ServiceCore owns the persistent Topology, the
// ChurnEngine that mutates it, and the routing engine that (re)programs
// forwarding state — the same ownership triangle a subnet manager holds
// over a fabric. Transports (unix socket, stdin/stdout pipe, in-process
// benches) are thin loops around handle().
//
// Concurrency contract:
//   * route / repair / fault_event / shutdown serialize on one engine
//     mutex — there is a single fabric, so mutations are inherently
//     ordered. Fault events only enqueue under the mutex (cheap); the
//     expensive repair work happens on whichever connection thread sends
//     the repair request, still under the mutex but OUTSIDE the snapshot
//     lock.
//   * lookup / stats / snapshot_info never take the engine mutex. Lookups
//     read the RCU-published ForwardingSnapshot (snapshot.hpp): during a
//     repair they answer from the previous generation; after the publish
//     they answer from the new one; never a torn mix.
//
// Fault events batch in a pending queue and are coalesced by
// ChurnEngine::apply_all into ONE delta on the next repair request — a
// burst of link flaps costs one repair, not one per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "obs/journal/journal.hpp"
#include "obs/metrics.hpp"
#include "routing/router.hpp"
#include "service/envelope.hpp"
#include "service/snapshot.hpp"
#include "topology/topology.hpp"

namespace dfsssp::service {

struct ServiceCoreOptions {
  /// Engine registry key (routing::make_router). "dfsssp" gets the
  /// incremental repair path; every other engine repairs by full
  /// recompute.
  std::string engine = "dfsssp";
  /// Virtual-layer budget; a route request's max_layers overrides.
  Layer max_layers = 8;
  /// Flight recorder (obs/journal). Off by default; when on, every
  /// mutation emits journal records (and the published table + certificate
  /// are digested per generation, which is what makes `dfreplay --verify`
  /// possible — at the cost of one canonical certificate build per swap).
  bool journal = false;
  std::uint32_t journal_capacity = 8192;  // ring size, records
  /// Append-only DFJR segment path; empty = in-memory ring only.
  std::string journal_path;
  /// The topology spec the core's fabric was built from (what
  /// build_topology_config took: a config name, a family spec such as
  /// "kary-tree:4:2", or a file), recorded in the segment header so
  /// dfreplay can rebuild the fabric. The core takes a built Topology, so
  /// the spec travels beside it.
  std::string journal_config;
};

class ServiceCore {
 public:
  /// Takes ownership of the topology. Throws std::invalid_argument for an
  /// unknown engine key.
  ServiceCore(Topology topo, ServiceCoreOptions options = {});

  /// Executes one request. Thread-safe; see the header comment for which
  /// kinds serialize and which run lock-free.
  ServiceResponse handle(const ServiceRequest& request);

  /// After this, every request except an in-flight one is answered with
  /// Status::kErrDraining. Idempotent; also triggered by a shutdown
  /// request.
  void begin_drain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Current published snapshot (nullptr before the first route).
  std::shared_ptr<const ForwardingSnapshot> snapshot() const {
    return slot_.load();
  }

  const std::string& engine_name() const { return engine_key_; }
  const Topology& topo() const { return topo_; }

  /// The flight recorder, nullptr when ServiceCoreOptions::journal was
  /// false. Used by the in-process dfreplay target to drain records
  /// without a wire round trip.
  const obs::journal::Journal* journal() const { return journal_.get(); }

 private:
  ServiceResponse do_route(const ServiceRequest& r);
  ServiceResponse do_repair(const ServiceRequest& r);
  ServiceResponse do_fault_event(const ServiceRequest& r);
  ServiceResponse do_lookup(const ServiceRequest& r);
  ServiceResponse do_stats(const ServiceRequest& r);
  ServiceResponse do_snapshot_info(const ServiceRequest& r);
  ServiceResponse do_journal_tail(const ServiceRequest& r);
  ServiceResponse do_journal_stats(const ServiceRequest& r);
  /// Publishes `resp`'s table as the next snapshot generation and fills
  /// the route/repair response fields shared by both kinds.
  ServiceResponse publish(const ServiceRequest& r, RouteResponse resp,
                          std::uint64_t elapsed_ns);
  /// Journals the snapshot_swap + completion records of one route/repair
  /// transaction (call under engine_mu_ with journal_ set). `ts` is the
  /// transaction's logical timestamp; digests are computed from the
  /// freshly published snapshot when `resp.status == kOk`.
  void journal_mutation(const ServiceRequest& r, const ServiceResponse& resp,
                        std::uint64_t ts, std::uint64_t version_before,
                        bool fallback, std::uint64_t latency_ns);

  Topology topo_;
  ChurnEngine churn_;
  std::string engine_key_;
  Layer max_layers_;
  std::unique_ptr<IncrementalDfsssp> incremental_;  // engine == "dfsssp"
  std::unique_ptr<Router> router_;                  // every other engine

  std::mutex engine_mu_;             // serializes all topology mutation
  std::vector<FaultEvent> pending_;  // guarded by engine_mu_
  std::unique_ptr<obs::journal::Journal> journal_;  // nullptr = off
  /// The mutation clock: incremented once per mutating request (under
  /// engine_mu_), stamped into every record that request emits. Replay
  /// groups records back into transactions by this value.
  std::uint64_t logical_clock_ = 0;  // guarded by engine_mu_
  std::uint64_t start_ns_ = 0;       // daemon birth, for uptime
  std::atomic<std::uint32_t> pending_count_{0};  // lock-free mirror
  SnapshotSlot slot_;
  std::atomic<bool> draining_{false};

  // Metric handles, registered once with literal names (see
  // docs/observability.md, "service/*").
  obs::Counter& requests_;
  obs::Counter& lookups_;
  obs::Counter& repairs_;
  obs::Counter& routes_;
  obs::Counter& fault_events_;
  obs::Counter& snapshot_swaps_;
  obs::Counter& errors_;
  obs::Counter& draining_rejects_;
  obs::Gauge& pending_events_gauge_;
  obs::Gauge& snapshot_version_gauge_;
  obs::Histogram& lookup_ns_;
  obs::Histogram& repair_ns_;
  obs::Histogram& route_ns_;
};

}  // namespace dfsssp::service
