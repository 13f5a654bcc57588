// The common interface of every routing engine.
//
// An engine consumes a RouteRequest — the topology plus the execution
// policy of the run (virtual-layer budget, thread context) — and produces
// a RouteResponse: forwarding tables, a virtual-layer assignment,
// statistics, and (for the incremental fault-repair engine) repair
// provenance. Engines that cannot handle a topology (fat-tree routing on a
// ring, DOR without coordinates, DFSSSP running out of virtual layers)
// report failure through RouteResponse instead of throwing — the paper's
// Figure 4 plots exactly those failures as missing bars. Every engine
// records its work counts into the process-wide obs::registry().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "routing/table.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

/// One routing request: everything an engine needs beyond its own
/// configuration. Cheap to construct at the call site; the topology is
/// borrowed, not owned, and must outlive the route() call.
struct RouteRequest {
  /// The network to route. Never null in a valid request.
  const Topology* topology = nullptr;

  /// Virtual-layer budget for the layered engines (LASH, DFSSSP).
  /// 0 = use the engine's configured budget (make_all_routers: 8).
  Layer max_layers = 0;

  /// Execution policy for the engine's parallel sections. Results are
  /// bitwise identical at any thread count (the PR-1 contract).
  ExecContext exec;

  RouteRequest() = default;
  explicit RouteRequest(const Topology& topo) : topology(&topo) {}
  RouteRequest(const Topology& topo, const ExecContext& e)
      : topology(&topo), exec(e) {}
  RouteRequest(const Topology& topo, Layer layers, const ExecContext& e = {})
      : topology(&topo), max_layers(layers), exec(e) {}

  /// The request's topology; throws std::logic_error on a null request.
  const Topology& topo() const;

  /// The engine's effective layer budget: the request's override when set,
  /// `engine_default` otherwise.
  Layer layer_budget(Layer engine_default) const {
    return max_layers != 0 ? max_layers : engine_default;
  }
};

/// Both times are read from the engine's phase spans (obs::TraceSpan:
/// "<engine>/route", "sssp/fill_planes", "dfsssp/layering", ...), so they
/// match the spans a --trace or --profile run records.
struct RoutingStats {
  /// Wall time of path computation (Dijkstra/BFS loops).
  double route_seconds = 0.0;
  /// Wall time of the virtual-layer machinery (zero for single-layer engines).
  double layering_seconds = 0.0;
  /// Virtual layers the result uses.
  Layer layers_used = 1;
  /// CDG cycles broken while layering (DFSSSP offline only).
  std::uint64_t cycles_broken = 0;
  /// Number of (source switch, destination terminal) paths routed. After an
  /// incremental repair this counts the paths alive in the current network
  /// state — never stale entries of invalidated destinations.
  std::uint64_t paths = 0;

  double total_seconds() const { return route_seconds + layering_seconds; }
};

/// Where a RouteResponse came from: a from-scratch run or an incremental
/// repair (src/fault/incremental.hpp). Engines that always recompute leave
/// this default-constructed.
struct RepairProvenance {
  /// True when the response was produced by repairing the previous routing
  /// in place instead of recomputing from scratch.
  bool incremental = false;
  /// Destinations whose forwarding trees were recomputed by this call.
  std::uint32_t destinations_rerouted = 0;
  /// (source switch, destination) paths moved to new channel sequences
  /// and/or new virtual layers by this call.
  std::uint64_t paths_migrated = 0;
  /// Why an attempted repair fell back to a full recompute (empty when
  /// `incremental` or when no repair was attempted).
  std::string fallback_reason;
};

struct RouteResponse {
  bool ok = false;
  std::string error;
  RoutingTable table;
  RoutingStats stats;
  RepairProvenance repair;

  static RouteResponse failure(std::string why) {
    RouteResponse o;
    o.ok = false;
    o.error = std::move(why);
    return o;
  }
};

class Router {
 public:
  virtual ~Router() = default;

  /// Short identifier used in result tables ("DFSSSP", "MinHop", ...).
  virtual std::string name() const = 0;

  /// True when the produced routing is guaranteed free of channel-dependency
  /// cycles (Up*/Down*, LASH, DFSSSP, fat-tree, DOR-on-mesh).
  virtual bool deadlock_free() const = 0;

  virtual RouteResponse route(const RouteRequest& request) const = 0;
};

/// The full engine roster of the paper's comparison (Figure 4), in plot
/// order: MinHop, Up*/Down*, FatTree, DOR, LASH, SSSP, DFSSSP.
/// `max_layers` bounds LASH and DFSSSP (InfiniBand hardware: 8); a
/// RouteRequest::max_layers override wins over this default.
std::vector<std::unique_ptr<Router>> make_all_routers(Layer max_layers = 8);

}  // namespace dfsssp
