// Incremental DFSSSP repair.
//
// From-scratch DFSSSP recomputes every destination's forwarding tree and
// re-layers every path on any topology change. But destination-based
// forwarding localizes a fault's blast radius: a dead channel only breaks
// the forwarding trees whose next-hop chains traverse it. IncrementalDfsssp
// exploits that — it keeps the channel weight map, the per-destination
// channel sequences and a FirstFitLayerer (one Pearce-Kelly OnlineCdg per
// virtual layer) alive across faults, and on a ChurnDelta:
//
//   1. drops destinations that died with their switch,
//   2. invalidates exactly the destinations whose forwarding entries use a
//      downed channel (one scan of the table columns),
//   3. re-runs the SSSP kernel (sssp_destination) for just those
//      destinations (in destination index order, so repair is
//      deterministic and thread-count invariant),
//   4. re-layers the fresh paths first-fit into the persistent layers,
//      source-major like DFSSSP(online); route() is steps 3 and 4 over
//      every destination, so it equals DfssspRouter(kOnline, balance off),
//   5. falls back to a full recompute only when a layer overflows or a
//      switch comes back up (a revived switch needs forwarding entries for
//      every destination, which is a full recompute by definition),
//
// and emits a fresh deadlock-freedom certificate after every repair, so the
// independent checker (analysis/certificate.hpp) can audit each churn step
// exactly like a from-scratch run.
//
// A failed route() or repair() unbinds the engine, so the next repair is a
// full recompute. The engine speaks the unified RouteRequest/RouteResponse
// API, tallies its work into obs::registry() at the leaf spans that did it
// and reports a repair's provenance in RouteResponse::repair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "cdg/online.hpp"
#include "fault/churn.hpp"
#include "routing/router.hpp"
#include "routing/sssp.hpp"

namespace dfsssp {

struct IncrementalOptions {
  /// Default virtual-layer budget; RouteRequest::max_layers overrides.
  Layer max_layers = 8;
};

class IncrementalDfsssp {
 public:
  explicit IncrementalDfsssp(IncrementalOptions options = {});

  /// From-scratch weighted-SSSP + online first-fit layering of the
  /// request's (possibly already degraded) network. Resets all incremental
  /// state and binds the engine to this topology.
  RouteResponse route(const RouteRequest& request);

  /// Incremental repair after `delta` was applied (by ChurnEngine) to the
  /// same topology route() last saw. Falls back to a full recompute — with
  /// RouteResponse::repair.fallback_reason saying why — when it cannot
  /// repair in place.
  RouteResponse repair(const RouteRequest& request, const ChurnDelta& delta);

  /// The certificate of the current table (empty before the first route).
  const Certificate& certificate() const { return certificate_; }

 private:
  /// Stored forwarding-tree slice of one destination: the channel sequence
  /// and layer per terminal-bearing source switch. These are exactly the
  /// CDG members and weight carriers that must be retracted when the
  /// destination is invalidated.
  struct DestPaths {
    bool routed = false;
    std::vector<std::uint32_t> src;     // switch indices, ascending
    std::vector<std::uint32_t> offset;  // size src.size() + 1
    std::vector<ChannelId> channels;
    std::vector<Layer> layer;  // per src entry
  };

  void reset(const Topology& topo, Layer max_layers);
  /// Zeroes the per-call accumulators.
  void start_call();
  /// Retracts a destination's paths from the layers and the weight map and
  /// clears its table column.
  void retract_destination(std::uint32_t ti);
  /// The SSSP kernel from the destination's switch, its next hops and its
  /// stored paths, in layer 0. False, with `error` set, when disconnected.
  bool route_destination(std::uint32_t ti, std::string& error);
  /// First-fits the just-routed paths of `destinations` (ascending)
  /// source-major. False, with `error` set, when a path fits no layer.
  bool place(std::span<const std::uint32_t> destinations, std::string& error);
  RouteResponse finish(RouteResponse out);
  RouteResponse fail(const std::string& error);  // unbinds the engine
  std::uint64_t count_paths() const;

  IncrementalOptions options_;

  // Bound state (valid after a successful route()).
  const Topology* topo_ = nullptr;
  Layer max_layers_ = 0;
  RoutingTable table_;
  std::vector<std::uint64_t> weight_;  // per channel, persistent
  FirstFitLayerer layers_{0, 0};
  std::vector<DestPaths> dest_;  // per terminal index
  Certificate certificate_;
  SsspScratch sssp_;  // reused across destinations

  // Per-call accumulators (set by start_call()).
  double dijkstra_seconds_ = 0.0;
  double layering_seconds_ = 0.0;
};

}  // namespace dfsssp
