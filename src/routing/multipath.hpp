// LMC-style multipath routing (InfiniBand: each port owns 2^lmc LIDs, each
// with its own forwarding entry, giving sources up to 2^lmc distinct paths
// per destination). OpenSM's SSSP/DFSSSP engines route every LID, so their
// balancing naturally diversifies the planes; we reproduce that: `planes`
// holds one complete destination-based RoutingTable per LID offset, all
// filled against one shared weight map, and DFSSSP's layer assignment
// (DfssspRouter::route_planes) runs over the union of all planes' paths so
// the whole multipath routing is deadlock-free on the same virtual lanes;
// routing_is_deadlock_free (routing/collect.hpp) checks that union.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/dfsssp.hpp"
#include "routing/router.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

struct MultipathOutcome {
  bool ok = false;
  std::string error;
  /// One full RoutingTable per LID offset (2^lmc of them).
  std::vector<RoutingTable> planes;
  RoutingStats stats;

  static MultipathOutcome failure(std::string why) {
    MultipathOutcome o;
    o.error = std::move(why);
    return o;
  }
};

/// SSSP over 2^lmc planes (no deadlock protection).
MultipathOutcome route_sssp_multipath(const Topology& topo, std::uint8_t lmc,
                                      bool balance = true);

/// DFSSSP over 2^lmc planes: DfssspRouter(options).route_planes, i.e. SSSP
/// planes plus ONE joint virtual-layer assignment over all planes' paths
/// in the mode, heuristic, balance and layer budget of `options`.
MultipathOutcome route_dfsssp_multipath(const Topology& topo, std::uint8_t lmc,
                                        DfssspOptions options = {});

}  // namespace dfsssp
