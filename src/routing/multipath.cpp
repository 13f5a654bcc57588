#include "routing/multipath.hpp"

#include "routing/sssp.hpp"

namespace dfsssp {

MultipathOutcome route_sssp_multipath(const Topology& topo, std::uint8_t lmc,
                                      bool balance) {
  if (lmc > 3) return MultipathOutcome::failure("lmc > 3 is not sensible");
  MultipathOutcome out;
  out.planes.assign(1U << lmc, RoutingTable(topo.net));
  SsspOptions opts;
  opts.balance = balance;
  if (!sssp_fill_planes(topo.net, opts, out.planes, out.stats, out.error)) {
    return out;
  }
  out.ok = true;
  return out;
}

MultipathOutcome route_dfsssp_multipath(const Topology& topo, std::uint8_t lmc,
                                        DfssspOptions options) {
  if (lmc > 3) return MultipathOutcome::failure("lmc > 3 is not sensible");
  MultipathOutcome out;
  out.planes.assign(1U << lmc, RoutingTable(topo.net));
  out.ok = DfssspRouter(options).route_planes(RouteRequest(topo), out.planes,
                                              out.stats, out.error);
  return out;
}

}  // namespace dfsssp
