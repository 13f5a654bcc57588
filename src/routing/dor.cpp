#include "routing/dor.hpp"

#include "obs/trace.hpp"

namespace dfsssp {

RouteResponse DorRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  const TopologyMeta& meta = topo.meta;
  obs::TraceSpan span("dor/route");
  if (!meta.has_coords() || meta.dims.empty()) {
    return RouteResponse::failure("DOR needs torus/mesh coordinates");
  }
  const std::size_t nd = meta.dims.size();
  if (meta.sw_coord.size() != net.num_switches() * nd) {
    return RouteResponse::failure("DOR: malformed coordinate metadata");
  }

  RouteResponse out;
  out.table = RoutingTable(net);

  auto coord = [&](std::uint32_t sw_index, std::size_t dim) {
    return meta.sw_coord[sw_index * nd + dim];
  };
  // Generator layout: dimension 0 is the fastest-varying index digit.
  auto index_of = [&](const std::vector<std::uint32_t>& c) {
    std::uint64_t idx = 0;
    for (std::size_t d = nd; d-- > 0;) idx = idx * meta.dims[d] + c[d];
    return static_cast<std::uint32_t>(idx);
  };

  std::vector<std::uint32_t> cur(nd);
  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    const std::uint32_t dst_index = net.node(dst_switch).type_index;
    for (NodeId s : net.switches()) {
      if (s == dst_switch) continue;
      const std::uint32_t si = net.node(s).type_index;
      for (std::size_t dim = 0; dim < nd; ++dim) cur[dim] = coord(si, dim);

      // First differing dimension decides the hop.
      std::size_t dim = 0;
      while (dim < nd && cur[dim] == coord(dst_index, dim)) ++dim;
      if (dim == nd) {
        return RouteResponse::failure("DOR: duplicate coordinates");
      }
      const std::uint32_t k = meta.dims[dim];
      const std::uint32_t from = cur[dim];
      const std::uint32_t to = coord(dst_index, dim);
      std::uint32_t next_coord;
      if (!meta.wraparound) {
        next_coord = to > from ? from + 1 : from - 1;
      } else {
        const std::uint32_t fwd_dist = (to + k - from) % k;
        const std::uint32_t bwd_dist = (from + k - to) % k;
        // Shorter way around; ties go in the increasing direction.
        next_coord = fwd_dist <= bwd_dist ? (from + 1) % k : (from + k - 1) % k;
      }
      cur[dim] = next_coord;
      const NodeId neighbor = net.switch_by_index(index_of(cur));
      ChannelId hop = kInvalidChannel;
      for (ChannelId c : net.out_switch_channels(s)) {
        if (net.channel(c).dst == neighbor) {
          hop = c;
          break;
        }
      }
      if (hop == kInvalidChannel) {
        return RouteResponse::failure("DOR: missing torus link");
      }
      out.table.set_next(s, d, hop);
    }
    out.stats.paths += net.num_switches() - 1;
  }
  out.stats.route_seconds = span.seconds();
  out.ok = true;
  return out;
}

}  // namespace dfsssp
