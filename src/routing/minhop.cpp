#include "routing/minhop.hpp"

#include "obs/trace.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {

RouteResponse MinHopRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  obs::TraceSpan span("minhop/route");
  RouteResponse out;
  out.table = RoutingTable(net);

  std::vector<std::uint64_t> usage(net.num_channels(), 0);
  std::vector<std::uint32_t> dist;
  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    bfs_hops_to(net, dst_switch, dist);
    for (NodeId s : net.switches()) {
      if (s == dst_switch) continue;
      const std::uint32_t ds = dist[net.node(s).type_index];
      if (ds == kUnreachable) {
        return RouteResponse::failure("network is disconnected");
      }
      ChannelId best = kInvalidChannel;
      for (ChannelId c : net.out_switch_channels(s)) {
        if (dist[net.node(net.channel(c).dst).type_index] != ds - 1) continue;
        if (best == kInvalidChannel || usage[c] < usage[best]) best = c;
      }
      out.table.set_next(s, d, best);
      ++usage[best];
    }
    out.stats.paths += net.num_switches() - 1;
  }
  out.stats.route_seconds = span.seconds();
  out.ok = true;
  return out;
}

}  // namespace dfsssp
