#include "routing/dor_dateline.hpp"

#include "obs/trace.hpp"
#include "routing/dor.hpp"

namespace dfsssp {

RouteResponse DorDatelineRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  const TopologyMeta& meta = topo.meta;
  obs::TraceSpan span("dordateline/route");

  // The forwarding tables are plain DOR.
  RouteResponse out = DorRouter().route(request);
  if (!out.ok) return out;

  const std::size_t nd = meta.dims.size();
  if (nd > 0 && (1ULL << nd) > max_layers_) {
    return RouteResponse::failure(
        "DOR-dateline: " + std::to_string(nd) + " dimensions need " +
        std::to_string(1ULL << nd) + " layers (> " +
        std::to_string(max_layers_) + ")");
  }

  auto coord = [&](std::uint32_t sw_index, std::size_t dim) {
    return meta.sw_coord[sw_index * nd + dim];
  };

  // A path crosses dimension `dim`'s dateline iff DOR sends it the short
  // way around through the k-1 -> 0 boundary (either direction). Radix-2
  // rings have no wrap link at all.
  Layer layers_used = 1;
  for (NodeId d : net.terminals()) {
    const std::uint32_t di = net.node(net.switch_of(d)).type_index;
    for (NodeId s : net.switches()) {
      if (s == net.switch_of(d)) continue;
      const std::uint32_t si = net.node(s).type_index;
      Layer mask = 0;
      for (std::size_t dim = 0; dim < nd; ++dim) {
        const std::uint32_t k = meta.dims[dim];
        if (!meta.wraparound || k <= 2) continue;
        const std::uint32_t from = coord(si, dim);
        const std::uint32_t to = coord(di, dim);
        if (from == to) continue;
        const std::uint32_t fwd_dist = (to + k - from) % k;
        const std::uint32_t bwd_dist = (from + k - to) % k;
        const bool go_forward = fwd_dist <= bwd_dist;  // DOR's tie rule
        // Forward travel wraps iff it passes k-1 -> 0, i.e. to < from;
        // backward travel wraps iff it passes 0 -> k-1, i.e. to > from.
        const bool wraps = go_forward ? (to < from) : (to > from);
        if (wraps) mask |= static_cast<Layer>(1U << dim);
      }
      out.table.set_layer(s, d, mask);
      layers_used = std::max(layers_used, static_cast<Layer>(mask + 1));
    }
  }
  out.table.set_num_layers(layers_used);
  out.stats.layers_used = layers_used;
  out.stats.layering_seconds = span.seconds() - out.stats.route_seconds;
  return out;
}

}  // namespace dfsssp
