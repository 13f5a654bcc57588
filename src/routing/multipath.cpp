#include "routing/multipath.hpp"

#include "cdg/cdg.hpp"
#include "cdg/verify.hpp"
#include "obs/trace.hpp"
#include "routing/collect.hpp"
#include "routing/sssp.hpp"

namespace dfsssp {

namespace {

std::uint32_t plane_count(std::uint8_t lmc) { return 1U << lmc; }

}  // namespace

MultipathOutcome route_sssp_multipath(const Topology& topo, std::uint8_t lmc,
                                      bool balance) {
  if (lmc > 3) return MultipathOutcome::failure("lmc > 3 is not sensible");
  MultipathOutcome out;
  out.planes.assign(plane_count(lmc), RoutingTable(topo.net));
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
  MultipathOutcome out = route_sssp_multipath(topo, lmc, /*balance=*/true);
  if (!out.ok) return out;
  obs::TraceSpan span("multipath/layering");

  // Joint path set: plane r contributes the contiguous block
  // [r * per_plane, (r+1) * per_plane).
  const Network& net = topo.net;
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  PathSet paths;
  std::size_t per_plane = 0;
  {
    PathSet first = collect_paths(net, out.planes.front());
    per_plane = first.size();
    paths = std::move(first);
  }
  for (std::size_t r = 1; r < out.planes.size(); ++r) {
    PathSet more = collect_paths(net, out.planes[r]);
    for (std::uint32_t p = 0; p < more.size(); ++p) {
      paths.add(more.src_switch_index(p), more.dst_terminal_index(p),
                more.channels(p), more.weight(p));
    }
  }

  LayerOptions lopts;
  lopts.max_layers = options.max_layers;
  lopts.heuristic = options.heuristic;
  lopts.balance = options.balance;
  LayerResult res = assign_layers_offline(paths, num_channels, lopts);
  if (!res.ok) {
    return MultipathOutcome::failure("DFSSSP(lmc): " + res.error);
  }
  out.stats.cycles_broken = res.cycles_broken;
  out.stats.layers_used = res.layers_used;

  for (std::size_t r = 0; r < out.planes.size(); ++r) {
    RoutingTable& plane = out.planes[r];
    plane.set_num_layers(res.layers_used);
    for (std::size_t i = 0; i < per_plane; ++i) {
      const std::uint32_t p = static_cast<std::uint32_t>(r * per_plane + i);
      plane.set_layer(net.switch_by_index(paths.src_switch_index(p)),
                      net.terminal_by_index(paths.dst_terminal_index(p)),
                      res.layer[p]);
    }
  }
  out.stats.layering_seconds = span.seconds();
  return out;
}

bool multipath_is_deadlock_free(const Network& net,
                                const std::vector<RoutingTable>& planes) {
  PathSet paths;
  std::vector<Layer> layers;
  for (const RoutingTable& plane : planes) {
    PathSet plane_paths = collect_paths(net, plane);
    std::vector<Layer> plane_layers = collect_layers(net, plane, plane_paths);
    for (std::uint32_t p = 0; p < plane_paths.size(); ++p) {
      paths.add(plane_paths.src_switch_index(p),
                plane_paths.dst_terminal_index(p), plane_paths.channels(p),
                plane_paths.weight(p));
      layers.push_back(plane_layers[p]);
    }
  }
  return layering_is_deadlock_free(paths, layers,
                                   static_cast<std::uint32_t>(net.num_channels()));
}

}  // namespace dfsssp
