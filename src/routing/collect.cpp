#include "routing/collect.hpp"

#include <stdexcept>

#include "cdg/verify.hpp"

namespace dfsssp {

PathSet collect_paths(const Network& net,
                      std::span<const RoutingTable> planes) {
  PathSet paths;
  std::vector<ChannelId> seq;
  for (const RoutingTable& table : planes) {
    for (NodeId src_sw : net.switches()) {
      const std::uint32_t weight = net.terminals_on(src_sw);
      if (weight == 0 || !net.switch_up(src_sw)) continue;
      for (NodeId t : net.terminals()) {
        if (net.switch_of(t) == src_sw || !net.terminal_alive(t)) continue;
        if (!table.extract_path(net, src_sw, t, seq)) {
          throw std::runtime_error("collect_paths: broken forwarding from " +
                                   net.node_name(src_sw) + " to " +
                                   net.node_name(t));
        }
        paths.add(net.node(src_sw).type_index, net.node(t).type_index, seq,
                  weight);
      }
    }
  }
  return paths;
}

std::vector<Layer> collect_layers(const Network& net,
                                  std::span<const RoutingTable> planes,
                                  const PathSet& paths) {
  std::vector<Layer> layers(paths.size());
  if (paths.empty()) return layers;
  const std::size_t per_plane = paths.size() / planes.size();
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    layers[p] = planes[p / per_plane].layer(
        net.switch_by_index(paths.src_switch_index(p)),
        net.terminal_by_index(paths.dst_terminal_index(p)));
  }
  return layers;
}

bool routing_is_deadlock_free(const Network& net,
                              std::span<const RoutingTable> planes,
                              const ExecContext& exec) {
  PathSet paths = collect_paths(net, planes);
  std::vector<Layer> layers = collect_layers(net, planes, paths);
  return layering_is_deadlock_free(
      paths, layers, static_cast<std::uint32_t>(net.num_channels()), exec);
}

}  // namespace dfsssp
