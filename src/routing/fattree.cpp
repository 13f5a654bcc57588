#include "routing/fattree.hpp"

#include "obs/trace.hpp"

namespace dfsssp {

RouteResponse FatTreeRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  const TopologyMeta& meta = topo.meta;
  obs::TraceSpan span("fattree/route");
  if (!meta.has_levels() || meta.sw_level.size() != net.num_switches()) {
    return RouteResponse::failure("fat-tree routing needs tree levels");
  }

  RouteResponse out;
  out.table = RoutingTable(net);

  auto level = [&](NodeId sw) { return meta.sw_level[net.node(sw).type_index]; };

  // Up-channel lists per switch (toward higher levels).
  std::vector<std::vector<ChannelId>> ups(net.num_switches());
  for (NodeId s : net.switches()) {
    for (ChannelId c : net.out_switch_channels(s)) {
      const NodeId t = net.channel(c).dst;
      if (level(t) == level(s)) {
        return RouteResponse::failure("link inside one tree level");
      }
      if (level(t) > level(s)) ups[net.node(s).type_index].push_back(c);
    }
  }

  // d-mod-k spreading index per terminal: the rank *within its leaf switch*
  // (destinations sharing a leaf must fan out over different spines),
  // rotated by the leaf index so distinct leaves do not align either.
  std::vector<std::uint32_t> spread(net.num_terminals());
  {
    std::vector<std::uint32_t> seen(net.num_switches(), 0);
    for (NodeId t : net.terminals()) {
      const std::uint32_t leaf = net.node(net.switch_of(t)).type_index;
      spread[net.node(t).type_index] = seen[leaf]++ + leaf;
    }
  }

  // down_to[s]: the unique down channel from ancestor s toward the current
  // destination; kInvalidChannel when s is not an ancestor.
  std::vector<ChannelId> down_to(net.num_switches());
  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    std::fill(down_to.begin(), down_to.end(), kInvalidChannel);

    // Climb from the destination leaf, recording per ancestor the channel
    // that leads back down. A second distinct entry means the down-path is
    // not unique => not a proper fat tree.
    std::vector<NodeId> frontier{dst_switch};
    std::vector<std::uint8_t> is_ancestor(net.num_switches(), 0);
    is_ancestor[net.node(dst_switch).type_index] = 1;
    for (std::size_t fi = 0; fi < frontier.size(); ++fi) {
      const NodeId x = frontier[fi];
      for (ChannelId c : ups[net.node(x).type_index]) {
        const NodeId parent = net.channel(c).dst;
        const std::uint32_t pi = net.node(parent).type_index;
        const ChannelId down = net.channel(c).reverse;  // parent -> x
        if (!is_ancestor[pi]) {
          is_ancestor[pi] = 1;
          down_to[pi] = down;
          frontier.push_back(parent);
        } else if (down_to[pi] != down) {
          return RouteResponse::failure("down-path not unique");
        }
      }
    }

    const std::uint32_t dmod = spread[net.node(d).type_index];
    for (NodeId s : net.switches()) {
      if (s == dst_switch) continue;
      const std::uint32_t si = net.node(s).type_index;
      if (is_ancestor[si]) {
        out.table.set_next(s, d, down_to[si]);
        continue;
      }
      const auto& up = ups[si];
      if (up.empty()) {
        return RouteResponse::failure("top switch is not a common ancestor");
      }
      // d-mod-k: prefer up-ports that reach an ancestor directly, spread by
      // destination index.
      std::vector<ChannelId> toward_ancestor;
      for (ChannelId c : up) {
        if (is_ancestor[net.node(net.channel(c).dst).type_index]) {
          toward_ancestor.push_back(c);
        }
      }
      const auto& candidates = toward_ancestor.empty() ? up : toward_ancestor;
      out.table.set_next(s, d, candidates[dmod % candidates.size()]);
    }
    out.stats.paths += net.num_switches() - 1;
  }

  out.stats.route_seconds = span.seconds();
  out.ok = true;
  return out;
}

}  // namespace dfsssp
