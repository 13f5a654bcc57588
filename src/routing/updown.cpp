#include "routing/updown.hpp"

#include <algorithm>

#include "common/heap.hpp"
#include "obs/trace.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {
namespace {

/// Eccentricity-minimal switch (graph center), ties broken by lowest id:
/// the root.
NodeId find_center_switch(const Network& net) {
  NodeId best = kInvalidNode;
  std::uint32_t best_ecc = kUnreachable;
  std::vector<std::uint32_t> dist;
  for (NodeId sw : net.switches()) {
    bfs_hops_to(net, sw, dist);
    std::uint32_t ecc = 0;
    for (std::uint32_t d : dist) ecc = std::max(ecc, d);
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = sw;
    }
  }
  return best;
}

}  // namespace

RouteResponse UpDownRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  obs::TraceSpan span("updown/route");
  RouteResponse out;
  out.table = RoutingTable(net);

  const std::size_t num_sw = net.num_switches();
  const NodeId root = find_center_switch(net);
  std::vector<std::uint32_t> rank;
  bfs_hops_to(net, root, rank);
  if (std::count(rank.begin(), rank.end(), kUnreachable) > 0) {
    return RouteResponse::failure("network is disconnected");
  }

  // Up = toward the root: strictly lower rank, or equal rank and lower id
  // (the id tie-break makes the up-relation a total order => acyclic).
  auto is_up = [&](ChannelId c) {
    const Channel& ch = net.channel(c);
    const std::uint32_t rs = rank[net.node(ch.src).type_index];
    const std::uint32_t rd = rank[net.node(ch.dst).type_index];
    return rd < rs || (rd == rs && ch.dst < ch.src);
  };

  std::vector<std::uint64_t> usage(net.num_channels(), 0);
  constexpr std::uint32_t kInf = kUnreachable;
  std::vector<std::uint32_t> down_dist(num_sw);  // hops to dst, down-only
  std::vector<std::uint32_t> legal_dist(num_sw); // hops to dst, legal path
  MinHeap<std::uint32_t> heap(num_sw);

  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    const std::uint32_t dst_index = net.node(dst_switch).type_index;

    // down_dist[s]: BFS from the destination crossing only channels that
    // are *down* in the forwarding direction s -> neighbor.
    std::fill(down_dist.begin(), down_dist.end(), kInf);
    down_dist[dst_index] = 0;
    std::vector<NodeId> queue{dst_switch};
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      NodeId x = queue[qi];
      const std::uint32_t dx = down_dist[net.node(x).type_index];
      for (ChannelId c : net.out_switch_channels(x)) {
        const ChannelId fwd = net.channel(c).reverse;  // neighbor -> x
        if (is_up(fwd)) continue;                      // must be a down move
        const std::uint32_t s_index =
            net.node(net.channel(c).dst).type_index;
        if (down_dist[s_index] == kInf) {
          down_dist[s_index] = dx + 1;
          queue.push_back(net.channel(c).dst);
        }
      }
    }

    // legal_dist[s] = min(down_dist[s], 1 + min over up-neighbors u of
    // legal_dist[u]); a unit-weight Dijkstra settles it.
    std::fill(legal_dist.begin(), legal_dist.end(), kInf);
    heap.reset(num_sw);
    for (std::uint32_t i = 0; i < num_sw; ++i) {
      if (down_dist[i] != kInf) {
        legal_dist[i] = down_dist[i];
        heap.push(legal_dist[i], i);
      }
    }
    while (!heap.empty()) {
      auto [gu, u_index] = heap.pop();
      if (gu > legal_dist[u_index]) continue;
      NodeId u = net.switch_by_index(u_index);
      for (ChannelId c : net.out_switch_channels(u)) {
        const ChannelId fwd = net.channel(c).reverse;  // neighbor -> u
        if (!is_up(fwd)) continue;                     // relax up-moves
        const std::uint32_t s_index =
            net.node(net.channel(c).dst).type_index;
        if (gu + 1 < legal_dist[s_index]) {
          legal_dist[s_index] = gu + 1;
          heap.push_or_decrease(gu + 1, s_index);
        }
      }
    }

    for (NodeId s : net.switches()) {
      if (s == dst_switch) continue;
      const std::uint32_t si = net.node(s).type_index;
      if (legal_dist[si] == kInf) {
        return RouteResponse::failure("no legal up/down path");
      }
      ChannelId best = kInvalidChannel;
      if (down_dist[si] != kInf) {
        // Descend whenever possible (keeps forwarding consistent).
        for (ChannelId c : net.out_switch_channels(s)) {
          if (is_up(c)) continue;
          const std::uint32_t ni = net.node(net.channel(c).dst).type_index;
          if (down_dist[ni] + 1 != down_dist[si]) continue;
          if (best == kInvalidChannel || usage[c] < usage[best]) best = c;
        }
      } else {
        for (ChannelId c : net.out_switch_channels(s)) {
          if (!is_up(c)) continue;
          const std::uint32_t ni = net.node(net.channel(c).dst).type_index;
          if (legal_dist[ni] + 1 != legal_dist[si]) continue;
          if (best == kInvalidChannel || usage[c] < usage[best]) best = c;
        }
      }
      out.table.set_next(s, d, best);
      ++usage[best];
    }
    out.stats.paths += num_sw - 1;
  }

  out.stats.route_seconds = span.seconds();
  out.ok = true;
  return out;
}

}  // namespace dfsssp
