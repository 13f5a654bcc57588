#include "routing/sssp.hpp"

#include <span>

#include "obs/trace.hpp"

namespace dfsssp {

void SsspWork::flush(obs::Registry& sink) const {
  sink.counter("sssp/dijkstra_passes").tally(passes);
  sink.counter("sssp/heap_pops").tally(pops);
  sink.counter("sssp/heap_pushes").tally(pushes);
  sink.counter("sssp/relaxations").tally(relaxations);
}

std::size_t sssp_destination(const Network& net, NodeId dst_switch,
                             std::span<std::uint64_t> weight,
                             bool update_weights, SsspScratch& scratch) {
  const std::size_t num_sw = net.num_switches();
  std::vector<std::uint64_t>& dist = scratch.dist;
  std::vector<ChannelId>& parent = scratch.parent;
  std::vector<std::uint32_t>& order = scratch.order;
  MinHeap<std::uint64_t>& heap = scratch.heap;
  constexpr std::uint64_t kUnreached = ~0ULL;
  dist.assign(num_sw, kUnreached);
  parent.assign(num_sw, kInvalidChannel);
  order.resize(num_sw);
  heap.reset(num_sw);
  // Heap traffic is tallied in locals and added to the scratch once, so
  // the inner loop sees plain register increments.
  std::uint64_t pops = 0, pushes = 1, relaxations = 0;

  // Dead switches are never reached: the adjacency shows alive channels
  // only. Packets flow toward the destination, so the forwarding channel
  // of v is the reverse of the channel that relaxed it.
  const std::uint32_t dst_index = net.node(dst_switch).type_index;
  dist[dst_index] = 0;
  heap.push(0, dst_index);
  std::size_t settled = 0;
  while (!heap.empty()) {
    auto [du, u_index] = heap.pop();
    ++pops;
    order[settled++] = u_index;
    for (ChannelId c : net.out_switch_channels(net.switch_by_index(u_index))) {
      const std::uint32_t v_index = net.node(net.channel(c).dst).type_index;
      const ChannelId fwd = net.channel(c).reverse;  // v -> u
      const std::uint64_t cand = du + weight[fwd];
      if (cand < dist[v_index]) {
        // A relaxation from unreached is a fresh heap insert; any other
        // is a decrease-key on an already-queued switch.
        pushes += dist[v_index] == kUnreached ? 1 : 0;
        dist[v_index] = cand;
        parent[v_index] = fwd;
        heap.push_or_decrease(cand, v_index);
        ++relaxations;
      }
    }
  }
  scratch.work.passes += 1;
  scratch.work.pops += pops;
  scratch.work.pushes += pushes;
  scratch.work.relaxations += relaxations;

  if (update_weights) {
    // Algorithm 1's weight update: every channel's weight grows by the
    // number of (terminal, destination) paths crossing it. Accumulate
    // subtree terminal counts from the farthest settled switch inward.
    std::vector<std::uint64_t>& subtree = scratch.subtree;
    subtree.resize(num_sw);
    for (std::size_t i = 0; i < settled; ++i) {
      subtree[order[i]] = net.terminals_on(net.switch_by_index(order[i]));
    }
    for (std::size_t i = settled; i-- > 1;) {  // order[0] == dst, skip it
      const std::uint32_t v_index = order[i];
      const ChannelId fwd = parent[v_index];
      weight[fwd] += subtree[v_index];
      subtree[net.node(net.channel(fwd).dst).type_index] += subtree[v_index];
    }
  }
  return settled;
}

bool sssp_fill_planes(const Network& net, const SsspOptions& options,
                      std::span<RoutingTable> planes, RoutingStats& stats,
                      std::string& error, obs::Registry& sink) {
  obs::TraceSpan span("sssp/fill_planes");
  const std::size_t num_sw = net.num_switches();
  std::vector<std::uint64_t> weight(
      net.num_channels(), options.initial_weight != 0
                              ? options.initial_weight
                              : sssp_initial_weight(net, planes.size()));
  SsspScratch scratch;

  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    for (RoutingTable& plane : planes) {
      if (sssp_destination(net, dst_switch, weight, options.balance,
                           scratch) != num_sw) {
        error = "network is disconnected";
        return false;
      }
      for (std::size_t i = 0; i < num_sw; ++i) {
        NodeId s = net.switch_by_index(static_cast<std::uint32_t>(i));
        if (s == dst_switch) continue;
        plane.set_next(s, d, scratch.parent[i]);
      }
      stats.paths += num_sw - 1;
    }
  }

  // Tallied onto the sssp/fill_planes span as well.
  scratch.work.flush(sink);
  stats.route_seconds += span.seconds();
  return true;
}

RouteResponse route_sssp(const Network& net, const SsspOptions& options,
                         obs::Registry& sink) {
  RouteResponse out;
  out.table = RoutingTable(net);
  std::span<RoutingTable> planes(&out.table, 1);
  if (!sssp_fill_planes(net, options, planes, out.stats, out.error, sink)) {
    return out;
  }
  out.ok = true;
  return out;
}

RouteResponse SsspRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  return route_sssp(topo.net, options_, request.sink());
}

}  // namespace dfsssp
