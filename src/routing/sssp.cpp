#include "routing/sssp.hpp"

#include <cassert>
#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

void SsspWork::flush() const {
  static obs::Counter& c_passes =
      obs::registry().counter("sssp/dijkstra_passes");
  static obs::Counter& c_pops = obs::registry().counter("sssp/heap_pops");
  static obs::Counter& c_pushes = obs::registry().counter("sssp/heap_pushes");
  static obs::Counter& c_relaxations =
      obs::registry().counter("sssp/relaxations");
  c_passes.tally(passes);
  c_pops.tally(pops);
  c_pushes.tally(pushes);
  c_relaxations.tally(relaxations);
}

void sssp_snapshot(const Network& net, SsspScratch& scratch) {
  const std::size_t num_sw = net.num_switches();
  scratch.arc_offset.resize(num_sw + 1);
  scratch.terminals.resize(num_sw);
  scratch.arcs.clear();
  for (std::uint32_t u = 0; u < num_sw; ++u) {
    const NodeId sw = net.switch_by_index(u);
    scratch.arc_offset[u] = static_cast<std::uint32_t>(scratch.arcs.size());
    scratch.terminals[u] = net.terminals_on(sw);
    // Dead switches have no alive channels, so they are never reached.
    // Packets flow toward the destination, so the forwarding channel of v
    // is the reverse of the channel that relaxes it.
    for (ChannelId c : net.out_switch_channels(sw)) {
      scratch.arcs.push_back(
          {net.node(net.channel(c).dst).type_index, net.channel(c).reverse});
    }
  }
  scratch.arc_offset[num_sw] = static_cast<std::uint32_t>(scratch.arcs.size());
}

std::size_t sssp_destination(std::uint32_t dst_index,
                             std::span<std::uint64_t> weight,
                             bool update_weights, SsspScratch& scratch) {
  const std::size_t num_sw = scratch.terminals.size();
  assert(scratch.arc_offset.size() == num_sw + 1 && dst_index < num_sw);
  const std::vector<std::uint32_t>& arc_offset = scratch.arc_offset;
  const std::vector<SsspScratch::Arc>& arcs = scratch.arcs;
  std::vector<std::uint64_t>& dist = scratch.dist;
  std::vector<ChannelId>& parent = scratch.parent;
  std::vector<std::uint32_t>& via = scratch.via;
  std::vector<std::uint32_t>& order = scratch.order;
  MinHeap<std::uint64_t>& heap = scratch.heap;
  constexpr std::uint64_t kUnreached = ~0ULL;
  dist.assign(num_sw, kUnreached);
  parent.assign(num_sw, kInvalidChannel);
  via.resize(num_sw);
  order.resize(num_sw);
  heap.reset(num_sw);
  // Heap traffic is tallied in locals and added to the scratch once, so
  // the inner loop sees plain register increments.
  std::uint64_t pops = 0, pushes = 1, relaxations = 0;

  dist[dst_index] = 0;
  heap.push(0, dst_index);
  std::size_t settled = 0;
  while (!heap.empty()) {
    auto [du, u_index] = heap.pop();
    ++pops;
    order[settled++] = u_index;
    for (std::uint32_t a = arc_offset[u_index]; a < arc_offset[u_index + 1];
         ++a) {
      const auto [v_index, fwd] = arcs[a];  // fwd: v -> u
      const std::uint64_t cand = du + weight[fwd];
      if (cand < dist[v_index]) {
        // A relaxation from unreached is a fresh heap insert; any other
        // is a decrease-key on an already-queued switch.
        pushes += dist[v_index] == kUnreached ? 1 : 0;
        dist[v_index] = cand;
        parent[v_index] = fwd;
        via[v_index] = u_index;
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
      subtree[order[i]] = scratch.terminals[order[i]];
    }
    for (std::size_t i = settled; i-- > 1;) {  // order[0] == dst, skip it
      const std::uint32_t v_index = order[i];
      weight[parent[v_index]] += subtree[v_index];
      subtree[via[v_index]] += subtree[v_index];
    }
  }
  return settled;
}

bool sssp_fill_planes(const Network& net, const SsspOptions& options,
                      std::span<RoutingTable> planes, RoutingStats& stats,
                      std::string& error) {
  obs::TraceSpan span("sssp/fill_planes");
  const std::size_t num_sw = net.num_switches();
  std::vector<std::uint64_t> weight(
      net.num_channels(), options.initial_weight != 0
                              ? options.initial_weight
                              : sssp_initial_weight(net, planes.size()));
  SsspScratch scratch;
  sssp_snapshot(net, scratch);

  for (NodeId d : net.terminals()) {
    const NodeId dst_switch = net.switch_of(d);
    for (RoutingTable& plane : planes) {
      if (sssp_destination(net.node(dst_switch).type_index, weight,
                           options.balance, scratch) != num_sw) {
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
  scratch.work.flush();
  stats.route_seconds += span.seconds();
  return true;
}

RouteResponse route_sssp(const Network& net, const SsspOptions& options) {
  RouteResponse out;
  out.table = RoutingTable(net);
  std::span<RoutingTable> planes(&out.table, 1);
  if (!sssp_fill_planes(net, options, planes, out.stats, out.error)) {
    return out;
  }
  out.ok = true;
  return out;
}

RouteResponse SsspRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  return route_sssp(topo.net, options_);
}

}  // namespace dfsssp
