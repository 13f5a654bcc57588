#include "routing/lash.hpp"

#include "cdg/online.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {

RouteResponse LashRouter::route(const RouteRequest& request) const {
  const Topology& topo = request.topo();
  const Network& net = topo.net;
  const Layer max_layers = request.layer_budget(options_.max_layers);
  obs::TraceSpan span("lash/route");
  RouteResponse out;
  out.table = RoutingTable(net);

  // LASH routes at switch-pair granularity: one shortest path per
  // (src switch, dst switch); every terminal on the destination switch gets
  // the same port, and every terminal pair between the two switches shares
  // the pair's virtual layer.
  std::vector<std::vector<NodeId>> terms_by_sw(net.num_switches());
  for (NodeId t : net.terminals()) {
    terms_by_sw[net.node(net.switch_of(t)).type_index].push_back(t);
  }

  std::vector<std::uint32_t> dist;
  std::vector<std::uint64_t> usage(net.num_channels(), 0);
  for (NodeId dst_sw : net.switches()) {
    const auto& terms = terms_by_sw[net.node(dst_sw).type_index];
    if (terms.empty()) continue;
    bfs_hops_to(net, dst_sw, dist);
    for (NodeId s : net.switches()) {
      if (s == dst_sw) continue;
      const std::uint32_t ds = dist[net.node(s).type_index];
      if (ds == kUnreachable) {
        return RouteResponse::failure("network is disconnected");
      }
      // One arbitrary-but-fixed minimal path per switch pair, like the
      // OpenSM engine whose choice follows fabric discovery order. The
      // seeded hash models an arbitrary order without inheriting the
      // generator's construction-order bias; kFirstCandidate keeps that
      // bias (structured paths - see LashOptions::PathSelection).
      std::vector<ChannelId> candidates;
      for (ChannelId c : net.out_switch_channels(s)) {
        if (dist[net.node(net.channel(c).dst).type_index] == ds - 1) {
          candidates.push_back(c);
        }
      }
      ChannelId pick = candidates.front();
      if (options_.selection == LashOptions::PathSelection::kHashed) {
        std::uint64_t h = 0x9E3779B97F4A7C15ULL *
            (static_cast<std::uint64_t>(net.node(s).type_index) << 20 ^
             net.node(dst_sw).type_index);
        pick = candidates[splitmix64(h) % candidates.size()];
      }
      ++usage[pick];
      for (NodeId t : terms) out.table.set_next(s, t, pick);
    }
  }
  out.stats.route_seconds = span.seconds();

  // Online first-fit layering over *unordered* switch pairs: one service
  // level serves the bidirectional communication of a pair, so both
  // directions' dependency edges must fit the same layer (as in the LASH
  // paper and the OpenSM engine).
  FirstFitLayerer layers(static_cast<std::uint32_t>(net.num_channels()),
                         max_layers);
  std::vector<ChannelId> fwd_seq, rev_seq;
  for (NodeId a : net.switches()) {
    for (NodeId b : net.switches()) {
      if (b <= a) continue;
      const auto& terms_a = terms_by_sw[net.node(a).type_index];
      const auto& terms_b = terms_by_sw[net.node(b).type_index];
      if (terms_a.empty() && terms_b.empty()) continue;
      // Only traffic-carrying directions contribute dependencies.
      fwd_seq.clear();
      rev_seq.clear();
      if (!terms_b.empty() && !out.table.extract_path(net, a, terms_b.front(), fwd_seq)) {
        return RouteResponse::failure("broken forwarding");
      }
      if (!terms_a.empty() && !out.table.extract_path(net, b, terms_a.front(), rev_seq)) {
        return RouteResponse::failure("broken forwarding");
      }
      const std::span<const ChannelId> pair[] = {fwd_seq, rev_seq};
      const Layer assigned = layers.place(pair);
      if (assigned == kInvalidLayer) {
        return RouteResponse::failure(
            "LASH: ran out of virtual layers (" +
            std::to_string(max_layers) + ")");
      }
      for (NodeId t : terms_b) out.table.set_layer(a, t, assigned);
      for (NodeId t : terms_a) out.table.set_layer(b, t, assigned);
      out.stats.paths += (terms_b.empty() ? 0 : 1) + (terms_a.empty() ? 0 : 1);
    }
  }
  out.table.set_num_layers(layers.layers_used());
  out.stats.layers_used = layers.layers_used();
  out.stats.layering_seconds = span.seconds() - out.stats.route_seconds;
  // Deterministic layering cost, also attributed to the lash/route span.
  const FirstFitLayerer::Work work = layers.work();
  static obs::Counter& c_attempts =
      obs::registry().counter("lash/layer_attempts");
  static obs::Counter& c_insertions =
      obs::registry().counter("cdg/edge_insertions");
  static obs::Counter& c_visits =
      obs::registry().counter("cdg/pk_search_visits");
  static obs::Counter& c_cycle_rejects =
      obs::registry().counter("cdg/pk_cycle_rejects");
  static obs::Counter& c_cache_rejects =
      obs::registry().counter("cdg/pk_cache_rejects");
  c_attempts.tally(work.attempts);
  c_insertions.tally(work.insertions);
  c_visits.tally(work.search_visits);
  c_cycle_rejects.tally(work.cycle_rejects);
  c_cache_rejects.tally(work.cache_rejects);
  out.ok = true;
  return out;
}

}  // namespace dfsssp
