#include "fault/incremental.hpp"

#include <algorithm>
#include <span>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

namespace {
constexpr std::uint64_t kInf = ~0ULL;
}

IncrementalDfsssp::IncrementalDfsssp(IncrementalOptions options)
    : options_(options) {}

void IncrementalDfsssp::reset(const Topology& topo, Layer max_layers) {
  topo_ = &topo;
  max_layers_ = max_layers;
  const Network& net = topo.net;
  table_ = RoutingTable(net);
  // Same initial weight as sssp_fill_planes: |V|^2 forces minimal paths,
  // and because retraction subtracts exactly what was added, the total
  // balance weight on any channel stays below |V|^2 across any fault
  // history — repairs keep producing minimal paths.
  const std::uint64_t n = net.num_nodes();
  weight_.assign(net.num_channels(), n * n);
  layers_.clear();
  dest_.assign(net.num_terminals(), {});
  certificate_ = {};
  dist_.assign(net.num_switches(), kInf);
  parent_.assign(net.num_switches(), kInvalidChannel);
  order_.assign(net.num_switches(), 0);
  subtree_.assign(net.num_switches(), 0);
}

void IncrementalDfsssp::retract_destination(std::uint32_t ti) {
  DestPaths& dp = dest_[ti];
  const Network& net = topo_->net;
  const NodeId d = net.terminal_by_index(ti);
  if (dp.routed) {
    for (std::size_t e = 0; e < dp.src.size(); ++e) {
      const std::span<const ChannelId> seq{dp.channels.data() + dp.offset[e],
                                           dp.offset[e + 1] - dp.offset[e]};
      if (seq.size() >= 2) layers_[dp.layer[e]]->remove_path(seq);
      const std::uint64_t w = net.terminals_on(net.switch_by_index(dp.src[e]));
      for (ChannelId c : seq) weight_[c] -= w;
    }
  }
  for (NodeId sw : net.switches()) {
    table_.set_next(sw, d, kInvalidChannel);
    table_.set_layer(sw, d, 0);
  }
  dp = {};
}

IncrementalDfsssp::DestStatus IncrementalDfsssp::route_destination(
    std::uint32_t ti, std::string& error) {
  const Network& net = topo_->net;
  const NodeId d = net.terminal_by_index(ti);
  const NodeId dst_switch = net.switch_of(d);
  const std::uint32_t dst_index = net.node(dst_switch).type_index;
  const std::size_t num_sw = net.num_switches();
  Timer timer;

  // Weighted Dijkstra outward from the destination switch over the alive
  // adjacency; dead switches are never reached because every channel
  // touching them is filtered out.
  std::fill(dist_.begin(), dist_.end(), kInf);
  std::fill(parent_.begin(), parent_.end(), kInvalidChannel);
  heap_.reset(num_sw);
  dist_[dst_index] = 0;
  heap_.push(0, dst_index);
  std::size_t settled = 0;
  while (!heap_.empty()) {
    auto [du, u_index] = heap_.pop();
    order_[settled++] = u_index;
    const NodeId u = net.switch_by_index(u_index);
    for (ChannelId c : net.out_switch_channels(u)) {
      const NodeId v = net.channel(c).dst;
      const std::uint32_t v_index = net.node(v).type_index;
      const ChannelId fwd = net.channel(c).reverse;  // v -> u, toward dst
      const std::uint64_t cand = du + weight_[fwd];
      if (cand < dist_[v_index]) {
        dist_[v_index] = cand;
        parent_[v_index] = fwd;
        heap_.push_or_decrease(cand, v_index);
      }
    }
  }
  if (settled != net.num_alive_switches()) {
    error = "alive network is disconnected";
    return DestStatus::kDisconnected;
  }

  for (std::size_t i = 1; i < settled; ++i) {  // order_[0] == dst
    table_.set_next(net.switch_by_index(order_[i]), d, parent_[order_[i]]);
  }

  // Algorithm 1's weight update, restricted to the alive subgraph: channel
  // weights grow by the number of (alive terminal, d) paths crossing them.
  for (std::size_t i = 0; i < settled; ++i) {
    subtree_[order_[i]] = net.terminals_on(net.switch_by_index(order_[i]));
  }
  for (std::size_t i = settled; i-- > 1;) {
    const std::uint32_t v_index = order_[i];
    const ChannelId fwd = parent_[v_index];
    weight_[fwd] += subtree_[v_index];
    const NodeId next_sw = net.channel(fwd).dst;
    subtree_[net.node(next_sw).type_index] += subtree_[v_index];
  }
  dijkstra_seconds_ += timer.seconds();

  // Store the terminal-bearing sources' channel sequences and first-fit
  // them into the persistent per-layer CDGs — ascending switch index, so a
  // repair is one deterministic serial pass.
  Timer layering_timer;
  DestPaths dp;
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  std::vector<ChannelId> seq;
  for (std::uint32_t s = 0; s < num_sw; ++s) {
    if (s == dst_index || dist_[s] == kInf) continue;
    const NodeId sw = net.switch_by_index(s);
    if (net.terminals_on(sw) == 0) continue;
    seq.clear();
    for (ChannelId c = parent_[s]; c != kInvalidChannel;
         c = parent_[net.node(net.channel(c).dst).type_index]) {
      seq.push_back(c);
    }
    Layer assigned = 0;
    if (seq.size() >= 2) {
      assigned = kInvalidLayer;
      for (Layer l = 0; l < max_layers_; ++l) {
        if (l == layers_.size()) {
          layers_.push_back(std::make_unique<OnlineCdg>(num_channels));
        }
        ++acyclicity_checks_;
        if (layers_[l]->try_add_path(seq)) {
          assigned = l;
          break;
        }
      }
      if (assigned == kInvalidLayer) {
        error = "ran out of virtual layers (" + std::to_string(max_layers_) +
                ")";
        layering_seconds_ += layering_timer.seconds();
        return DestStatus::kOverflow;
      }
    }
    dp.src.push_back(s);
    dp.channels.insert(dp.channels.end(), seq.begin(), seq.end());
    dp.offset.push_back(static_cast<std::uint32_t>(dp.channels.size()));
    dp.layer.push_back(assigned);
    table_.set_layer(sw, d, assigned);
  }
  dp.offset.insert(dp.offset.begin(), 0);
  dp.routed = true;
  dest_[ti] = std::move(dp);
  layering_seconds_ += layering_timer.seconds();
  return DestStatus::kOk;
}

Layer IncrementalDfsssp::scan_layers_used() const {
  Layer used = 1;
  for (const DestPaths& dp : dest_) {
    for (Layer l : dp.layer) {
      used = std::max(used, static_cast<Layer>(l + 1));
    }
  }
  return used;
}

IncrementalDfsssp::SearchWork IncrementalDfsssp::search_work() const {
  SearchWork work;
  for (const auto& l : layers_) {
    work.visits += l->num_search_visits();
    work.rejects += l->num_cycle_rejects();
  }
  return work;
}

std::uint64_t IncrementalDfsssp::count_paths() const {
  std::uint64_t routed = 0;
  for (const DestPaths& dp : dest_) routed += dp.routed ? 1 : 0;
  if (routed == 0) return 0;
  return routed * (topo_->net.num_alive_switches() - 1);
}

RouteResponse IncrementalDfsssp::finish(const RouteRequest& request,
                                        RouteResponse out) {
  const Network& net = topo_->net;
  const Layer layers_used = scan_layers_used();
  table_.set_num_layers(layers_used);

  if (options_.emit_certificate) {
    // The persistent per-layer OnlineCdgs already maintain a topological
    // order (Pearce-Kelly invariant), so the certificate falls out of the
    // repair for free — no Kahn re-sort over the whole path set.
    Timer cert_timer;
    certificate_ = {};
    certificate_.num_layers = layers_used;
    certificate_.order.resize(layers_used);
    for (Layer l = 0; l < layers_used && l < layers_.size(); ++l) {
      certificate_.order[l] = layers_[l]->topological_order();
    }
    layering_seconds_ += cert_timer.seconds();
  }

  out.ok = true;
  out.table = table_;
  out.stats.route_seconds = dijkstra_seconds_;
  out.stats.layering_seconds = layering_seconds_;
  out.stats.layers_used = layers_used;
  out.stats.paths = count_paths();

  obs::Registry& sink = request.sink();
  if (acyclicity_checks_ > 0) {
    sink.counter("fault/acyclicity_checks").add(acyclicity_checks_);
    // finish() runs inside the fault/route_full or fault/repair span, so
    // the re-layer attempts attribute to whichever path ran.
    PROF_COUNT("fault/acyclicity_checks", acyclicity_checks_);
    const SearchWork work = search_work();
    sink.counter("cdg/pk_search_visits")
        .add(work.visits - search_work_at_start_.visits);
    sink.counter("cdg/pk_cycle_rejects")
        .add(work.rejects - search_work_at_start_.rejects);
  }
  sink.gauge("fault/active_paths").set(out.stats.paths);
  sink.gauge("fault/layers_used").set(layers_used);
  sink.gauge("fault/dead_channels").set(net.num_dead_channels());
  return out;
}

RouteResponse IncrementalDfsssp::route(const RouteRequest& request) {
  TRACE_SPAN("fault/route_full");
  static obs::Histogram& h_route_full_ns =
      obs::registry().timing_histogram("fault/route_full_ns");
  ScopedTimer phase_timer(h_route_full_ns);
  const Topology& topo = request.topo();
  reset(topo, request.layer_budget(options_.max_layers));
  dijkstra_seconds_ = layering_seconds_ = 0.0;
  acyclicity_checks_ = 0;
  search_work_at_start_ = {};
  const Network& net = topo.net;

  RouteResponse out;
  std::string error;
  for (std::uint32_t ti = 0; ti < net.num_terminals(); ++ti) {
    if (!net.terminal_alive(net.terminal_by_index(ti))) continue;
    const DestStatus st = route_destination(ti, error);
    if (st != DestStatus::kOk) {
      return RouteResponse::failure("dfsssp-inc: " + error);
    }
  }
  out.repair.destinations_rerouted =
      static_cast<std::uint32_t>(std::count_if(
          dest_.begin(), dest_.end(),
          [](const DestPaths& dp) { return dp.routed; }));
  return finish(request, std::move(out));
}

RouteResponse IncrementalDfsssp::repair(const RouteRequest& request,
                                        const ChurnDelta& delta) {
  TRACE_SPAN("fault/repair");
  static obs::Histogram& h_repair_ns =
      obs::registry().timing_histogram("fault/repair_ns");
  ScopedTimer phase_timer(h_repair_ns);
  obs::Registry& sink = request.sink();
  sink.counter("fault/repairs").add(1);

  auto full_fallback = [&](const std::string& reason) {
    sink.counter("fault/full_recomputes").add(1);
    RouteResponse out = route(request);
    out.repair.fallback_reason = reason;
    return out;
  };

  if (topo_ == nullptr || &request.topo() != topo_) {
    return full_fallback("repair without a matching prior route");
  }
  if (!delta.switches_up.empty()) {
    // A revived switch needs forwarding entries for every destination:
    // that is a full recompute by definition.
    return full_fallback("switch revived");
  }

  dijkstra_seconds_ = layering_seconds_ = 0.0;
  acyclicity_checks_ = 0;
  search_work_at_start_ = search_work();
  const Network& net = topo_->net;
  RouteResponse out;
  out.repair.incremental = true;

  if (delta.no_effect()) return finish(request, std::move(out));

  // Invalidate: destinations that died with their switch, and destinations
  // whose forwarding entries (at any alive switch) use a downed channel —
  // the chain s -> ... -> dst crosses a dead channel iff some alive
  // switch's entry for dst is dead, so one scan of the table columns finds
  // exactly the broken forwarding trees.
  std::vector<std::uint8_t> dead(net.num_channels(), 0);
  for (ChannelId c : delta.downed) dead[c] = 1;
  std::vector<std::uint32_t> affected;
  for (std::uint32_t ti = 0; ti < dest_.size(); ++ti) {
    const NodeId d = net.terminal_by_index(ti);
    if (!net.terminal_alive(d)) {
      if (dest_[ti].routed) retract_destination(ti);
      continue;
    }
    if (!dest_[ti].routed) {
      affected.push_back(ti);
      continue;
    }
    for (NodeId sw : net.switches()) {
      if (!net.switch_up(sw)) continue;
      const ChannelId c = table_.next(sw, d);
      if (c != kInvalidChannel && dead[c]) {
        affected.push_back(ti);
        break;
      }
    }
  }

  for (std::uint32_t ti : affected) retract_destination(ti);
  std::string error;
  std::uint64_t migrated = 0;
  for (std::uint32_t ti : affected) {
    const DestStatus st = route_destination(ti, error);
    if (st == DestStatus::kOverflow) {
      return full_fallback("layer overflow during repair: " + error);
    }
    if (st == DestStatus::kDisconnected) {
      return RouteResponse::failure("dfsssp-inc: " + error);
    }
    migrated += dest_[ti].src.size();
  }

  out.repair.destinations_rerouted =
      static_cast<std::uint32_t>(affected.size());
  out.repair.paths_migrated = migrated;
  sink.counter("fault/destinations_rerouted").add(affected.size());
  sink.counter("fault/paths_migrated").add(migrated);
  return finish(request, std::move(out));
}

}  // namespace dfsssp
