#include "fault/incremental.hpp"

#include <span>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {
namespace {

/// The engine's work counters. Each is tallied inside the leaf span that
/// did the work: sssp/* on fault/sssp, the first-fit counts on
/// fault/first_fit, entries_scanned on fault/invalidate and
/// paths_retracted on fault/retract.
struct Counters {
  obs::Counter &passes, &pops, &pushes, &relaxations;
  obs::Counter &checks, &insertions, &search_visits, &cycle_rejects,
      &cache_rejects;
  obs::Counter &entries_scanned, &paths_retracted;
};

/// Looked up at the first tally, so a process whose engine does no work
/// registers none.
Counters& counters() {
  static Counters c{obs::registry().counter("sssp/dijkstra_passes"),
                    obs::registry().counter("sssp/heap_pops"),
                    obs::registry().counter("sssp/heap_pushes"),
                    obs::registry().counter("sssp/relaxations"),
                    obs::registry().counter("fault/acyclicity_checks"),
                    obs::registry().counter("cdg/edge_insertions"),
                    obs::registry().counter("cdg/pk_search_visits"),
                    obs::registry().counter("cdg/pk_cycle_rejects"),
                    obs::registry().counter("cdg/pk_cache_rejects"),
                    obs::registry().counter("fault/entries_scanned"),
                    obs::registry().counter("fault/paths_retracted")};
  return c;
}

}  // namespace

IncrementalDfsssp::IncrementalDfsssp(IncrementalOptions options)
    : options_(options) {}

void IncrementalDfsssp::reset(const Topology& topo, Layer max_layers) {
  topo_ = &topo;
  max_layers_ = max_layers;
  const Network& net = topo.net;
  table_ = RoutingTable(net);
  // Algorithm 1's |V|^2 initial weight forces minimal paths, and because
  // retraction subtracts exactly what was added, the total balance weight
  // on any channel stays below |V|^2 across any fault history — repairs
  // keep producing minimal paths.
  weight_.assign(net.num_channels(), sssp_initial_weight(net));
  layers_ = FirstFitLayerer(static_cast<std::uint32_t>(net.num_channels()),
                            max_layers);
  dest_.assign(net.num_terminals(), {});
  certificate_ = {};
}

void IncrementalDfsssp::start_call() {
  dijkstra_seconds_ = layering_seconds_ = 0.0;
}

void IncrementalDfsssp::retract_destination(std::uint32_t ti) {
  obs::TraceSpan span("fault/retract");
  DestPaths& dp = dest_[ti];
  const Network& net = topo_->net;
  const NodeId d = net.terminal_by_index(ti);
  if (dp.routed) {
    counters().paths_retracted.tally(dp.src.size());
    for (std::size_t e = 0; e < dp.src.size(); ++e) {
      const std::span<const ChannelId> seq{dp.channels.data() + dp.offset[e],
                                           dp.offset[e + 1] - dp.offset[e]};
      if (seq.size() >= 2) layers_.remove(seq, dp.layer[e]);
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

bool IncrementalDfsssp::route_destination(std::uint32_t ti,
                                          std::string& error) {
  obs::TraceSpan span("fault/sssp");
  const Network& net = topo_->net;
  const NodeId d = net.terminal_by_index(ti);
  sssp_.work = {};
  const std::size_t settled =
      sssp_destination(net.node(net.switch_of(d)).type_index, weight_,
                       /*update_weights=*/true, sssp_);
  Counters& c = counters();
  c.passes.tally(sssp_.work.passes);
  c.pops.tally(sssp_.work.pops);
  c.pushes.tally(sssp_.work.pushes);
  c.relaxations.tally(sssp_.work.relaxations);
  if (settled != net.num_alive_switches()) {
    error = "alive network is disconnected";
    return false;
  }
  for (std::size_t i = 1; i < settled; ++i) {  // order[0] == dst
    const std::uint32_t s = sssp_.order[i];
    table_.set_next(net.switch_by_index(s), d, sssp_.parent[s]);
  }

  // Store the terminal-bearing sources' channel sequences, ascending
  // switch index, in layer 0; place() first-fits them.
  DestPaths dp;
  dp.offset.push_back(0);
  for (std::uint32_t s = 0; s < net.num_switches(); ++s) {
    // Skips the destination, unreached (dead) and terminal-less switches.
    if (sssp_.parent[s] == kInvalidChannel || sssp_.terminals[s] == 0) continue;
    for (std::uint32_t v = s; sssp_.parent[v] != kInvalidChannel;
         v = sssp_.via[v]) {
      dp.channels.push_back(sssp_.parent[v]);
    }
    dp.src.push_back(s);
    dp.offset.push_back(static_cast<std::uint32_t>(dp.channels.size()));
  }
  dp.layer.assign(dp.src.size(), 0);
  dp.routed = true;
  dest_[ti] = std::move(dp);
  dijkstra_seconds_ += span.seconds();
  return true;
}

bool IncrementalDfsssp::place(std::span<const std::uint32_t> destinations,
                              std::string& error) {
  obs::TraceSpan span("fault/first_fit");
  const Network& net = topo_->net;
  const FirstFitLayerer::Work before = layers_.work();
  // DFSSSP(online)'s collect_paths order: ascending source switch, then
  // ascending destination. Each destination's sources ascend, so one
  // cursor per destination walks them in step with the source loop.
  std::vector<std::uint32_t> cursor(destinations.size(), 0);
  bool placed = true;
  for (std::uint32_t s = 0; placed && s < net.num_switches(); ++s) {
    const NodeId sw = net.switch_by_index(s);
    for (std::size_t i = 0; i < destinations.size(); ++i) {
      DestPaths& dp = dest_[destinations[i]];
      const std::uint32_t e = cursor[i];
      if (e == dp.src.size() || dp.src[e] != s) continue;
      cursor[i] = e + 1;
      const std::span<const ChannelId> seq{dp.channels.data() + dp.offset[e],
                                           dp.offset[e + 1] - dp.offset[e]};
      if (seq.size() < 2) continue;  // no dependencies, stays in layer 0
      const Layer assigned = layers_.place(seq);
      if (assigned == kInvalidLayer) {
        error = "ran out of virtual layers (" + std::to_string(max_layers_) +
                ")";
        placed = false;
        break;
      }
      dp.layer[e] = assigned;
      table_.set_layer(sw, net.terminal_by_index(destinations[i]), assigned);
    }
  }

  const FirstFitLayerer::Work after = layers_.work();
  layering_seconds_ += span.seconds();
  if (after.attempts != before.attempts) {
    Counters& c = counters();
    c.checks.tally(after.attempts - before.attempts);
    c.insertions.tally(after.insertions - before.insertions);
    c.search_visits.tally(after.search_visits - before.search_visits);
    c.cycle_rejects.tally(after.cycle_rejects - before.cycle_rejects);
    c.cache_rejects.tally(after.cache_rejects - before.cache_rejects);
  }
  return placed;
}

std::uint64_t IncrementalDfsssp::count_paths() const {
  std::uint64_t routed = 0;
  for (const DestPaths& dp : dest_) routed += dp.routed ? 1 : 0;
  if (routed == 0) return 0;
  return routed * (topo_->net.num_alive_switches() - 1);
}

RouteResponse IncrementalDfsssp::finish(RouteResponse out) {
  const Network& net = topo_->net;
  const Layer layers_used = layers_.layers_used();
  table_.set_num_layers(layers_used);

  // The persistent layers already maintain topological orders (the
  // Pearce-Kelly invariant), so the certificate falls out of the repair
  // for free — no Kahn re-sort over the whole path set.
  {
    obs::TraceSpan span("fault/certificate");
    certificate_ = {};
    certificate_.num_layers = layers_used;
    certificate_.order.resize(layers_used);
    for (Layer l = 0; l < layers_used; ++l) {
      certificate_.order[l] = layers_.topological_order(l);
    }
    layering_seconds_ += span.seconds();
  }

  out.ok = true;
  out.table = table_;
  out.stats.route_seconds = dijkstra_seconds_;
  out.stats.layering_seconds = layering_seconds_;
  out.stats.layers_used = layers_used;
  out.stats.paths = count_paths();

  // The work counts were tallied at the leaves; only the gauges remain.
  static obs::Gauge& g_paths = obs::registry().gauge("fault/active_paths");
  static obs::Gauge& g_layers = obs::registry().gauge("fault/layers_used");
  static obs::Gauge& g_dead = obs::registry().gauge("fault/dead_channels");
  g_paths.set(out.stats.paths);
  g_layers.set(layers_used);
  g_dead.set(net.num_dead_channels());
  return out;
}

RouteResponse IncrementalDfsssp::fail(const std::string& error) {
  topo_ = nullptr;
  certificate_ = {};
  return RouteResponse::failure("dfsssp-inc: " + error);
}

RouteResponse IncrementalDfsssp::route(const RouteRequest& request) {
  obs::TraceSpan span("fault/route_full");
  const Topology& topo = request.topo();
  reset(topo, request.layer_budget(options_.max_layers));
  start_call();
  const Network& net = topo.net;
  sssp_snapshot(net, sssp_);

  RouteResponse out;
  std::string error;
  std::vector<std::uint32_t> alive;
  for (std::uint32_t ti = 0; ti < net.num_terminals(); ++ti) {
    if (!net.terminal_alive(net.terminal_by_index(ti))) continue;
    if (!route_destination(ti, error)) return fail(error);
    alive.push_back(ti);
  }
  if (!place(alive, error)) return fail(error);
  out.repair.destinations_rerouted = static_cast<std::uint32_t>(alive.size());
  return finish(std::move(out));
}

RouteResponse IncrementalDfsssp::repair(const RouteRequest& request,
                                        const ChurnDelta& delta) {
  obs::TraceSpan span("fault/repair");
  static obs::Counter& c_repairs = obs::registry().counter("fault/repairs");
  c_repairs.add(1);

  auto full_fallback = [&](const std::string& reason) {
    static obs::Counter& c_full =
        obs::registry().counter("fault/full_recomputes");
    c_full.add(1);
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

  start_call();
  const Network& net = topo_->net;
  RouteResponse out;
  out.repair.incremental = true;

  if (delta.no_effect()) return finish(std::move(out));

  // Invalidate: destinations that died with their switch, and destinations
  // whose forwarding entries (at any alive switch) use a downed channel —
  // the chain s -> ... -> dst crosses a dead channel iff some alive
  // switch's entry for dst is dead, so one scan of the table columns finds
  // exactly the broken forwarding trees.
  std::vector<std::uint32_t> gone, affected;
  {
    obs::TraceSpan scan("fault/invalidate");
    std::vector<std::uint8_t> dead(net.num_channels(), 0);
    for (ChannelId c : delta.downed) dead[c] = 1;
    std::uint64_t scanned = 0;
    for (std::uint32_t ti = 0; ti < dest_.size(); ++ti) {
      const NodeId d = net.terminal_by_index(ti);
      if (!net.terminal_alive(d)) {
        if (dest_[ti].routed) gone.push_back(ti);
        continue;
      }
      if (!dest_[ti].routed) {
        affected.push_back(ti);
        continue;
      }
      for (NodeId sw : net.switches()) {
        if (!net.switch_up(sw)) continue;
        ++scanned;
        const ChannelId c = table_.next(sw, d);
        if (c != kInvalidChannel && dead[c]) {
          affected.push_back(ti);
          break;
        }
      }
    }
    counters().entries_scanned.tally(scanned);
  }

  for (std::uint32_t ti : gone) retract_destination(ti);
  for (std::uint32_t ti : affected) retract_destination(ti);
  sssp_snapshot(net, sssp_);  // the delta is applied: adjacency is final
  std::string error;
  std::uint64_t migrated = 0;
  for (std::uint32_t ti : affected) {
    if (!route_destination(ti, error)) return fail(error);
    migrated += dest_[ti].src.size();
  }
  if (!place(affected, error)) {
    return full_fallback("layer overflow during repair: " + error);
  }

  out.repair.destinations_rerouted =
      static_cast<std::uint32_t>(affected.size());
  out.repair.paths_migrated = migrated;
  static obs::Counter& c_rerouted =
      obs::registry().counter("fault/destinations_rerouted");
  static obs::Counter& c_migrated =
      obs::registry().counter("fault/paths_migrated");
  c_rerouted.add(affected.size());
  c_migrated.add(migrated);
  return finish(std::move(out));
}

}  // namespace dfsssp
