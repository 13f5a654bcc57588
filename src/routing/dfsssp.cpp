#include "routing/dfsssp.hpp"

#include "cdg/online.hpp"
#include "cdg/verify.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/collect.hpp"
#include "routing/sssp.hpp"

namespace dfsssp {

RouteResponse DfssspRouter::route(const RouteRequest& request) const {
  RouteResponse out;
  out.table = RoutingTable(request.topo().net);
  if (!route_planes(request, {&out.table, 1}, out.stats, out.error)) {
    return RouteResponse::failure(std::move(out.error));
  }
  out.ok = true;
  return out;
}

bool DfssspRouter::route_planes(const RouteRequest& request,
                                std::span<RoutingTable> planes,
                                RoutingStats& stats,
                                std::string& error) const {
  const Network& net = request.topo().net;
  const Layer max_layers = request.layer_budget(options_.max_layers);
  if (!sssp_fill_planes(net, SsspOptions{.balance = true}, planes, stats,
                        error)) {
    return false;
  }

  obs::TraceSpan span("dfsssp/layering");
  // Work counts are tallied onto this span's profile node as well.
  std::uint64_t acyclicity_checks = 0;
  FirstFitLayerer::Work work;
  const std::uint32_t num_channels =
      static_cast<std::uint32_t>(net.num_channels());
  PathSet paths = collect_paths(net, planes);

  std::vector<Layer> layer;
  Layer layers_used = 1;
  if (options_.mode == LayeringMode::kOnline) {
    layer.assign(paths.size(), 0);
    FirstFitLayerer layers(num_channels, max_layers);
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      if (seq.size() < 2) continue;  // no dependencies, stays in layer 0
      layer[p] = layers.place(seq);
      if (layer[p] == kInvalidLayer) {
        error = "DFSSSP(online): ran out of virtual layers (" +
                std::to_string(max_layers) + ")";
        return false;
      }
    }
    layers_used = layers.layers_used();
    work = layers.work();
    acyclicity_checks = work.attempts;
    static obs::Counter& c_insertions =
        obs::registry().counter("cdg/edge_insertions");
    c_insertions.tally(work.insertions);
  } else if (options_.mode == LayeringMode::kOnlineNaive) {
    // The paper's first approach: per path, per candidate layer, rebuild
    // the layer's member set and run a full depth-first cycle search.
    layer.assign(paths.size(), 0);
    std::vector<std::vector<std::uint32_t>> members(max_layers);
    for (std::uint32_t p = 0; p < paths.size(); ++p) {
      auto seq = paths.channels(p);
      if (seq.size() < 2) continue;
      Layer assigned = kInvalidLayer;
      for (Layer l = 0; l < max_layers; ++l) {
        members[l].push_back(p);
        ++acyclicity_checks;
        if (paths_are_acyclic(paths, members[l], num_channels)) {
          assigned = l;
          break;
        }
        members[l].pop_back();
      }
      if (assigned == kInvalidLayer) {
        error = "DFSSSP(naive-online): ran out of virtual layers (" +
                std::to_string(max_layers) + ")";
        return false;
      }
      layer[p] = assigned;
      layers_used = std::max(layers_used, static_cast<Layer>(assigned + 1));
    }
  } else {
    LayerOptions lopts;
    lopts.max_layers = max_layers;
    lopts.heuristic = options_.heuristic;
    lopts.balance = options_.balance;
    LayerResult res = assign_layers_offline(paths, num_channels, lopts);
    if (!res.ok) {
      error = "DFSSSP: " + res.error;
      return false;
    }
    layer = std::move(res.layer);
    layers_used = res.layers_used;
    stats.cycles_broken = res.cycles_broken;
  }
  // Algorithm 2 balances inside assign_layers_offline.
  if (options_.mode != LayeringMode::kOffline && options_.balance) {
    layers_used = balance_layers(paths, layer, layers_used, max_layers);
  }

  // Plane r's paths are the r-th of planes.size() equal blocks.
  const std::size_t per_plane =
      paths.empty() ? 0 : paths.size() / planes.size();
  std::uint32_t p = 0;
  for (RoutingTable& table : planes) {
    for (const std::size_t end = p + per_plane; p < end; ++p) {
      table.set_layer(net.switch_by_index(paths.src_switch_index(p)),
                      net.terminal_by_index(paths.dst_terminal_index(p)),
                      layer[p]);
    }
    table.set_num_layers(layers_used);
  }
  stats.layers_used = layers_used;
  stats.layering_seconds = span.seconds();
  if (acyclicity_checks > 0) {
    static obs::Counter& c_checks =
        obs::registry().counter("dfsssp/acyclicity_checks");
    c_checks.tally(acyclicity_checks);
  }
  if (work.reorders > 0) {
    static obs::Counter& c_reorders =
        obs::registry().counter("dfsssp/pk_reorders");
    static obs::Counter& c_visits =
        obs::registry().counter("cdg/pk_search_visits");
    static obs::Counter& c_cycle_rejects =
        obs::registry().counter("cdg/pk_cycle_rejects");
    static obs::Counter& c_cache_rejects =
        obs::registry().counter("cdg/pk_cache_rejects");
    c_reorders.tally(work.reorders);
    c_visits.tally(work.search_visits);
    c_cycle_rejects.tally(work.cycle_rejects);
    c_cache_rejects.tally(work.cache_rejects);
  }
  static obs::Gauge& g_layers = obs::registry().gauge("dfsssp/layers_used");
  g_layers.set(layers_used);
  return true;
}

}  // namespace dfsssp
