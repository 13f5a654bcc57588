#include "cdg/cdg.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

// ---- Cdg --------------------------------------------------------------------

Cdg::Cdg(const PathSet& paths, std::span<const std::uint32_t> members,
         std::uint32_t num_channels)
    : num_channels_(num_channels) {
  in_cdg_.assign(paths.size(), 0);
  alive_members_ = static_cast<std::uint32_t>(members.size());

  // Count the dependencies leaving each channel u; the prefix sum gives u's
  // bucket [bucket[u], bucket[u + 1]) of (v, path) pairs. Every pair of a
  // bucket lands in one of u's edges, and edges are laid out in (u, v)
  // order, so a bucket is also exactly u's range of path_refs_.
  std::vector<std::uint32_t> bucket(num_channels_ + 1, 0);
  for (std::uint32_t p : members) {
    in_cdg_[p] = 1;
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) ++bucket[seq[i] + 1];
  }
  for (std::uint32_t u = 0; u < num_channels_; ++u) {
    bucket[u + 1] += bucket[u];
  }
  const std::uint32_t num_deps = bucket[num_channels_];
  static obs::Counter& c_triples = obs::registry().counter("cdg/build_triples");
  c_triples.tally(num_deps);

  // Scatter the pairs into their buckets, in member order.
  struct Dep {
    ChannelId v;
    std::uint32_t p;
  };
  std::vector<Dep> deps(num_deps);
  std::vector<std::uint32_t> cursor(bucket.begin(), bucket.end() - 1);
  for (std::uint32_t p : members) {
    auto seq = paths.channels(p);
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      deps[cursor[seq[i]]++] = {seq[i + 1], p};
    }
  }

  // Per bucket: mark the distinct successors (slot[v] counts v's pairs,
  // 0 = unmarked), sort only those, turn the counts into path-range
  // cursors, place the paths in member order, then clear the marks.
  offset_.assign(num_channels_ + 1, 0);
  path_refs_.resize(num_deps);
  std::vector<std::uint32_t> slot(num_channels_, 0);
  std::vector<ChannelId> succ;
  for (ChannelId u = 0; u < num_channels_; ++u) {
    offset_[u] = static_cast<std::uint32_t>(edges_.size());
    const std::uint32_t begin = bucket[u], end = bucket[u + 1];
    succ.clear();
    for (std::uint32_t k = begin; k < end; ++k) {
      if (slot[deps[k].v]++ == 0) succ.push_back(deps[k].v);
    }
    std::sort(succ.begin(), succ.end());
    std::uint32_t path_begin = begin;
    for (ChannelId v : succ) {
      Edge e;
      e.to = v;
      e.path_begin = path_begin;
      e.path_count = slot[v];
      e.alive_count = slot[v];
      slot[v] = path_begin;
      path_begin += e.path_count;
      edges_.push_back(e);
      edge_src_.push_back(u);
    }
    for (std::uint32_t k = begin; k < end; ++k) {
      path_refs_[slot[deps[k].v]++] = deps[k].p;
    }
    for (std::uint32_t i = offset_[u]; i < edges_.size(); ++i) {
      for (std::uint32_t p : edge_paths(i)) {
        edges_[i].alive_weight += paths.weight(p);
      }
    }
    for (ChannelId v : succ) slot[v] = 0;
  }
  offset_[num_channels_] = static_cast<std::uint32_t>(edges_.size());
}

std::span<const std::uint32_t> Cdg::edge_paths(std::uint32_t edge_index) const {
  const Edge& e = edges_[edge_index];
  return {path_refs_.data() + e.path_begin, e.path_count};
}

std::vector<std::uint32_t> Cdg::alive_paths(std::uint32_t edge_index) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t p : edge_paths(edge_index)) {
    if (in_cdg_[p]) out.push_back(p);
  }
  return out;
}

std::uint32_t Cdg::find_edge(ChannelId u, ChannelId v) const {
  std::uint32_t lo = offset_[u], hi = offset_[u + 1];
  while (lo < hi) {
    std::uint32_t mid = lo + (hi - lo) / 2;
    if (edges_[mid].to < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  assert(lo < offset_[u + 1] && edges_[lo].to == v);
  return lo;
}

void Cdg::remove_path(const PathSet& paths, std::uint32_t p) {
  assert(in_cdg_[p]);
  in_cdg_[p] = 0;
  --alive_members_;
  auto seq = paths.channels(p);
  const std::uint32_t w = paths.weight(p);
  for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
    Edge& e = edges_[find_edge(seq[i], seq[i + 1])];
    assert(e.alive_count > 0);
    --e.alive_count;
    e.alive_weight -= w;
  }
}

bool Cdg::empty_alive() const {
  for (const Edge& e : edges_) {
    if (e.alive_count > 0) return false;
  }
  return true;
}

// ---- CycleFinder ------------------------------------------------------------

CycleFinder::CycleFinder(const Cdg& cdg) : cdg_(cdg) {
  color_.assign(cdg.num_nodes(), 0);
  stack_pos_.assign(cdg.num_nodes(), kNone);
}

void CycleFinder::push(ChannelId node, std::uint32_t entry_edge) {
  color_[node] = 1;
  stack_pos_[node] = static_cast<std::uint32_t>(stack_.size());
  stack_.push_back({node, cdg_.first_edge(node), entry_edge});
}

void CycleFinder::pop_whiten() {
  const Frame& f = stack_.back();
  color_[f.node] = 0;
  stack_pos_[f.node] = kNone;
  stack_.pop_back();
}

bool CycleFinder::next_cycle(std::vector<std::uint32_t>& cycle_edges) {
  cycle_edges.clear();
  for (;;) {
    if (stack_.empty()) {
      while (next_root_ < cdg_.num_nodes() && color_[next_root_] != 0) {
        ++next_root_;
      }
      if (next_root_ >= cdg_.num_nodes()) return false;
      push(next_root_, kNone);
    }
    Frame& f = stack_.back();
    const std::uint32_t end = cdg_.first_edge(f.node) +
        static_cast<std::uint32_t>(cdg_.out_edges(f.node).size());
    bool descended = false;
    while (f.cursor < end) {
      ++steps_;
      const std::uint32_t eidx = f.cursor;
      const Cdg::Edge& e = cdg_.edge(eidx);
      if (e.alive_count == 0) {
        ++f.cursor;
        continue;
      }
      if (color_[e.to] == 1) {
        // Found a cycle: tree edges from e.to's stack frame downward, plus
        // the closing edge. Do not advance the cursor — after the caller's
        // cut either this edge is dead (skipped next time) or the stack was
        // repaired.
        for (std::uint32_t s = stack_pos_[e.to] + 1; s < stack_.size(); ++s) {
          cycle_edges.push_back(stack_[s].entry_edge);
        }
        cycle_edges.push_back(eidx);
        return true;
      }
      if (color_[e.to] == 2) {
        ++f.cursor;
        continue;
      }
      ++f.cursor;
      push(e.to, eidx);
      descended = true;
      break;
    }
    if (descended) continue;
    if (f.cursor >= end) {
      color_[f.node] = 2;  // fully explored, cannot lie on a future cycle
      stack_pos_[f.node] = kNone;
      stack_.pop_back();
    }
  }
}

void CycleFinder::repair() {
  // Find the shallowest frame whose tree entry edge died; everything from
  // there up was reached through a removed dependency and must be re-opened.
  std::size_t bad = stack_.size();
  for (std::size_t i = 1; i < stack_.size(); ++i) {
    if (cdg_.edge(stack_[i].entry_edge).alive_count == 0) {
      bad = i;
      break;
    }
  }
  while (stack_.size() > bad) pop_whiten();
}

// ---- offline layer assignment ----------------------------------------------

const char* to_string(CycleHeuristic h) {
  switch (h) {
    case CycleHeuristic::kWeakestEdge: return "weakest-edge";
    case CycleHeuristic::kHeaviestEdge: return "heaviest-edge";
    case CycleHeuristic::kFirstEdge: return "first-edge";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kNoEdge = 0xFFFFFFFFu;

std::uint32_t pick_cycle_edge(const Cdg& cdg,
                              std::span<const std::uint32_t> cycle,
                              CycleHeuristic heuristic) {
  // Progress guard: an edge induced by *every* alive path would move the
  // whole layer forward unchanged and livelock the heaviest-edge heuristic
  // across layers. Every cycle has an edge induced by a strict subset (a
  // simple path cannot contain a complete cycle), so restrict to those.
  auto makes_progress = [&](std::uint32_t eidx) {
    return cdg.edge(eidx).alive_count < cdg.alive_members();
  };
  std::uint32_t best = kNoEdge;
  for (std::uint32_t eidx : cycle) {
    if (!makes_progress(eidx)) continue;
    if (best == kNoEdge) {
      best = eidx;
      if (heuristic == CycleHeuristic::kFirstEdge) return best;
      continue;
    }
    const std::uint64_t w = cdg.edge(eidx).alive_weight;
    const std::uint64_t bw = cdg.edge(best).alive_weight;
    if (heuristic == CycleHeuristic::kWeakestEdge ? (w < bw) : (w > bw)) {
      best = eidx;
    }
  }
  return best == kNoEdge ? cycle.front() : best;
}

}  // namespace

LayerResult assign_layers_offline(const PathSet& paths,
                                  std::uint32_t num_channels,
                                  const LayerOptions& options) {
  LayerResult result;
  result.layer.assign(paths.size(), 0);
  if (options.max_layers == 0) {
    result.error = "max_layers must be >= 1";
    return result;
  }

  // Paths shorter than two channels induce no dependencies; they stay in
  // layer 0 and never appear in any CDG.
  std::vector<std::uint32_t> members;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).size() >= 2) members.push_back(p);
  }

  // Telemetry for the cycle-breaking loop — the numbers behind the paper's
  // Figures 7-10. Aggregated in locals and tallied once per layer.
  static obs::Counter& c_steps =
      obs::registry().counter("cdg/cycle_search_steps");
  static obs::Counter& c_inserts =
      obs::registry().counter("cdg/edge_insertions");
  static obs::Counter& c_cycles = obs::registry().counter("cdg/cycles_found");
  static obs::Counter& c_migrated =
      obs::registry().counter("cdg/paths_migrated");
  static obs::Histogram& h_migration_layer = obs::registry().histogram(
      "cdg/migration_target_layer",
      {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16});

  std::vector<std::uint32_t> cycle;
  Layer layers_used = 1;
  for (Layer l = 0; l < options.max_layers; ++l) {
    if (members.empty()) break;
    layers_used = static_cast<Layer>(l + 1);
    obs::TraceSpan span("dfsssp/cycle_search");
    Cdg cdg(paths, members, num_channels);
    CycleFinder finder(cdg);
    std::vector<std::uint32_t> moved;
    std::uint64_t layer_cycles = 0;
    while (finder.next_cycle(cycle)) {
      ++layer_cycles;
      if (l + 1 >= options.max_layers) {
        result.error = "cycle remains in the last virtual layer (" +
                       std::to_string(options.max_layers) +
                       " layers are not enough)";
        return result;
      }
      const std::uint32_t cut = pick_cycle_edge(cdg, cycle, options.heuristic);
      for (std::uint32_t p : cdg.alive_paths(cut)) {
        cdg.remove_path(paths, p);
        result.layer[p] = static_cast<Layer>(l + 1);
        moved.push_back(p);
      }
      ++result.cycles_broken;
      h_migration_layer.record(static_cast<std::uint64_t>(l) + 1);
      finder.repair();
    }
    // This layer's work, tallied onto the dfsssp/cycle_search span too: DFS
    // edge examinations, the CDG edges materialised for this layer's build,
    // the cycles it broke and the paths it moved up.
    c_steps.tally(finder.steps());
    c_inserts.tally(cdg.num_edges());
    c_cycles.tally(layer_cycles);
    c_migrated.tally(moved.size());
    members = std::move(moved);
  }

  result.layers_used = layers_used;
  if (options.balance && layers_used < options.max_layers) {
    result.layers_used =
        balance_layers(paths, result.layer, layers_used, options.max_layers);
  }

  // Edges broken, attributed to the heuristic that chose them (== cycles
  // broken: one cut edge per cycle).
  obs::registry()
      // One name per Heuristic enum value: cardinality is bounded by the
      // enum, not by input data.
      // NOLINTNEXTLINE(dfs-metric-name-literal): bounded by Heuristic enum
      .counter(std::string("cdg/edges_broken/") + to_string(options.heuristic))
      .add(result.cycles_broken);
  // Final per-layer occupancy (after balancing when enabled): one recorded
  // sample per used layer, valued at the layer's member count.
  static obs::Histogram& h_occupancy = obs::registry().histogram(
      "cdg/layer_occupancy", obs::exponential_buckets(1, 4.0, 10));
  std::vector<std::uint64_t> occupancy(result.layers_used, 0);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).empty()) continue;
    ++occupancy[result.layer[p]];
  }
  for (std::uint64_t o : occupancy) h_occupancy.record(o);

  result.ok = true;
  return result;
}

Layer balance_layers(const PathSet& paths, std::vector<Layer>& layer,
                     Layer layers_used, Layer max_layers) {
  if (layers_used >= max_layers) return layers_used;

  // Member lists and weighted loads per used layer.
  std::vector<std::vector<std::uint32_t>> members(layers_used);
  std::vector<std::uint64_t> load(layers_used, 0);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (paths.channels(p).empty()) continue;  // intra-switch: layer is moot
    members[layer[p]].push_back(p);
    load[layer[p]] += paths.weight(p);
  }

  // Give each empty layer to the used layer with the highest per-share load.
  std::vector<std::uint32_t> shares(layers_used, 1);
  for (Layer extra = layers_used; extra < max_layers; ++extra) {
    std::size_t best = 0;
    double best_share = -1.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      double share = static_cast<double>(load[i]) / shares[i];
      if (share > best_share) {
        best_share = share;
        best = i;
      }
    }
    ++shares[best];
  }

  // Split each layer's member list into `shares` weight-balanced chunks and
  // move every chunk but the first onto a fresh (previously empty) layer.
  // A subset of an acyclic path set stays acyclic, so no re-search needed.
  Layer next_free = layers_used;
  for (Layer l = 0; l < layers_used; ++l) {
    if (shares[l] <= 1) continue;
    const std::uint64_t target = (load[l] + shares[l] - 1) / shares[l];
    std::uint64_t acc = 0;
    std::uint32_t chunk = 0;
    for (std::uint32_t p : members[l]) {
      if (acc >= target * (chunk + 1) && chunk + 1 < shares[l]) ++chunk;
      if (chunk > 0) layer[p] = static_cast<Layer>(next_free + chunk - 1);
      acc += paths.weight(p);
    }
    next_free = static_cast<Layer>(next_free + shares[l] - 1);
  }
  return next_free;
}

}  // namespace dfsssp
