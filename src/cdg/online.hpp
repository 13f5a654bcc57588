// Incremental (online) channel dependency graph.
//
// The paper's first approach — and LASH — assign each path to a layer by
// checking, per path, that its dependency edges keep the layer's CDG
// acyclic. A fresh depth-first search per path makes that
// O(|N|^2 * (|C|+|E|)) (Section IV). We instead maintain a topological
// order with the Pearce-Kelly algorithm: inserting an edge (u,v) does work
// only when ord(v) < ord(u), and only within the affected region, which
// keeps the online assignment practical while remaining exact.
//
// The affected region is found by a two-way search in the style of
// Bender, Fineman, Gilbert and Tarjan ("A new approach to incremental
// cycle detection"): a forward search from v over nodes ordered below
// ord(u) and a backward search from u over nodes ordered above ord(v)
// take turns, one node each. A node reached from both sides closes a
// cycle, so most rejects stop after a fraction of the forward region a
// one-way search would walk. When the sides do not meet, both ran to
// completion and found exactly the regions a one-way search finds
// (reachability does not depend on visit order), so the reassigned order,
// and with it topological_order(), is the same as Pearce-Kelly's.
//
// Most searches repeat a rejection already found: on Figure 9 fabrics
// 97-99% of reorders end in a cycle. Each graph therefore keeps an exact
// reject cache. A graph that only gains edges only gains reachability, so
// once a search found v ~> u in the committed graph, every later (u,v) is a
// reject too until an edge leaves the graph; a cached (u,v) is answered
// without a search. Three rules keep the cache exact:
//  - A searched reject is recorded only while the current try_add_path has
//    inserted no new edge of its own; otherwise the witness path may run
//    through a prefix edge that the call's rollback then removes.
//  - remove_path clears the cache when an edge's refcount reaches zero.
//    try_add_path's own rollback does not: it restores exactly the graph
//    the cached rejects were found in.
//  - A rejected reorder never changes the order, so a cached reject leaves
//    ord, topological_order() and every acceptance exactly as a search
//    would. A cached (u,v) has ord(v) < ord(u), so it is only looked up on
//    the reorder branch and accepted edges never pay for it.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace dfsssp {

class OnlineCdg {
 public:
  struct Adj {
    ChannelId to;
    std::uint32_t refcount;
  };

  explicit OnlineCdg(std::uint32_t num_channels);

  /// Adds the dependency edges of one path (consecutive channel pairs).
  /// Returns true and commits when the graph stays acyclic; returns false
  /// and rolls back every edge of this call otherwise.
  bool try_add_path(std::span<const ChannelId> channels);

  /// Removes a previously committed path's edges (refcount-decrement).
  /// Used to roll back multi-path transactions (e.g. LASH's bidirectional
  /// switch-pair assignment).
  void remove_path(std::span<const ChannelId> channels);

  std::uint64_t num_paths() const { return num_paths_; }
  std::uint64_t num_edges() const { return num_edges_; }
  /// Monotonic count of distinct edge materialisations (num_edges_ goes
  /// down on removals; this never does) — the deterministic insertion work
  /// the profiler attributes to the enclosing span.
  std::uint64_t num_insertions() const { return num_insertions_; }
  /// Pearce-Kelly reorder passes run so far (the non-trivial acyclicity
  /// checks); exposed so callers can flush it into the obs registry.
  std::uint64_t num_reorders() const { return num_reorders_; }
  /// Nodes expanded by the reorder searches, both directions.
  std::uint64_t num_search_visits() const { return num_search_visits_; }
  /// Reorders that found a cycle, i.e. rejected edges.
  std::uint64_t num_cycle_rejects() const { return num_cycle_rejects_; }
  /// Edges rejected by the reject cache, without a reorder or a search.
  std::uint64_t num_cache_rejects() const { return num_cache_rejects_; }

  /// Exposed for tests: true when (u,v) is currently present.
  bool has_edge(ChannelId u, ChannelId v) const;

  /// Channels currently participating in at least one dependency edge,
  /// sorted by the maintained order — a valid topological order of the
  /// CDG (the Pearce-Kelly invariant), ready to serve as a certificate
  /// layer without re-running Kahn over the whole graph.
  std::vector<ChannelId> topological_order() const;

 private:
  /// Returns false when the edge would close a cycle (nothing inserted).
  /// `may_cache`: the graph is the committed one, so a searched reject may
  /// be recorded.
  bool add_edge(ChannelId u, ChannelId v, bool may_cache);
  /// Returns true when the edge's last reference went.
  bool remove_edge(ChannelId u, ChannelId v);

  /// Pearce-Kelly reorder after inserting (u,v) with ord_[v] < ord_[u].
  /// Returns false when v reaches u (cycle).
  bool reorder(ChannelId u, ChannelId v);

  enum Mark : std::uint8_t { kUnmarked, kForward, kBackward };

  // Sorted-by-`to` adjacency per node; refcounted because many paths can
  // induce the same dependency edge.
  std::vector<std::vector<Adj>> out_;
  std::vector<std::vector<Adj>> in_;
  std::vector<std::uint32_t> ord_;  // topological order, a permutation
  // Reorder scratch, reused across calls: the side that reached each node
  // (kUnmarked between calls), the two visited lists, which double as the
  // search queues, and the pooled order slots.
  std::vector<Mark> mark_;
  std::vector<ChannelId> fwd_;
  std::vector<ChannelId> bwd_;
  std::vector<std::uint32_t> pool_;
  // Reject cache: (u << 32 | v) for every (u,v) known to close a cycle.
  std::unordered_set<std::uint64_t> rejected_;
  std::uint64_t num_paths_ = 0;
  std::uint64_t num_edges_ = 0;
  std::uint64_t num_insertions_ = 0;
  std::uint64_t num_reorders_ = 0;
  std::uint64_t num_search_visits_ = 0;
  std::uint64_t num_cycle_rejects_ = 0;
  std::uint64_t num_cache_rejects_ = 0;
};

/// First-fit of whole paths into virtual layers, one OnlineCdg per layer,
/// opened on demand up to the budget: a path goes to the lowest layer whose
/// CDG stays acyclic with it. DFSSSP's online mode, LASH, the incremental
/// repair and the APP first-fit bound all layer through this class. It
/// places every path it is given, including ones without dependencies.
class FirstFitLayerer {
 public:
  FirstFitLayerer(std::uint32_t num_channels, Layer max_layers)
      : num_channels_(num_channels), max_layers_(max_layers) {}

  /// The path's layer, or kInvalidLayer (nothing added) when no layer
  /// within the budget takes it.
  Layer place(std::span<const ChannelId> path);
  /// Paths that must share one layer (LASH: both directions of a switch
  /// pair); a layer that rejects one of them gives back the ones it took.
  Layer place(std::span<const std::span<const ChannelId>> group);
  /// Takes back a path placed in `layer`.
  void remove(std::span<const ChannelId> path, Layer layer) {
    layers_[layer].remove_path(path);
  }

  /// One past the highest layer holding a path; 1 when none does.
  Layer layers_used() const;
  /// The layer's channels in a topological order of its CDG (empty for a
  /// layer never opened).
  std::vector<ChannelId> topological_order(Layer layer) const;

  /// Work since construction: (path or group, layer) attempts, and the
  /// OnlineCdg counters summed over the layers.
  struct Work {
    std::uint64_t attempts = 0, insertions = 0, reorders = 0;
    std::uint64_t search_visits = 0, cycle_rejects = 0, cache_rejects = 0;
  };
  Work work() const;

 private:
  std::uint32_t num_channels_;
  Layer max_layers_;
  std::vector<OnlineCdg> layers_;
  std::uint64_t attempts_ = 0;
};

}  // namespace dfsssp
