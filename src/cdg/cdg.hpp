// Channel dependency graph (CDG) and the offline layer-assignment algorithm.
//
// Following Dally/Seitz, the CDG of a routing has one node per (inter-switch)
// channel and an edge (c_i, c_j) whenever some routed path uses c_i directly
// before c_j. A routing is deadlock-free if every virtual layer's CDG is
// acyclic (sufficient condition; Section III of the paper).
//
// The offline algorithm (paper Algorithm 2) puts all paths into layer 0,
// searches the layer's CDG for a cycle, breaks the cycle by moving every
// path that induces one chosen cycle edge into the next layer, and resumes
// the *same* depth-first search — edge removals never create cycles, so the
// search state stays valid after a repair step. Each layer therefore costs
// one (resumable) cycle search, which is what makes the offline algorithm
// scale (Section IV: 170 s instead of 2 h on a 4096-node network).
//
// Cycle-edge choice implements the paper's three heuristics: weakest edge
// (fewest inducing paths — the recommended one), heaviest edge, and the
// pseudo-random first edge of the discovered cycle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cdg/paths.hpp"
#include "common/types.hpp"

namespace dfsssp {

/// Immutable-topology CDG over one layer's member paths; supports removing
/// paths (alive counters) but never adding, which is all Algorithm 2 needs.
///
/// The build is a counting pass, linear in the number of dependencies (one
/// per consecutive channel pair of a member path): count the dependencies
/// per source channel u, scatter the (v, path) pairs into u's bucket in
/// member order, then, per bucket, sort only its distinct successors v (at
/// most the switch's out-degree) and place each path into its edge. Edges
/// come out in (u, v) order, and each edge's path list in member order.
/// Algorithm 2 and the witness use this one build. The certificate does
/// not: it reads each layer's dependency set straight from the forwarding
/// table (analysis/certificate.hpp), since it needs no path lists.
class Cdg {
 public:
  /// Builds the CDG induced by `members` (indices into `paths`, any order,
  /// no repeats). `num_channels` sizes the node set; every channel of a
  /// member path must be below it.
  Cdg(const PathSet& paths, std::span<const std::uint32_t> members,
      std::uint32_t num_channels);

  struct Edge {
    ChannelId to = 0;
    std::uint32_t path_begin = 0;  // range into path_refs()
    std::uint32_t path_count = 0;
    std::uint32_t alive_count = 0;
    std::uint64_t alive_weight = 0;
  };

  std::uint32_t num_nodes() const { return num_channels_; }
  std::size_t num_edges() const { return edges_.size(); }

  std::span<const Edge> out_edges(ChannelId u) const {
    return {edges_.data() + offset_[u], offset_[u + 1] - offset_[u]};
  }
  const Edge& edge(std::uint32_t edge_index) const {
    return edges_[edge_index];
  }
  ChannelId edge_source(std::uint32_t edge_index) const {
    return edge_src_[edge_index];
  }
  /// Global edge index range of node u: [first_edge(u), first_edge(u)+deg).
  std::uint32_t first_edge(ChannelId u) const { return offset_[u]; }

  /// Paths (dead or alive) that ever induced this edge, in member order; a
  /// path that uses the dependency twice is listed twice.
  std::span<const std::uint32_t> edge_paths(std::uint32_t edge_index) const;

  /// Member paths still alive on this edge, in member order.
  std::vector<std::uint32_t> alive_paths(std::uint32_t edge_index) const;

  bool path_alive(std::uint32_t p) const { return in_cdg_[p] != 0; }

  /// Member paths not yet removed.
  std::uint32_t alive_members() const { return alive_members_; }

  /// Removes a member path: decrements alive counters on every edge the
  /// path induces. Precondition: path_alive(p).
  void remove_path(const PathSet& paths, std::uint32_t p);

  /// True when every edge's alive count is zero.
  bool empty_alive() const;

 private:
  std::uint32_t find_edge(ChannelId u, ChannelId v) const;

  std::uint32_t num_channels_;
  std::vector<std::uint32_t> offset_;    // per node, into edges_
  std::vector<Edge> edges_;
  std::vector<ChannelId> edge_src_;      // per edge
  std::vector<std::uint32_t> path_refs_; // concatenated per-edge path lists
  std::vector<std::uint8_t> in_cdg_;     // per global path id
  std::uint32_t alive_members_ = 0;
};

/// Resumable iterative depth-first cycle search over a Cdg.
///
/// Usage: while (next_cycle(out)) { cut something; repair(); }.
/// next_cycle returns edges (global edge indices) of one directed cycle
/// through currently-alive edges; after the caller removed paths, repair()
/// re-validates the suspended DFS stack (black nodes stay black — removals
/// cannot create cycles — and any subtree entered through a now-dead tree
/// edge is re-whitened).
class CycleFinder {
 public:
  explicit CycleFinder(const Cdg& cdg);

  bool next_cycle(std::vector<std::uint32_t>& cycle_edges);
  void repair();

  /// Edge examinations performed by next_cycle so far — the deterministic
  /// cost of the search, independent of wall clock and thread count.
  std::uint64_t steps() const { return steps_; }

 private:
  struct Frame {
    ChannelId node;
    std::uint32_t cursor;      // next edge index (global) to examine
    std::uint32_t entry_edge;  // global edge index used to enter, or kNone
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  void push(ChannelId node, std::uint32_t entry_edge);
  void pop_whiten();

  const Cdg& cdg_;
  std::vector<std::uint8_t> color_;  // 0 white, 1 gray, 2 black
  std::vector<std::uint32_t> stack_pos_;
  std::vector<Frame> stack_;
  ChannelId next_root_ = 0;
  std::uint64_t steps_ = 0;
};

enum class CycleHeuristic : std::uint8_t {
  kWeakestEdge,   // fewest inducing paths (paper's winner)
  kHeaviestEdge,  // most inducing paths
  kFirstEdge,     // pseudo-random: first edge of the discovered cycle
};

const char* to_string(CycleHeuristic h);

struct LayerOptions {
  Layer max_layers = 8;
  CycleHeuristic heuristic = CycleHeuristic::kWeakestEdge;
  /// Spread paths over unused layers afterwards (Algorithm 2's last loop).
  bool balance = false;
};

struct LayerResult {
  bool ok = false;
  std::string error;
  /// Per path (index into the PathSet) the assigned virtual layer.
  std::vector<Layer> layer;
  /// Layers carrying at least one path (after balancing, if enabled).
  Layer layers_used = 1;
  std::uint64_t cycles_broken = 0;
};

/// Algorithm 2: offline acyclic path partitioning.
LayerResult assign_layers_offline(const PathSet& paths,
                                  std::uint32_t num_channels,
                                  const LayerOptions& options);

/// Algorithm 2's final loop: redistributes paths from used layers onto empty
/// ones to even out the weighted load, without any new cycle search (moving
/// a subset of an acyclic layer into an *empty* layer keeps both acyclic).
/// Returns the new number of used layers.
Layer balance_layers(const PathSet& paths, std::vector<Layer>& layer,
                     Layer layers_used, Layer max_layers);

}  // namespace dfsssp
