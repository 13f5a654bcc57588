// Single-source-shortest-path routing (paper Section II, Algorithm 1).
//
// One Dijkstra run per destination over weighted channels; after each run
// every channel's weight grows by the number of paths just routed across it,
// so later destinations avoid the load of earlier ones — global balancing
// instead of MinHop's port-local counters. Channel weights start at
// |V|^2: any detour costs at least two channels, and the accumulated extra
// weight on a single channel stays below |V|^2 (at most |V|*(|V|-1) paths),
// so a detour can never undercut a minimal path — SSSP stays shortest-path.
//
// SSSP alone is not deadlock-free (Figure 2's ring); DfssspRouter adds the
// virtual-layer assignment.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/heap.hpp"
#include "routing/router.hpp"

namespace dfsssp {

struct SsspOptions {
  /// Disable to skip the weight updates (plain per-destination Dijkstra).
  bool balance = true;
  /// 0 = automatic (|V|^2 per plane, guarantees minimality - §II). The
  /// paper's Figure 1 shows why small values are wrong: with weight 1 the
  /// accumulated updates make Dijkstra detour; tests pin that pathology.
  std::uint64_t initial_weight = 0;
};

class SsspRouter final : public Router {
 public:
  explicit SsspRouter(SsspOptions options = {}) : options_(options) {}

  std::string name() const override { return "SSSP"; }
  bool deadlock_free() const override { return false; }
  RouteResponse route(const RouteRequest& request) const override;

 private:
  SsspOptions options_;
};

/// Tallies of sssp_destination: passes, heap pops, heap pushes (initial
/// push + relaxations from unreached) and relaxations.
struct SsspWork {
  std::uint64_t passes = 0, pops = 0, pushes = 0, relaxations = 0;

  /// Tallies into the sssp/* counters and onto the calling thread's
  /// innermost open span.
  void flush() const;
};

/// Caller-owned scratch of sssp_destination, reused across destinations.
/// sssp_snapshot() fills the flat copy of the alive switch adjacency that
/// sssp_destination reads. After a call, `parent` holds each switch's
/// forwarding channel toward the destination (kInvalidChannel for the
/// destination and unreached switches), `via` the switch index that
/// channel leads to, and `order` the settled switches, destination first.
struct SsspScratch {
  /// An alive switch-to-switch link as Dijkstra relaxes it from switch u:
  /// the neighbour's switch index and the channel from it toward u.
  struct Arc {
    std::uint32_t v;
    ChannelId fwd;
  };
  /// Switch u's arcs are arcs[arc_offset[u] .. arc_offset[u + 1]), in
  /// Network::out_switch_channels order; terminals[u] is terminals_on(u).
  std::vector<std::uint32_t> arc_offset;
  std::vector<Arc> arcs;
  std::vector<std::uint32_t> terminals;

  std::vector<std::uint64_t> dist;
  std::vector<ChannelId> parent;
  std::vector<std::uint32_t> via;
  std::vector<std::uint32_t> order;
  std::vector<std::uint64_t> subtree;
  MinHeap<std::uint64_t> heap;
  SsspWork work;  // accumulates across calls
};

/// Algorithm 1's initial channel weight, |V|^2 per plane of one weight map.
inline std::uint64_t sssp_initial_weight(const Network& net,
                                         std::size_t planes = 1) {
  return std::uint64_t{net.num_nodes()} * net.num_nodes() * planes;
}

/// Copies `net`'s alive switch adjacency into `scratch`, in switch-index
/// space. sssp_destination reads only this copy, so a caller takes it once
/// the fault state is final and again after every change to it.
void sssp_snapshot(const Network& net, SsspScratch& scratch);

/// Algorithm 1's per-destination step, the one weighted SSSP kernel:
/// Dijkstra outward from switch index `dst_index` over the snapshot's
/// alive adjacency and `weight`, then, when `update_weights`, every tree
/// channel gains the number of terminals whose path to the destination
/// crosses it. Returns the number of switches settled.
std::size_t sssp_destination(std::uint32_t dst_index,
                             std::span<std::uint64_t> weight,
                             bool update_weights, SsspScratch& scratch);

/// Shared core used by SsspRouter and DfssspRouter.
RouteResponse route_sssp(const Network& net, const SsspOptions& options);

/// Multi-plane core (InfiniBand LMC multipathing): fills every table in
/// `planes` with one complete destination-based routing each, running the
/// per-destination Dijkstra once per (destination, plane) against ONE
/// shared, persistent weight map — consecutive planes therefore take
/// different minimal paths, exactly how OpenSM's SSSP treats the 2^lmc
/// LIDs of a port. Returns false on a disconnected network.
bool sssp_fill_planes(const Network& net, const SsspOptions& options,
                      std::span<RoutingTable> planes, RoutingStats& stats,
                      std::string& error);

}  // namespace dfsssp
