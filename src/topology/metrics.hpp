// Structural network metrics (Section I's "idealized specification"):
// diameter, average shortest-path length, degree statistics, and a
// bisection-width estimate. These are the upper bounds the paper contrasts
// with the routing-dependent effective bisection bandwidth.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "topology/network.hpp"

namespace dfsssp {

/// bfs_hops_to's distance of a switch it cannot reach.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// Hop distance from every switch to `dst_switch` over the switch graph
/// (links are bidirectional, so one forward BFS suffices). `dist` is indexed
/// by switch type_index.
void bfs_hops_to(const Network& net, NodeId dst_switch,
                 std::vector<std::uint32_t>& dist);

struct NetworkMetrics {
  /// Longest shortest switch-to-switch path (hops).
  std::uint32_t diameter = 0;
  /// Mean shortest-path length over ordered switch pairs.
  double avg_path_length = 0.0;
  /// Inter-switch degree statistics.
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  double avg_degree = 0.0;
  /// Physical links between switches (channel pairs).
  std::uint64_t num_links = 0;
  /// Terminals per switch spread.
  std::uint32_t min_terminals = 0;
  std::uint32_t max_terminals = 0;
};

/// Exact metrics via per-switch BFS: O(S * (S + C)).
NetworkMetrics compute_metrics(const Network& net);

/// Estimated bisection width in physical links: the best (smallest) cut
/// found over `trials` randomized balanced partitions improved by
/// Kernighan-Lin-style greedy swaps. An upper bound on the true bisection
/// width; exact on small symmetric topologies in practice.
std::uint64_t estimate_bisection_width(const Network& net, Rng& rng,
                                       std::uint32_t trials = 8);

/// The relative effective-bisection-bandwidth ceiling implied by the
/// estimated bisection width: a random perfect matching sends about half
/// its flows across the cut, so eBB <= min(1, width / (terminals / 4)).
double bisection_bandwidth_ceiling(const Network& net, Rng& rng);

/// Order-sensitive 64-bit FNV-1a digest of the frozen network's structure:
/// node types/indices, the full channel list (src, dst, reverse) and the
/// terminal attachments. Names are excluded — two constructions that wire
/// the same channels in the same order hash equal regardless of naming.
/// The determinism fingerprint the gen_scale bench and the chunked-vs-seed
/// property tests compare.
std::uint64_t structure_hash(const Network& net);

}  // namespace dfsssp
