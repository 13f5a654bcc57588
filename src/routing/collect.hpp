// Bridges forwarding tables to the deadlock machinery and the simulators.
// Each function takes a span of routing planes (LMC, routing/multipath.hpp);
// one table is one plane.
#pragma once

#include <span>
#include <vector>

#include "cdg/paths.hpp"
#include "common/parallel.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"

namespace dfsssp {

/// Extracts every routed path unit (source switch with at least one
/// terminal, destination terminal on another switch) as channel sequences,
/// weighted by the number of terminals on the source switch: plane by
/// plane and source-major within a plane. Every plane routes the same
/// units, so plane r's paths are the r-th of planes.size() equal blocks.
/// Throws std::runtime_error when a forwarding walk is broken — verify
/// connectivity first if failure must be handled gracefully.
PathSet collect_paths(const Network& net, std::span<const RoutingTable> planes);
inline PathSet collect_paths(const Network& net, const RoutingTable& table) {
  return collect_paths(net, {&table, 1});
}

/// Copies the per-path layers out of the planes in collect_paths() order.
std::vector<Layer> collect_layers(const Network& net,
                                  std::span<const RoutingTable> planes,
                                  const PathSet& paths);
inline std::vector<Layer> collect_layers(const Network& net,
                                         const RoutingTable& table,
                                         const PathSet& paths) {
  return collect_layers(net, {&table, 1}, paths);
}

/// True when every virtual layer's channel dependency graph over all the
/// planes' paths is acyclic — the paper's deadlock-freedom criterion
/// applied to a finished routing. Layers verify independently on `exec`'s
/// threads.
bool routing_is_deadlock_free(const Network& net,
                              std::span<const RoutingTable> planes,
                              const ExecContext& exec = {});
inline bool routing_is_deadlock_free(const Network& net,
                                     const RoutingTable& table,
                                     const ExecContext& exec = {}) {
  return routing_is_deadlock_free(net, {&table, 1}, exec);
}

}  // namespace dfsssp
