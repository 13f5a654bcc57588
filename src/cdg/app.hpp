// The Acyclic Path Partitioning (APP) problem, abstractly (paper §III-A).
//
// Instance: a generator P of paths over the nodes of a directed graph and an
// integer k. Question: can P be partitioned into k classes such that each
// class induces an acyclic graph? The paper proves the decision problem
// NP-complete by reduction from graph k-coloring (Theorem 1).
//
// This module provides:
//  * an exact exponential solver (for small instances) used to measure the
//    optimality gap of the practical heuristics;
//  * a greedy first-fit upper bound;
//  * the k-coloring reduction, so tests can exercise the NP-completeness
//    argument constructively: a graph is k-colorable iff the reduced APP
//    instance admits a k-cover.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dfsssp::app {

using Node = std::uint32_t;
using Path = std::vector<Node>;

struct Instance {
  std::uint32_t num_nodes = 0;
  std::vector<Path> paths;
};

/// True when the union of the given paths' edges is acyclic.
bool union_is_acyclic(const Instance& inst,
                      std::span<const std::uint32_t> member_path_ids);

/// True when `assignment` (one class id per path, values < k) is a k-cover.
bool is_cover(const Instance& inst, std::span<const std::uint32_t> assignment,
              std::uint32_t k);

/// Exact minimum number of classes via backtracking with symmetry pruning
/// (a path may open at most one new class). Returns 0 when no cover with
/// <= max_k classes exists. Exponential — small instances only.
std::uint32_t exact_min_layers(const Instance& inst, std::uint32_t max_k);

/// Greedy first-fit upper bound (FirstFitLayerer, classes capped at 255);
/// returns 0 when max_k is exceeded.
std::uint32_t first_fit_layers(const Instance& inst, std::uint32_t max_k);

/// Theorem 1's polynomial transformation: undirected graph -> APP instance
/// with one path per vertex, such that the graph is k-colorable iff the
/// instance has a k-cover. For each edge {v,w} the instance has two nodes
/// a,b; p_v traverses a then b and p_w traverses b then a, so paths of
/// adjacent vertices close a 2-cycle while paths of an independent set are
/// node-disjoint.
Instance reduction_from_coloring(
    std::uint32_t num_vertices,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges);

/// Brute-force chromatic number (tests only). Returns 0 when > max_k.
std::uint32_t chromatic_number(
    std::uint32_t num_vertices,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges,
    std::uint32_t max_k);

}  // namespace dfsssp::app
