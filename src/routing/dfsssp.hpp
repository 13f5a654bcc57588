// DFSSSP — deadlock-free single-source-shortest-path routing, the paper's
// primary contribution (Section IV).
//
// Runs SSSP (Algorithm 1) for globally balanced minimal paths, then
// partitions the paths over virtual layers so every layer's channel
// dependency graph is acyclic:
//  * offline mode (Algorithm 2, the paper's recommended scheme): one
//    resumable cycle search per layer, breaking each found cycle at the
//    edge chosen by the configured heuristic and moving that edge's paths
//    to the next layer; optionally balances paths onto unused layers;
//  * online mode (the paper's first, LASH-like approach): first-fit layer
//    per path with incremental acyclicity checks.
#pragma once

#include <span>
#include <string>

#include "cdg/cdg.hpp"
#include "routing/router.hpp"

namespace dfsssp {

enum class LayeringMode : std::uint8_t {
  /// Algorithm 2: one resumable cycle search per layer (the paper's pick).
  kOffline,
  /// First-fit per path with Pearce-Kelly incremental acyclicity checks —
  /// our improvement over the paper's first approach.
  kOnline,
  /// First-fit per path with a full DFS cycle search per attempt — the
  /// paper's original online algorithm, O(|N|^2 * (|C|+|E|)), kept for the
  /// Section IV runtime comparison.
  kOnlineNaive,
};

struct DfssspOptions {
  Layer max_layers = 8;
  CycleHeuristic heuristic = CycleHeuristic::kWeakestEdge;
  /// Spread paths over unused layers (Algorithm 2's final loop).
  bool balance = true;
  LayeringMode mode = LayeringMode::kOffline;
};

class DfssspRouter final : public Router {
 public:
  explicit DfssspRouter(DfssspOptions options = {}) : options_(options) {}

  std::string name() const override {
    switch (options_.mode) {
      case LayeringMode::kOnline: return "DFSSSP(online)";
      case LayeringMode::kOnlineNaive: return "DFSSSP(naive-online)";
      case LayeringMode::kOffline: break;
    }
    return "DFSSSP";
  }
  bool deadlock_free() const override { return true; }
  /// One plane of route_planes().
  RouteResponse route(const RouteRequest& request) const override;

  /// LMC planes (routing/multipath.hpp): fills each table of `planes` by
  /// SSSP over one shared weight map, then runs ONE layering over the
  /// planes' joint collect_paths(). False, with `error` set, on failure.
  bool route_planes(const RouteRequest& request,
                    std::span<RoutingTable> planes, RoutingStats& stats,
                    std::string& error) const;

 private:
  DfssspOptions options_;
};

}  // namespace dfsssp
