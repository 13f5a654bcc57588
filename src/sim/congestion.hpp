// ORCS-style oblivious-routing congestion simulation (paper Section V).
//
// For a set of simultaneous flows, the simulator walks every flow's routed
// path (injection channel, inter-switch channels, ejection channel), counts
// the flows sharing each channel, and scores each flow by the most congested
// channel on its path: bandwidth = capacity / max_sharers. The effective
// bisection bandwidth is the mean flow bandwidth averaged over many random
// bisection patterns — exactly the paper's "relative effective bisection
// bandwidth" (1.0 = congestion-free).
//
// A routing is a span of planes: flow i follows planes[i % planes.size()],
// the round-robin choice a source makes over a destination's LMC LIDs
// (routing/multipath.hpp). A single table is one plane.
//
// A max-min-fair mode (progressive filling) is provided as an extension;
// the paper's plots use the share metric.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "routing/table.hpp"
#include "topology/network.hpp"
#include "traffic/patterns.hpp"

namespace dfsssp {

enum class BandwidthMetric : std::uint8_t {
  /// flow bw = capacity / (max #flows on any channel of the path).
  kBottleneckShare,
  /// Global max-min fairness via progressive filling.
  kMaxMinFair,
};

struct CongestionOptions {
  BandwidthMetric metric = BandwidthMetric::kBottleneckShare;
  /// Per-channel capacity; 1.0 gives relative bandwidths.
  double link_capacity = 1.0;
};

struct PatternResult {
  /// Mean over flows of the per-flow bandwidth.
  double avg_flow_bandwidth = 0.0;
  double min_flow_bandwidth = 0.0;
  /// Largest number of flows sharing one channel.
  std::uint32_t max_congestion = 0;
  /// Completion-time estimate for equal-size messages: every flow must move
  /// one message, the slowest flow dominates (used by the all-to-all and
  /// application models).
  double slowest_flow_time(double message_size) const {
    return min_flow_bandwidth > 0.0 ? message_size / min_flow_bandwidth : 0.0;
  }
};

/// Simulates one set of simultaneous flows; flow i follows
/// planes[i % planes.size()]. Throws std::runtime_error naming the flow's
/// terminals when its walk is broken (dead end, foreign channel, hop into a
/// terminal or forwarding loop), std::invalid_argument when `planes` is
/// empty.
PatternResult simulate_pattern(const Network& net,
                               std::span<const RoutingTable> planes,
                               const Flows& flows,
                               const CongestionOptions& options = {});
inline PatternResult simulate_pattern(const Network& net,
                                      const RoutingTable& table,
                                      const Flows& flows,
                                      const CongestionOptions& options = {}) {
  return simulate_pattern(net, std::span(&table, 1), flows, options);
}

/// Simulates a batch of flow sets, one result per input set, in input order.
/// Patterns are independent, so they spread across `exec`'s threads; the
/// returned vector is identical at any thread count.
std::vector<PatternResult> simulate_patterns(
    const Network& net, const RoutingTable& table,
    const std::vector<Flows>& patterns, const CongestionOptions& options = {},
    const ExecContext& exec = {});

/// Per-channel load distribution of one flow set — the balancing quality
/// the weight updates of Algorithm 1 are after.
struct LoadReport {
  /// Highest flow count on any inter-switch channel / ejection channel.
  std::uint32_t max_fabric_load = 0;
  std::uint32_t max_terminal_load = 0;
  /// Mean load over inter-switch channels carrying at least one flow.
  double avg_fabric_load = 0.0;
  std::uint32_t used_fabric_channels = 0;
  std::uint32_t total_fabric_channels = 0;
  /// max_fabric_load / avg_fabric_load (1.0 = perfectly even).
  double imbalance = 0.0;
};

/// Throws like simulate_pattern on a broken walk.
LoadReport analyze_load(const Network& net, const RoutingTable& table,
                        const Flows& flows);

struct EbbResult {
  /// Mean over patterns of avg_flow_bandwidth (the paper's eBB value).
  double ebb = 0.0;
  double min_pattern = 0.0;
  double max_pattern = 0.0;
};

/// Effective bisection bandwidth over `num_patterns` random bisections of
/// the ranks in `map` (use all terminals for the paper's Figures 4-6),
/// each simulated over `planes` like simulate_pattern.
///
/// `rng` contributes a single base value; pattern i then draws from its own
/// stream seeded from (base, i) and the per-pattern results are reduced in
/// pattern order, so the outcome is bitwise identical at any thread count.
EbbResult effective_bisection_bandwidth(const Network& net,
                                        std::span<const RoutingTable> planes,
                                        const RankMap& map,
                                        std::uint32_t num_patterns, Rng& rng,
                                        const CongestionOptions& options = {},
                                        const ExecContext& exec = {});
inline EbbResult effective_bisection_bandwidth(
    const Network& net, const RoutingTable& table, const RankMap& map,
    std::uint32_t num_patterns, Rng& rng, const CongestionOptions& options = {},
    const ExecContext& exec = {}) {
  return effective_bisection_bandwidth(net, std::span(&table, 1), map,
                                       num_patterns, rng, options, exec);
}

}  // namespace dfsssp
