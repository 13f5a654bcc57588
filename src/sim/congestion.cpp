#include "sim/congestion.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

namespace {

/// Every flow's full channel sequence (injection, inter-switch hops,
/// ejection) in one buffer, and the flow count of each channel.
struct FlowPaths {
  std::vector<ChannelId> channels;
  /// Flow f's channels are channels[offsets[f], offsets[f + 1]).
  std::vector<std::size_t> offsets{0};
  std::vector<std::uint32_t> load;

  std::span<const ChannelId> path(std::size_t f) const {
    return {channels.data() + offsets[f], channels.data() + offsets[f + 1]};
  }
};

/// Walks flow f on planes[f % planes.size()]. `extract_path` rejects a dead
/// end, a foreign channel, a hop into a terminal and a forwarding loop.
FlowPaths walk_flows(const Network& net, std::span<const RoutingTable> planes,
                     const Flows& flows) {
  if (planes.empty()) {
    throw std::invalid_argument("congestion: no routing planes");
  }
  FlowPaths paths;
  paths.offsets.reserve(flows.size() + 1);
  // Room for six hops per flow: regrowing the buffer of a 512-rank
  // all-to-all on Deimos cost about as much as walking its flows.
  paths.channels.reserve(flows.size() * 8);
  std::vector<ChannelId> hops;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto [src, dst] = flows[f];
    const std::size_t plane = f % planes.size();
    if (!planes[plane].extract_path(net, net.switch_of(src), dst, hops)) {
      throw std::runtime_error("congestion: broken forwarding path " +
                               net.node_name(src) + " -> " +
                               net.node_name(dst) + " on plane " +
                               std::to_string(plane));
    }
    paths.channels.push_back(net.injection_channel(src));
    paths.channels.insert(paths.channels.end(), hops.begin(), hops.end());
    paths.channels.push_back(net.ejection_channel(dst));
    paths.offsets.push_back(paths.channels.size());
  }
  paths.load.assign(net.num_channels(), 0);
  for (ChannelId c : paths.channels) ++paths.load[c];
  return paths;
}

}  // namespace

PatternResult simulate_pattern(const Network& net,
                               std::span<const RoutingTable> planes,
                               const Flows& flows,
                               const CongestionOptions& options) {
  PatternResult result;
  if (flows.empty()) return result;
  // One span per pattern (work item), never per pool chunk: the profile's
  // invocation count equals the pattern count at any --threads=N.
  obs::TraceSpan span("sim/pattern");
  std::uint64_t freeze_rounds = 0;

  const FlowPaths paths = walk_flows(net, planes, flows);
  for (std::uint32_t l : paths.load) {
    result.max_congestion = std::max(result.max_congestion, l);
  }

  std::vector<double> bw(flows.size(), 0.0);
  if (options.metric == BandwidthMetric::kBottleneckShare) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      std::uint32_t worst = 1;
      for (ChannelId c : paths.path(f)) worst = std::max(worst, paths.load[c]);
      bw[f] = options.link_capacity / worst;
    }
  } else {
    // Progressive filling: raise all unfrozen flows together; at each step
    // the tightest channel saturates and freezes its flows at the fair rate.
    //
    // Per freeze round only the channels still carrying an unfrozen flow
    // (`used`) and the unfrozen flows themselves (`alive`) are visited;
    // both lists compact as flows freeze, so a round costs O(used + alive)
    // instead of rescanning every channel and every flow. Both lists stay
    // in ascending order, which keeps the arithmetic (and therefore the
    // result bits) identical to the full-scan formulation.
    std::vector<double> remaining(net.num_channels(), options.link_capacity);
    std::vector<std::uint32_t> active = paths.load;
    std::vector<ChannelId> used;
    for (ChannelId c = 0; c < net.num_channels(); ++c) {
      if (active[c] > 0) used.push_back(c);
    }
    std::vector<std::uint32_t> alive(flows.size());
    for (std::uint32_t f = 0; f < flows.size(); ++f) alive[f] = f;
    while (!alive.empty()) {
      ++freeze_rounds;
      double tightest = std::numeric_limits<double>::infinity();
      for (ChannelId c : used) {
        tightest = std::min(tightest, remaining[c] / active[c]);
      }
      // Freeze every flow crossing a channel that saturates at `tightest`.
      std::size_t kept = 0;
      for (std::uint32_t f : alive) {
        const std::span<const ChannelId> path = paths.path(f);
        bool saturated = false;
        for (ChannelId c : path) {
          if (active[c] > 0 &&
              remaining[c] / active[c] <= tightest * (1 + 1e-12)) {
            saturated = true;
            break;
          }
        }
        if (!saturated) {
          alive[kept++] = f;
          continue;
        }
        bw[f] += tightest;
        for (ChannelId c : path) {
          remaining[c] -= tightest;
          --active[c];
        }
      }
      if (kept == alive.size()) break;  // numerical safety net
      alive.resize(kept);
      // Unfrozen flows keep the allocation they accumulated so far.
      for (std::uint32_t f : alive) bw[f] += tightest;
      std::size_t used_kept = 0;
      for (ChannelId c : used) {
        if (active[c] == 0) continue;
        remaining[c] -= tightest * active[c];
        used[used_kept++] = c;
      }
      used.resize(used_kept);
    }
  }

  double sum = 0.0, mn = std::numeric_limits<double>::infinity();
  for (double b : bw) {
    sum += b;
    mn = std::min(mn, b);
  }
  result.avg_flow_bandwidth = sum / static_cast<double>(flows.size());
  result.min_flow_bandwidth = mn;

  // Pattern telemetry; recorded from worker threads, merged shard-wise.
  // All integer tallies over an index-identified work set, so readings are
  // thread-count invariant.
  static obs::Counter& c_patterns =
      obs::registry().counter("sim/patterns_simulated");
  static obs::Counter& c_rounds =
      obs::registry().counter("sim/freeze_rounds");
  static obs::Histogram& h_maxcong = obs::registry().histogram(
      "sim/max_congestion", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  c_patterns.tally(1);
  if (freeze_rounds > 0) c_rounds.tally(freeze_rounds);
  h_maxcong.record(result.max_congestion);
  return result;
}

LoadReport analyze_load(const Network& net, const RoutingTable& table,
                        const Flows& flows) {
  LoadReport report;
  const std::vector<std::uint32_t> load =
      walk_flows(net, std::span(&table, 1), flows).load;
  std::uint64_t fabric_sum = 0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.is_switch_channel(c)) {
      ++report.total_fabric_channels;
      if (load[c] > 0) {
        ++report.used_fabric_channels;
        fabric_sum += load[c];
        report.max_fabric_load = std::max(report.max_fabric_load, load[c]);
      }
    } else {
      report.max_terminal_load = std::max(report.max_terminal_load, load[c]);
    }
  }
  if (report.used_fabric_channels > 0) {
    report.avg_fabric_load =
        static_cast<double>(fabric_sum) / report.used_fabric_channels;
    report.imbalance = report.max_fabric_load / report.avg_fabric_load;
  }
  return report;
}

std::vector<PatternResult> simulate_patterns(const Network& net,
                                             const RoutingTable& table,
                                             const std::vector<Flows>& patterns,
                                             const CongestionOptions& options,
                                             const ExecContext& exec) {
  return parallel_map(exec, patterns.size(), [&](std::size_t i) {
    return simulate_pattern(net, table, patterns[i], options);
  });
}

EbbResult effective_bisection_bandwidth(const Network& net,
                                        std::span<const RoutingTable> planes,
                                        const RankMap& map,
                                        std::uint32_t num_patterns, Rng& rng,
                                        const CongestionOptions& options,
                                        const ExecContext& exec) {
  EbbResult out;
  obs::TraceSpan span("sim/ebb");
  out.min_pattern = std::numeric_limits<double>::infinity();
  // One base value from the caller's stream; pattern i generates and
  // simulates with its own Rng seeded from (base, i), and the reduction
  // below runs in pattern order — bitwise identical at any thread count.
  const std::uint64_t base = rng.next();
  double sum = parallel_map_reduce(
      exec, num_patterns, 0.0,
      [&](std::size_t i) {
        Rng pattern_rng(stream_seed(base, i));
        Flows flows = map.to_flows(random_bisection(map.num_ranks(),
                                                    pattern_rng));
        return simulate_pattern(net, planes, flows, options).avg_flow_bandwidth;
      },
      [&out](double acc, double avg) {
        out.min_pattern = std::min(out.min_pattern, avg);
        out.max_pattern = std::max(out.max_pattern, avg);
        return acc + avg;
      });
  out.ebb = num_patterns > 0 ? sum / num_patterns : 0.0;
  return out;
}

}  // namespace dfsssp
