#include "sim/congestion.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

namespace {

/// Full channel sequence of a flow, including injection and ejection.
void flow_channels(const Network& net, const RoutingTable& table, NodeId src,
                   NodeId dst, std::vector<ChannelId>& out) {
  out.clear();
  out.push_back(net.injection_channel(src));
  const NodeId src_sw = net.switch_of(src);
  std::vector<ChannelId> inter;
  if (!table.extract_path(net, src_sw, dst, inter)) {
    throw std::runtime_error("simulate_pattern: broken forwarding");
  }
  out.insert(out.end(), inter.begin(), inter.end());
  out.push_back(net.ejection_channel(dst));
}

}  // namespace

PatternResult simulate_pattern(const Network& net, const RoutingTable& table,
                               const Flows& flows,
                               const CongestionOptions& options) {
  PatternResult result;
  if (flows.empty()) return result;
  // One span per pattern (work item), never per pool chunk: the profile's
  // invocation count equals the pattern count at any --threads=N.
  obs::TraceSpan span("sim/pattern");
  std::uint64_t freeze_rounds = 0;

  // Per-channel flow counts.
  std::vector<std::uint32_t> load(net.num_channels(), 0);
  std::vector<std::vector<ChannelId>> paths(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    flow_channels(net, table, flows[f].first, flows[f].second, paths[f]);
    for (ChannelId c : paths[f]) ++load[c];
  }
  for (std::uint32_t l : load) {
    result.max_congestion = std::max(result.max_congestion, l);
  }

  std::vector<double> bw(flows.size(), 0.0);
  if (options.metric == BandwidthMetric::kBottleneckShare) {
    for (std::size_t f = 0; f < flows.size(); ++f) {
      std::uint32_t worst = 1;
      for (ChannelId c : paths[f]) worst = std::max(worst, load[c]);
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
    std::vector<std::uint32_t> active(net.num_channels(), 0);
    for (const auto& p : paths) {
      for (ChannelId c : p) ++active[c];
    }
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
        bool saturated = false;
        for (ChannelId c : paths[f]) {
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
        for (ChannelId c : paths[f]) {
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
  std::vector<std::uint32_t> load(net.num_channels(), 0);
  std::vector<ChannelId> path;
  for (auto [src, dst] : flows) {
    flow_channels(net, table, src, dst, path);
    for (ChannelId c : path) ++load[c];
  }
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
                                        const RoutingTable& table,
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
        return simulate_pattern(net, table, flows, options).avg_flow_bandwidth;
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
