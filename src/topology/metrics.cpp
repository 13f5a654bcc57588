#include "topology/metrics.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

namespace dfsssp {

void bfs_hops_to(const Network& net, NodeId dst_switch,
                 std::vector<std::uint32_t>& dist) {
  dist.assign(net.num_switches(), kUnreachable);
  std::queue<NodeId> q;
  dist[net.node(dst_switch).type_index] = 0;
  q.push(dst_switch);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    const std::uint32_t du = dist[net.node(u).type_index];
    for (ChannelId c : net.out_switch_channels(u)) {
      NodeId v = net.channel(c).dst;
      std::uint32_t& dv = dist[net.node(v).type_index];
      if (dv == kUnreachable) {
        dv = du + 1;
        q.push(v);
      }
    }
  }
}

NetworkMetrics compute_metrics(const Network& net) {
  NetworkMetrics m;
  const std::size_t num_sw = net.num_switches();
  if (num_sw == 0) return m;

  m.min_degree = std::numeric_limits<std::uint32_t>::max();
  m.min_terminals = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t degree_sum = 0;
  for (NodeId sw : net.switches()) {
    const std::uint32_t deg = net.switch_degree(sw);
    m.min_degree = std::min(m.min_degree, deg);
    m.max_degree = std::max(m.max_degree, deg);
    degree_sum += deg;
    const std::uint32_t t = net.terminals_on(sw);
    m.min_terminals = std::min(m.min_terminals, t);
    m.max_terminals = std::max(m.max_terminals, t);
  }
  m.avg_degree = static_cast<double>(degree_sum) / static_cast<double>(num_sw);
  m.num_links = degree_sum / 2;

  // BFS from every switch.
  std::uint64_t dist_sum = 0, pairs = 0;
  std::vector<std::uint32_t> dist;
  for (NodeId src : net.switches()) {
    bfs_hops_to(net, src, dist);
    for (const std::uint32_t d : dist) {
      if (d == kUnreachable || d == 0) continue;
      dist_sum += d;
      ++pairs;
      m.diameter = std::max(m.diameter, d);
    }
  }
  m.avg_path_length =
      pairs > 0 ? static_cast<double>(dist_sum) / static_cast<double>(pairs)
                : 0.0;
  return m;
}

namespace {

/// Links crossing the partition described by `side` (per switch index).
std::uint64_t cut_size(const Network& net, const std::vector<std::uint8_t>& side) {
  std::uint64_t cut = 0;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    if (c < ch.reverse && net.is_switch_channel(c) &&
        side[net.node(ch.src).type_index] != side[net.node(ch.dst).type_index]) {
      ++cut;
    }
  }
  return cut;
}

}  // namespace

std::uint64_t estimate_bisection_width(const Network& net, Rng& rng,
                                       std::uint32_t trials) {
  const std::size_t num_sw = net.num_switches();
  if (num_sw < 2) return 0;

  // Terminal-weighted balance: halves should split the endpoints, which is
  // what the effective-bisection pattern cuts across.
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint32_t> order(num_sw);
  std::iota(order.begin(), order.end(), 0U);

  for (std::uint32_t trial = 0; trial < trials; ++trial) {
    rng.shuffle(order);
    std::vector<std::uint8_t> side(num_sw, 0);
    std::uint64_t half = 0, total = 0;
    for (NodeId sw : net.switches()) total += net.terminals_on(sw);
    for (std::uint32_t i : order) {
      if (half * 2 < total) {
        side[i] = 1;
        half += net.terminals_on(net.switch_by_index(i));
      }
    }
    // Greedy improvement: single swaps between the halves while the cut
    // shrinks (terminal balance maintained by swapping similar loads).
    // Quadratic, so only affordable on moderate fabrics; larger ones keep
    // the best random cut.
    bool improved = num_sw <= 300;
    std::uint64_t current = cut_size(net, side);
    while (improved) {
      improved = false;
      for (std::uint32_t a = 0; a < num_sw && !improved; ++a) {
        for (std::uint32_t b = a + 1; b < num_sw; ++b) {
          if (side[a] == side[b]) continue;
          if (net.terminals_on(net.switch_by_index(a)) !=
              net.terminals_on(net.switch_by_index(b))) {
            continue;
          }
          std::swap(side[a], side[b]);
          const std::uint64_t cut = cut_size(net, side);
          if (cut < current) {
            current = cut;
            improved = true;
            break;
          }
          std::swap(side[a], side[b]);
        }
      }
    }
    best = std::min(best, current);
  }
  return best;
}

std::uint64_t structure_hash(const Network& net) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;  // FNV prime
    }
  };
  mix(net.num_nodes());
  mix(net.num_switches());
  mix(net.num_terminals());
  mix(net.num_channels());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const Node& nd = net.node(n);
    mix((static_cast<std::uint64_t>(nd.type_index) << 8) |
        static_cast<std::uint64_t>(nd.type));
  }
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    const Channel& ch = net.channel(c);
    mix(ch.src);
    mix(ch.dst);
    mix(ch.reverse);
  }
  for (NodeId t : net.terminals()) mix(net.switch_of(t));
  return h;
}

double bisection_bandwidth_ceiling(const Network& net, Rng& rng) {
  const double terminals = static_cast<double>(net.num_terminals());
  if (terminals < 2) return 1.0;
  const double width =
      static_cast<double>(estimate_bisection_width(net, rng));
  // A random bisection matching routes ~T/2 flows, of which ~half cross any
  // balanced cut; `width` links carry them.
  const double crossing = terminals / 4.0;
  return std::min(1.0, width / crossing);
}

}  // namespace dfsssp
