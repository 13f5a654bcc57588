#include "fault/schedule.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/rng.hpp"

namespace dfsssp {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kSwitchDown: return "switch_down";
    case FaultKind::kSwitchUp: return "switch_up";
  }
  return "?";
}

std::string FaultEvent::describe(const Network& net) const {
  std::string s = to_string(kind);
  if (kind == FaultKind::kLinkDown || kind == FaultKind::kLinkUp) {
    const Channel& ch = net.channel(channel);
    s += ' ';
    s += net.node_name(ch.src);
    s += "<->";
    s += net.node_name(ch.dst);
  } else {
    s += ' ';
    s += net.node_name(sw);
  }
  return s;
}

namespace {

/// Scratch model of the fabric's flag state during schedule generation.
/// Mirrors the Network's current fault flags without touching it.
struct FabricModel {
  const Network* net;
  std::vector<ChannelId> links;        // forward channel per physical link
  std::vector<std::uint8_t> link_up;   // per links[] index
  std::vector<std::uint8_t> sw_up;     // per switch index
  std::vector<std::uint32_t> link_index_of;  // per channel, index into links

  explicit FabricModel(const Network& n) : net(&n) {
    link_index_of.assign(n.num_channels(), ~0U);
    for (ChannelId c = 0; c < n.num_channels(); ++c) {
      if (n.is_switch_channel(c) && c < n.channel(c).reverse) {
        link_index_of[c] = static_cast<std::uint32_t>(links.size());
        link_index_of[n.channel(c).reverse] =
            static_cast<std::uint32_t>(links.size());
        links.push_back(c);
        link_up.push_back(n.link_up(c) ? 1 : 0);
      }
    }
    sw_up.assign(n.num_switches(), 1);
    for (NodeId sw : n.switches()) {
      sw_up[n.node(sw).type_index] = n.switch_up(sw) ? 1 : 0;
    }
  }

  std::size_t alive_switches() const {
    return std::accumulate(sw_up.begin(), sw_up.end(), std::size_t{0});
  }

  /// True when every flag-up switch reaches every other over links that are
  /// flag-up with both endpoints flag-up.
  bool connected() const {
    const std::size_t num_sw = net->num_switches();
    std::vector<std::vector<std::uint32_t>> adj(num_sw);
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (!link_up[i]) continue;
      const Channel& ch = net->channel(links[i]);
      const std::uint32_t a = net->node(ch.src).type_index;
      const std::uint32_t b = net->node(ch.dst).type_index;
      if (!sw_up[a] || !sw_up[b]) continue;
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    const std::size_t alive = alive_switches();
    if (alive <= 1) return true;
    std::uint32_t start = ~0U;
    for (std::uint32_t i = 0; i < num_sw; ++i) {
      if (sw_up[i]) {
        start = i;
        break;
      }
    }
    std::vector<std::uint8_t> seen(num_sw, 0);
    std::queue<std::uint32_t> q;
    q.push(start);
    seen[start] = 1;
    std::size_t reached = 1;
    while (!q.empty()) {
      std::uint32_t u = q.front();
      q.pop();
      for (std::uint32_t v : adj[u]) {
        if (!seen[v]) {
          seen[v] = 1;
          ++reached;
          q.push(v);
        }
      }
    }
    return reached == alive;
  }

  std::vector<std::uint32_t> indices_where(const std::vector<std::uint8_t>& v,
                                           std::uint8_t want) const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      if (v[i] == want) out.push_back(i);
    }
    return out;
  }
};

}  // namespace

FaultSchedule FaultSchedule::random(const Network& net,
                                    const FaultScheduleOptions& options,
                                    std::uint64_t seed) {
  FaultSchedule sched;
  FabricModel model(net);
  Rng rng(seed);

  for (std::uint32_t step = 0; step < options.num_events; ++step) {
    const std::vector<std::uint32_t> up_links =
        model.indices_where(model.link_up, 1);
    const std::vector<std::uint32_t> down_links =
        model.indices_where(model.link_up, 0);
    const std::vector<std::uint32_t> up_switches =
        model.indices_where(model.sw_up, 1);
    const std::vector<std::uint32_t> down_switches =
        model.indices_where(model.sw_up, 0);

    // Weighted kind draw over the kinds that currently have candidates.
    struct Arm {
      FaultKind kind;
      std::uint32_t weight;
    };
    std::vector<Arm> arms;
    if (!up_links.empty() && options.link_down_weight > 0) {
      arms.push_back({FaultKind::kLinkDown, options.link_down_weight});
    }
    if (!down_links.empty() && options.link_up_weight > 0) {
      arms.push_back({FaultKind::kLinkUp, options.link_up_weight});
    }
    if (!up_switches.empty() && options.switch_down_weight > 0) {
      arms.push_back({FaultKind::kSwitchDown, options.switch_down_weight});
    }
    if (!down_switches.empty() && options.switch_up_weight > 0) {
      arms.push_back({FaultKind::kSwitchUp, options.switch_up_weight});
    }
    if (arms.empty()) break;
    std::uint64_t total = 0;
    for (const Arm& a : arms) total += a.weight;
    std::uint64_t draw = rng.next_below(total);
    FaultKind kind = arms.back().kind;
    for (const Arm& a : arms) {
      if (draw < a.weight) {
        kind = a.kind;
        break;
      }
      draw -= a.weight;
    }

    FaultEvent ev;
    ev.kind = kind;
    bool emitted = false;
    switch (kind) {
      case FaultKind::kLinkUp: {
        const std::uint32_t li = down_links[static_cast<std::size_t>(
            rng.next_below(down_links.size()))];
        model.link_up[li] = 1;
        ev.channel = model.links[li];
        emitted = true;
        break;
      }
      case FaultKind::kSwitchUp: {
        // Revival needs the same connectivity guard as the down events: a
        // switch whose links were independently downed while it was dead
        // would rejoin the alive set isolated — a partition the subnet
        // manager cannot route across.
        for (std::uint32_t attempt = 0;
             attempt < options.max_attempts && !emitted; ++attempt) {
          const std::uint32_t si = down_switches[static_cast<std::size_t>(
              rng.next_below(down_switches.size()))];
          model.sw_up[si] = 1;
          if (!options.keep_connected || model.connected()) {
            ev.sw = net.switch_by_index(si);
            emitted = true;
          } else {
            model.sw_up[si] = 0;
          }
        }
        break;
      }
      case FaultKind::kLinkDown: {
        for (std::uint32_t attempt = 0;
             attempt < options.max_attempts && !emitted; ++attempt) {
          const std::uint32_t li = up_links[static_cast<std::size_t>(
              rng.next_below(up_links.size()))];
          model.link_up[li] = 0;
          if (!options.keep_connected || model.connected()) {
            ev.channel = model.links[li];
            emitted = true;
          } else {
            model.link_up[li] = 1;
          }
        }
        break;
      }
      case FaultKind::kSwitchDown: {
        for (std::uint32_t attempt = 0;
             attempt < options.max_attempts && !emitted; ++attempt) {
          const std::uint32_t si = up_switches[static_cast<std::size_t>(
              rng.next_below(up_switches.size()))];
          model.sw_up[si] = 0;
          if (model.alive_switches() >= 1 &&
              (!options.keep_connected || model.connected())) {
            ev.sw = net.switch_by_index(si);
            emitted = true;
          } else {
            model.sw_up[si] = 1;
          }
        }
        break;
      }
    }
    if (emitted) sched.events_.push_back(ev);
  }
  return sched;
}

FaultSchedule FaultSchedule::link_kills(const Network& net,
                                        std::uint32_t count,
                                        std::uint64_t seed) {
  FaultScheduleOptions opts;
  opts.num_events = count;
  opts.link_up_weight = 0;
  opts.switch_down_weight = 0;
  opts.switch_up_weight = 0;
  // A full scan's worth of attempts: a kill is skipped only when no
  // admissible link exists at all (with high probability).
  opts.max_attempts =
      static_cast<std::uint32_t>(net.num_channels()) + 32;
  return random(net, opts, seed);
}

}  // namespace dfsssp
