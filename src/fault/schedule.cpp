#include "fault/schedule.hpp"

#include "common/rng.hpp"
#include "fault/churn.hpp"

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

FaultSchedule FaultSchedule::random(const Network& net,
                                    const FaultScheduleOptions& options,
                                    std::uint64_t seed) {
  FaultSchedule sched;
  // Every candidate goes through ChurnEngine on a copy of the network, so a
  // schedule admits exactly the events the engine admits.
  Topology sim;
  sim.net = net;
  ChurnEngine churn(sim);
  Rng rng(seed);
  // Candidates in a fixed order (forward channel ids ascending, switches by
  // index), which keeps every seed's stream stable.
  std::vector<ChannelId> links;
  for (ChannelId c = 0; c < net.num_channels(); ++c) {
    if (net.is_switch_channel(c) && c < net.channel(c).reverse) {
      links.push_back(c);
    }
  }

  for (std::uint32_t step = 0; step < options.num_events; ++step) {
    std::vector<ChannelId> up_links;
    std::vector<ChannelId> down_links;
    for (ChannelId c : links) {
      (sim.net.link_up(c) ? up_links : down_links).push_back(c);
    }
    std::vector<NodeId> up_switches;
    std::vector<NodeId> down_switches;
    for (NodeId sw : sim.net.switches()) {
      (sim.net.switch_up(sw) ? up_switches : down_switches).push_back(sw);
    }

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

    const auto pick = [&](const auto& pool) {
      return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
    };
    FaultEvent ev;
    ev.kind = kind;
    // Redraw until the engine admits the candidate. A link revival is never
    // vetoed, so it takes one draw.
    bool emitted = false;
    for (std::uint32_t attempt = 0;
         attempt < options.max_attempts && !emitted; ++attempt) {
      switch (kind) {
        case FaultKind::kLinkDown: ev.channel = pick(up_links); break;
        case FaultKind::kLinkUp: ev.channel = pick(down_links); break;
        case FaultKind::kSwitchDown: ev.sw = pick(up_switches); break;
        case FaultKind::kSwitchUp: ev.sw = pick(down_switches); break;
      }
      const std::uint64_t vetoed = churn.events_vetoed();
      churn.apply(ev);
      emitted = churn.events_vetoed() == vetoed;
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
