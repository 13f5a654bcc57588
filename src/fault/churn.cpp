#include "fault/churn.hpp"

#include <algorithm>

namespace dfsssp {
namespace {

bool is_link_event(const FaultEvent& e) {
  return e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp;
}

/// A revived link only adds connectivity, so the admission rule skips it.
bool exempt(const FaultEvent& e) { return e.kind == FaultKind::kLinkUp; }

/// The admission rule: some switch is alive and the alive switches are
/// connected.
bool admissible(const Network& net) {
  return net.num_alive_switches() > 0 && net.alive_connected();
}

/// The physical flag an event sets: its link's or its switch's.
bool flag(const Network& net, const FaultEvent& e) {
  return is_link_event(e) ? net.link_up(e.channel) : net.switch_up(e.sw);
}

void set_flag(Network& net, const FaultEvent& e, bool up) {
  if (is_link_event(e)) {
    net.set_link_up(e.channel, up);
  } else {
    net.set_switch_up(e.sw, up);
  }
}

/// Whether the event's target is in effect: its link traversable (both
/// directions share the link's flag and endpoints, so they move together)
/// or its switch up.
bool in_effect(const Network& net, const FaultEvent& e) {
  return is_link_event(e) ? net.channel_alive(e.channel) : net.switch_up(e.sw);
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

ChurnEngine::ChurnEngine(Topology& topo) : topo_(&topo) {}

void ChurnEngine::degrade_meta() {
  if (!topo_->meta.family.empty() &&
      topo_->meta.family.find("/degraded") == std::string::npos) {
    topo_->meta.sw_coord.clear();
    topo_->meta.sw_level.clear();
    topo_->meta.dims.clear();
    topo_->meta.wraparound = false;
    topo_->meta.family += "/degraded";
  }
}

ChurnDelta ChurnEngine::apply(const FaultEvent& event) {
  return apply_all({&event, 1});
}

ChurnDelta ChurnEngine::apply_all(std::span<const FaultEvent> events) {
  ChurnDelta delta;
  if (events.empty()) return delta;
  Network& net = topo_->net;

  // Batch-start snapshot over the union of everything any event can touch:
  // a link's two directions, or every physical channel at a switch (its
  // inter-switch links and its terminals' injection/ejection channels).
  // The coalesced delta is measured against it, so a channel downed and
  // restored within the batch nets out to no entry at all.
  std::vector<ChannelId> union_ch;
  std::vector<NodeId> union_sw;
  for (const FaultEvent& e : events) {
    if (is_link_event(e)) {
      union_ch.push_back(e.channel);
      union_ch.push_back(net.channel(e.channel).reverse);
    } else {
      union_sw.push_back(e.sw);
      for (ChannelId c : net.out_channels_all(e.sw)) {
        union_ch.push_back(c);
        union_ch.push_back(net.channel(c).reverse);
      }
    }
  }
  sort_unique(union_ch);
  sort_unique(union_sw);
  std::vector<std::uint8_t> alive_start(union_ch.size());
  for (std::size_t i = 0; i < union_ch.size(); ++i) {
    alive_start[i] = net.channel_alive(union_ch[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> sw_start(union_sw.size());
  for (std::size_t i = 0; i < union_sw.size(); ++i) {
    sw_start[i] = net.switch_up(union_sw[i]) ? 1 : 0;
  }

  // Each event is judged on the state right after it, so how a burst is cut
  // into batches never changes where the fabric ends up.
  std::uint64_t applied = 0;
  std::uint64_t vetoed = 0;
  for (const FaultEvent& e : events) {
    const bool flag_before = flag(net, e);
    const bool effect_before = in_effect(net, e);
    set_flag(net, e,
             e.kind == FaultKind::kLinkUp || e.kind == FaultKind::kSwitchUp);
    if (!exempt(e) && !admissible(net)) {
      // The veto restores the flag the event set: the state before it.
      if (flag(net, e) != flag_before) set_flag(net, e, flag_before);
      ++vetoed;
    } else if (in_effect(net, e) != effect_before) {
      ++applied;
    }
  }
  events_applied_ += applied;
  events_vetoed_ += vetoed;
  if (applied > 0) degrade_meta();
  if (vetoed > 0) {
    delta.veto_reason = std::to_string(vetoed) + " of " +
                        std::to_string(events.size()) +
                        " events vetoed: would leave no alive switch or "
                        "disconnect the alive switches";
  }

  // Coalesced delta: batch start vs wherever the fabric ended up.
  for (std::size_t i = 0; i < union_ch.size(); ++i) {
    const bool alive_now = net.channel_alive(union_ch[i]);
    if (alive_start[i] != 0 && !alive_now) delta.downed.push_back(union_ch[i]);
    if (alive_start[i] == 0 && alive_now) {
      delta.restored.push_back(union_ch[i]);
    }
  }
  for (std::size_t i = 0; i < union_sw.size(); ++i) {
    const bool up_now = net.switch_up(union_sw[i]);
    if (sw_start[i] != 0 && !up_now) delta.switches_down.push_back(union_sw[i]);
    if (sw_start[i] == 0 && up_now) delta.switches_up.push_back(union_sw[i]);
  }
  delta.applied = !delta.no_effect();
  return delta;
}

}  // namespace dfsssp
