// Deterministic fault-event streams.
//
// A FaultSchedule is a pre-generated, seed-reproducible sequence of link and
// switch down/up events against one frozen Network. Generation draws each
// event against a copy of the network's own fault state (set_link_up,
// set_switch_up, alive_connected: the calls ChurnEngine vetoes with), so
// that (with the default options) no down event ever disconnects the alive
// switches — the schedule models the churn a subnet manager survives, not a
// partition it cannot route across. The schedule is pure data: applying it
// to a Network is ChurnEngine's job (churn.hpp), so one schedule can drive
// the incremental and the from-scratch engine over identical fault
// histories.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "topology/network.hpp"

namespace dfsssp {

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kSwitchDown,
  kSwitchUp,
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDown;
  /// Link events: the forward directed channel of the physical link (the
  /// reverse direction changes state with it). Unused for switch events.
  ChannelId channel = kInvalidChannel;
  /// Switch events: the switch NodeId. Unused for link events.
  NodeId sw = kInvalidNode;

  std::string describe(const Network& net) const;
};

struct FaultScheduleOptions {
  std::uint32_t num_events = 100;
  /// Relative weights of the four event kinds. Up-kinds only fire when
  /// something of that kind is currently down; their weight is otherwise
  /// redistributed to the down-kinds.
  std::uint32_t link_down_weight = 6;
  std::uint32_t link_up_weight = 3;
  std::uint32_t switch_down_weight = 2;
  std::uint32_t switch_up_weight = 1;
  /// Never emit an event that would disconnect the alive switches: no down
  /// event may partition them (or take the last alive switch down), and no
  /// switch revival may rejoin the alive set isolated (its links downed
  /// while it was dead). Candidates are re-drawn up to `max_attempts`
  /// times; when none survives, the event degenerates to an up event (or
  /// is skipped when nothing is down).
  bool keep_connected = true;
  std::uint32_t max_attempts = 32;
};

class FaultSchedule {
 public:
  /// Generates a schedule against `net`'s physical structure. Deterministic
  /// in (net, options, seed); does not modify `net`. The generated stream
  /// may be shorter than `options.num_events` when no admissible event
  /// exists at some step (e.g. keep_connected on a tree with every leaf
  /// link already down).
  static FaultSchedule random(const Network& net,
                              const FaultScheduleOptions& options,
                              std::uint64_t seed);

  /// A monotone degradation: `count` link-down events, each preserving
  /// alive-switch connectivity, never repaired. This is the classic
  /// fault-resilience sweep (bench_fault_sweep): kill links one by one and
  /// watch the routing survive.
  static FaultSchedule link_kills(const Network& net, std::uint32_t count,
                                  std::uint64_t seed);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const FaultEvent& operator[](std::size_t i) const { return events_[i]; }

  std::vector<FaultEvent>::const_iterator begin() const {
    return events_.begin();
  }
  std::vector<FaultEvent>::const_iterator end() const { return events_.end(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace dfsssp
