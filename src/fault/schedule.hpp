// Deterministic fault-event streams.
//
// A FaultSchedule is a pre-generated, seed-reproducible sequence of link and
// switch down/up events against one frozen Network. Generation applies each
// drawn candidate through a ChurnEngine on a copy of the network and keeps
// it only when the engine did not veto it, so a schedule holds only events
// the engine admits: no event leaves the fabric without an alive switch or
// with its alive switches disconnected — the churn a subnet manager
// survives, not a partition it cannot route across. The schedule is pure
// data: applying it to a Network is ChurnEngine's job (churn.hpp), so one
// schedule can drive the incremental and the from-scratch engine over
// identical fault histories.
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
  /// Draws per event: a candidate the engine vetoes is redrawn, up to this
  /// many times, and the event is skipped when none is admitted.
  std::uint32_t max_attempts = 32;
};

class FaultSchedule {
 public:
  /// Generates a schedule against `net`'s physical structure. Deterministic
  /// in (net, options, seed); does not modify `net`. The generated stream
  /// may be shorter than `options.num_events` when no draw at some step is
  /// admitted (e.g. a link kill on a tree whose every leaf hangs by one
  /// link).
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
