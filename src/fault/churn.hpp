// In-place fault application with effective-change deltas.
//
// ChurnEngine is the mutation side of the fault subsystem: it applies
// FaultEvents to one Topology IN PLACE (Network::set_link_up /
// set_switch_up — no rebuild, every NodeId/ChannelId stable) and reports
// exactly which directed channels and switches changed effective state as a
// ChurnDelta. That delta is the contract with IncrementalDfsssp: the
// repair engine invalidates precisely the destinations whose paths touch
// `delta.downed` channels.
//
// It also holds the one admission rule of the fault model: an event other
// than a link revival is vetoed when, afterwards, no switch is alive or the
// alive switches are disconnected — the fabric a subnet manager can no
// longer route. A veto restores the state before the event exactly.
// FaultSchedule draws its streams through this engine, so a schedule and
// the daemon admit the same events. A revived link is exempt: it can only
// add connectivity.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "topology/topology.hpp"

namespace dfsssp {

struct ChurnDelta {
  /// False when every event was vetoed (see veto_reason) or the batch
  /// changed nothing.
  bool applied = false;
  std::string veto_reason;
  /// Directed channels that were traversable before and are not now.
  std::vector<ChannelId> downed;
  /// Directed channels that were dead before and are traversable now.
  std::vector<ChannelId> restored;
  /// Switches whose up flag flipped.
  std::vector<NodeId> switches_down;
  std::vector<NodeId> switches_up;

  bool no_effect() const {
    return downed.empty() && restored.empty() && switches_down.empty() &&
           switches_up.empty();
  }
};

class ChurnEngine {
 public:
  explicit ChurnEngine(Topology& topo);

  /// Applies one event: apply_all of a batch of one.
  ChurnDelta apply(const FaultEvent& event);

  /// Applies a batch of events in order and returns ONE coalesced delta:
  /// channel and switch flips are measured batch-start vs batch-end (a link
  /// downed and restored within the batch appears in neither list,
  /// duplicates collapse). This is what lets a daemon fold a burst of fault
  /// notifications into one repair. Each event is judged by the admission
  /// rule on the state right after it, so the fabric ends up exactly where
  /// a loop of apply() calls leaves it, however a burst is cut into
  /// batches. An empty batch returns a no-effect delta.
  ChurnDelta apply_all(std::span<const FaultEvent> events);

  const Topology& topo() const { return *topo_; }
  std::uint64_t events_applied() const { return events_applied_; }
  std::uint64_t events_vetoed() const { return events_vetoed_; }

 private:
  /// On the first applied fault, drops the topology's generator metadata
  /// (coordinates, tree levels): a degraded fabric is no longer the regular
  /// structure the generator promised, so structure-dependent engines (DOR,
  /// fat-tree) must refuse it rather than route it wrong — exactly how a
  /// subnet manager re-discovers a broken fabric as an arbitrary graph.
  void degrade_meta();

  Topology* topo_;
  std::uint64_t events_applied_ = 0;
  std::uint64_t events_vetoed_ = 0;
};

}  // namespace dfsssp
