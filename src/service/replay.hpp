// Deterministic replay of a flight-recorder journal (obs/journal) against
// a fresh ServiceCore — the ROADMAP's "feed recorded fault logs back
// through the daemon", made a library so tools/dfreplay and the tests
// share one implementation.
//
// A journal is a flat record stream, but every mutating request stamps all
// of its records with one logical timestamp, so grouping consecutive
// records by logical_ts recovers the original transactions:
//
//   [fault_event]                                  <- one fault request
//   [coalesced_batch, veto?, snapshot_swap, repair] <- one repair request
//   [snapshot_swap, route]                          <- one route request
//
// Each group's trigger (the route/repair/fault_event record) is turned
// back into a ServiceRequest, issued against the target, and — with
// verify on — the records the target's own journal emitted are compared
// field for field against the recorded group (latency_ns excluded; wall
// clock is the one nondeterministic field). Matching table_digest and
// cert_digest at every generation is exactly the "bitwise-identical
// forwarding snapshot + per-generation certificate hash" guarantee.
//
// Two targets: in-process (a fresh core built from the journal header's
// topology spec) and socket (a live dfrouted started with --journal on the
// same config, drained over the wire via journal_tail).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/journal/journal.hpp"
#include "service/envelope.hpp"

namespace dfsssp::service {

/// Something a journal can be replayed against: issues requests and
/// drains the journal records they produced.
class ReplayTarget {
 public:
  virtual ~ReplayTarget() = default;
  /// Executes one request; transport failures surface as a non-kOk status
  /// with `error` set.
  virtual ServiceResponse call(const ServiceRequest& req) = 0;
  /// Appends all records with seq >= from_seq to `out`; returns the seq
  /// to resume from.
  virtual std::uint64_t drain(std::uint64_t from_seq,
                              std::vector<obs::journal::Record>& out) = 0;
};

struct ReplayMismatch {
  std::uint64_t logical_ts = 0;  // transaction that diverged
  std::string detail;            // human-readable field-level diff
};

struct ReplayResult {
  /// True when every transaction replayed and (with verify) every record
  /// matched.
  bool ok = false;
  /// Hard failure before/while replaying (bad journal, transport loss);
  /// empty when the replay ran to completion.
  std::string error;
  std::uint64_t transactions = 0;     // requests re-issued
  std::uint64_t records_checked = 0;  // records compared (verify only)
  std::uint64_t generations = 0;      // snapshot swaps observed
  std::vector<ReplayMismatch> mismatches;
};

/// Replays `file` against `target`. With `verify`, compares the emitted
/// records transaction by transaction; without, only re-issues the
/// requests (a load-replay). Stops at the first hard error; collects up
/// to 16 mismatches before giving up.
ReplayResult replay_journal(const obs::journal::JournalFile& file,
                            ReplayTarget& target, bool verify);

/// A fresh in-process ServiceCore configured from the journal header
/// (its topology spec built by build_topology_config, same engine, same
/// layer budget, journaling on, memory-only ring).
std::unique_ptr<ReplayTarget> make_inprocess_target(
    const obs::journal::JournalFile& file);

/// A live daemon on a unix socket; it must have been started with
/// --journal (drain goes over journal_tail). Returns nullptr with `error`
/// set when the connection fails.
std::unique_ptr<ReplayTarget> make_socket_target(
    const std::string& socket_path, std::string& error);

}  // namespace dfsssp::service
