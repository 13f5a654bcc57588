// Flight recorder for the routing service: a bounded, deterministic event
// journal every ServiceCore mutation flows through.
//
// One fixed-size binary record per event (kRecordBytes, codec in
// common/wire.hpp). Records carry a monotonic sequence number, a logical
// timestamp (the core's mutation clock — every record emitted by one
// request shares a tick, which is what lets dfreplay group a stream back
// into transactions), the event kind, and a structured payload: fault
// channel/switch ids, snapshot version before/after, layer count, FNV-1a
// digests of the published forwarding table and its deadlock-freedom
// certificate, and the request's wall-clock latency. Everything except
// latency_ns is deterministic — replaying the same mutation sequence on a
// fresh core reproduces the same records bit for bit (latency excluded),
// and `dfreplay --verify` holds the daemon to exactly that.
//
// Storage is two-tier:
//   * an in-memory ring of the last `capacity` records, served live over
//     the wire via the journal_tail envelope kind (dfroutectl tail);
//   * optionally an append-only on-disk segment ("DFJR", format in
//     docs/file-formats.md): CRC-framed records written through the common
//     frame layer, so a crash mid-write costs at most the final frame
//     (readers tolerate a truncated tail, never a bad CRC).
//
// The recorder is deliberately cheap: appending is one mutex-protected
// ring store plus, when a sink is open, one buffered frame write. Lookups
// are NOT journaled — they mutate nothing, and the recorder must not tax
// the lock-free lookup path.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "obs/metrics.hpp"

namespace dfsssp::obs::journal {

enum class EventKind : std::uint8_t {
  kRoute = 1,           // from-scratch recompute completed
  kRepair = 2,          // repair request completed (incremental or full)
  kFaultEvent = 3,      // one fault event accepted into the pending batch
  kCoalescedBatch = 4,  // a repair drained N pending events into one delta
  kSnapshotSwap = 5,    // a new forwarding snapshot generation published
  kVeto = 6,            // events rejected by the partition guard
};

const char* to_string(EventKind kind);
bool known_kind(std::uint8_t raw);

/// Encoded size of one record; the on-disk header repeats it so future
/// formats can grow records by appending fields (readers skip the excess).
inline constexpr std::uint16_t kRecordBytes = 86;

// Record.flags bits.
inline constexpr std::uint8_t kFlagOk = 1;           // request succeeded
inline constexpr std::uint8_t kFlagIncremental = 2;  // repair was incremental
inline constexpr std::uint8_t kFlagFallback = 4;     // full-recompute fallback

/// One journal event. `count` is kind-dependent: pending queue depth after
/// a fault_event, batch size for coalesced_batch, events_coalesced for a
/// repair, vetoed-event count for a veto.
struct Record {
  std::uint64_t seq = 0;         // assigned by Journal::append, starts at 1
  std::uint64_t logical_ts = 0;  // core mutation clock; shared per request
  EventKind kind = EventKind::kRoute;
  std::uint8_t fault_kind = 0;  // fault_event: FaultKind as u8
  std::uint8_t layers = 0;      // layer count of the (new) snapshot
  std::uint8_t flags = 0;
  std::uint32_t channel = 0;  // fault_event: channel id (link faults)
  std::uint32_t sw = 0;       // fault_event: switch id (switch faults)
  std::uint32_t count = 0;    // kind-dependent, see above
  std::uint32_t destinations_rerouted = 0;  // repair
  std::uint64_t version_before = 0;  // snapshot version when work started
  std::uint64_t version_after = 0;   // snapshot version when it finished
  std::uint64_t paths = 0;           // paths in the (new) snapshot
  std::uint64_t table_digest = 0;    // FNV-1a of the forwarding table
  std::uint64_t cert_digest = 0;     // FNV-1a of the certificate orders
  std::uint64_t latency_ns = 0;      // wall clock; excluded from verify
  std::uint16_t req_max_layers = 0;  // route: the request's layer budget
};

/// Appends exactly kRecordBytes to `out`.
void encode_record(std::string& out, const Record& r);
/// False when fewer than kRecordBytes remain at the cursor.
bool decode_record(wire::Reader& r, Record& out);

/// One-line human rendering, e.g. for `dfroutectl tail` / `dfreplay dump`:
///   #12 ts=5 repair ok,incr layers=3 coalesced=4 rerouted=118 v4->v5
///   paths=9216 table=0f3a.. cert=77b1.. 1.24ms
std::string describe(const Record& r);

/// IEEE 802.3 CRC-32 (the zlib polynomial), table-driven.
std::uint32_t crc32(std::string_view data);

/// Point-in-time counters of one Journal.
struct JournalStats {
  std::uint64_t next_seq = 1;  // seq the next append will get
  std::uint64_t appended = 0;  // total records ever appended
  std::uint64_t dropped = 0;   // records overwritten out of the ring
  std::uint32_t size = 0;      // records currently held in the ring
  std::uint32_t capacity = 0;
  std::uint64_t by_kind[7] = {0, 0, 0, 0, 0, 0, 0};  // indexed by raw kind
  std::uint64_t disk_bytes = 0;  // bytes written to the sink (0 = no sink)
  bool sink_open = false;
  bool sink_failed = false;
  std::string sink_path;  // empty when memory-only
};

/// The recorder. Thread-safe; ServiceCore appends under its engine mutex
/// anyway, but `tail`/`stats` arrive from lookup-path connection threads.
class Journal {
 public:
  struct Options {
    std::uint32_t capacity = 8192;  // ring size, records
    std::string path;               // on-disk segment; empty = memory-only
    // Header metadata, so a segment is self-describing for dfreplay:
    std::string topo_config;  // topology spec (build_topology_config)
    std::string engine;       // routing engine registry key
    std::uint16_t max_layers = 0;  // the core's default layer budget
  };

  explicit Journal(Options opts);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Assigns the next sequence number, stores the record in the ring, and
  /// appends a CRC frame to the sink (if open). Returns the assigned seq.
  std::uint64_t append(Record r);

  /// Copies records with seq >= from_seq (and kind == kind_filter, when
  /// non-zero) into `out`, at most `max` of them. Returns the seq to
  /// resume from: pass it as the next call's from_seq to stream without
  /// gaps or duplicates. Records that fell out of the ring are silently
  /// skipped (the gap shows in the seq numbers).
  std::uint64_t tail(std::uint64_t from_seq, std::uint32_t max,
                     std::uint8_t kind_filter, std::vector<Record>& out) const;

  JournalStats stats() const;

  /// False when the sink failed to open or a write failed; `error` says
  /// why. The ring keeps recording either way.
  bool sink_ok() const;
  std::string error() const;

 private:
  mutable std::mutex mu_;
  Options opts_;
  std::vector<Record> ring_;      // slot = (seq - 1) % capacity
  std::uint64_t next_seq_ = 1;    // guarded by mu_
  std::uint64_t by_kind_[7] = {0, 0, 0, 0, 0, 0, 0};
  int fd_ = -1;
  std::uint64_t disk_bytes_ = 0;
  bool sink_failed_ = false;
  std::string error_;

  Counter& appended_;
  Counter& dropped_;
  Counter& bytes_written_;
  Counter& sink_errors_;
};

/// A fully parsed on-disk journal segment.
struct JournalFile {
  std::string topo_config;
  std::string engine;
  std::uint16_t max_layers = 0;
  std::uint16_t record_bytes = kRecordBytes;
  std::vector<Record> records;
  /// True when the file ended mid-frame (crash during the final append).
  /// The complete prefix is still in `records`; a CRC mismatch, by
  /// contrast, is a hard error.
  bool truncated_tail = false;
};

/// Reads a DFJR segment. False (with `error` set) on open failure, bad
/// magic, unsupported format version, missing header, or CRC mismatch.
bool read_journal(const std::string& path, JournalFile& out,
                  std::string& error);

}  // namespace dfsssp::obs::journal
