#include "obs/journal/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/frame.hpp"

namespace dfsssp::obs::journal {
namespace {

constexpr char kMagic[4] = {'D', 'F', 'J', 'R'};
constexpr std::uint16_t kFormatVersion = 1;

// Frame payload kinds inside a DFJR segment.
constexpr std::uint8_t kFrameHeader = 1;
constexpr std::uint8_t kFrameRecord = 2;

/// FaultKind names, mirrored from fault/schedule.hpp by raw value (the
/// journal lives below the fault layer and stores the u8 wire value).
const char* fault_kind_name(std::uint8_t raw) {
  switch (raw) {
    case 0: return "link_down";
    case 1: return "link_up";
    case 2: return "switch_down";
    case 3: return "switch_up";
  }
  return "fault?";
}

/// Reads exactly `len` bytes from a regular file, resuming on EINTR.
/// Returns the byte count actually read (short only at EOF/error).
std::size_t read_fully(int fd, char* buf, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, buf + got, len - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return got;
}

/// Wraps `kind | body` into a CRC-framed segment payload.
std::string seal_frame(std::uint8_t kind, std::string_view body) {
  std::string payload;
  payload.reserve(1 + body.size() + 4);
  wire::put_u8(payload, kind);
  payload.append(body.data(), body.size());
  wire::put_u32(payload, crc32(payload));
  return payload;
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRoute: return "route";
    case EventKind::kRepair: return "repair";
    case EventKind::kFaultEvent: return "fault_event";
    case EventKind::kCoalescedBatch: return "coalesced_batch";
    case EventKind::kSnapshotSwap: return "snapshot_swap";
    case EventKind::kVeto: return "veto";
  }
  return "unknown";
}

bool known_kind(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(EventKind::kRoute) &&
         raw <= static_cast<std::uint8_t>(EventKind::kVeto);
}

std::uint32_t crc32(std::string_view data) {
  // IEEE 802.3 reflected polynomial, table built on first use.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void encode_record(std::string& out, const Record& r) {
  wire::put_u64(out, r.seq);
  wire::put_u64(out, r.logical_ts);
  wire::put_u8(out, static_cast<std::uint8_t>(r.kind));
  wire::put_u8(out, r.fault_kind);
  wire::put_u8(out, r.layers);
  wire::put_u8(out, r.flags);
  wire::put_u32(out, r.channel);
  wire::put_u32(out, r.sw);
  wire::put_u32(out, r.count);
  wire::put_u32(out, r.destinations_rerouted);
  wire::put_u64(out, r.version_before);
  wire::put_u64(out, r.version_after);
  wire::put_u64(out, r.paths);
  wire::put_u64(out, r.table_digest);
  wire::put_u64(out, r.cert_digest);
  wire::put_u64(out, r.latency_ns);
  wire::put_u16(out, r.req_max_layers);
  // The format doc (docs/file-formats.md) and kRecordBytes both promise
  // this exact size; a drifted field list should fail loudly in tests.
  static_assert(kRecordBytes == 8 + 8 + 4 + 4 * 4 + 6 * 8 + 2);
}

bool decode_record(wire::Reader& r, Record& out) {
  out = Record{};
  std::uint8_t kind = 0;
  if (!r.get_u64(out.seq) || !r.get_u64(out.logical_ts) || !r.get_u8(kind) ||
      !r.get_u8(out.fault_kind) || !r.get_u8(out.layers) ||
      !r.get_u8(out.flags) || !r.get_u32(out.channel) || !r.get_u32(out.sw) ||
      !r.get_u32(out.count) || !r.get_u32(out.destinations_rerouted) ||
      !r.get_u64(out.version_before) || !r.get_u64(out.version_after) ||
      !r.get_u64(out.paths) || !r.get_u64(out.table_digest) ||
      !r.get_u64(out.cert_digest) || !r.get_u64(out.latency_ns) ||
      !r.get_u16(out.req_max_layers)) {
    return false;
  }
  if (!known_kind(kind)) return false;
  out.kind = static_cast<EventKind>(kind);
  return true;
}

std::string describe(const Record& r) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf, "#%llu ts=%llu %-15s",
                static_cast<unsigned long long>(r.seq),
                static_cast<unsigned long long>(r.logical_ts),
                to_string(r.kind));
  out += buf;
  switch (r.kind) {
    case EventKind::kRoute:
    case EventKind::kRepair: {
      std::string flags;
      flags += (r.flags & kFlagOk) != 0 ? "ok" : "failed";
      if ((r.flags & kFlagIncremental) != 0) flags += ",incr";
      if ((r.flags & kFlagFallback) != 0) flags += ",fallback";
      std::snprintf(buf, sizeof buf, " %s v%llu->%llu layers=%u paths=%llu",
                    flags.c_str(),
                    static_cast<unsigned long long>(r.version_before),
                    static_cast<unsigned long long>(r.version_after),
                    unsigned{r.layers},
                    static_cast<unsigned long long>(r.paths));
      out += buf;
      if (r.kind == EventKind::kRepair) {
        std::snprintf(buf, sizeof buf, " coalesced=%u rerouted=%u", r.count,
                      r.destinations_rerouted);
        out += buf;
      } else {
        std::snprintf(buf, sizeof buf, " max_layers=%u",
                      unsigned{r.req_max_layers});
        out += buf;
      }
      std::snprintf(buf, sizeof buf,
                    " table=%016llx cert=%016llx %.2fms",
                    static_cast<unsigned long long>(r.table_digest),
                    static_cast<unsigned long long>(r.cert_digest),
                    static_cast<double>(r.latency_ns) / 1e6);
      out += buf;
      break;
    }
    case EventKind::kFaultEvent:
      std::snprintf(buf, sizeof buf, " %s ch=%u sw=%u pending=%u",
                    fault_kind_name(r.fault_kind), r.channel, r.sw, r.count);
      out += buf;
      break;
    case EventKind::kCoalescedBatch:
      std::snprintf(buf, sizeof buf, " events=%u v%llu", r.count,
                    static_cast<unsigned long long>(r.version_before));
      out += buf;
      break;
    case EventKind::kSnapshotSwap:
      std::snprintf(buf, sizeof buf,
                    " v%llu->%llu layers=%u paths=%llu table=%016llx",
                    static_cast<unsigned long long>(r.version_before),
                    static_cast<unsigned long long>(r.version_after),
                    unsigned{r.layers},
                    static_cast<unsigned long long>(r.paths),
                    static_cast<unsigned long long>(r.table_digest));
      out += buf;
      break;
    case EventKind::kVeto:
      std::snprintf(buf, sizeof buf, " vetoed=%u", r.count);
      out += buf;
      break;
  }
  return out;
}

Journal::Journal(Options opts)
    : opts_(std::move(opts)),
      ring_(opts_.capacity > 0 ? opts_.capacity : 1),
      appended_(registry().counter("journal/records_appended")),
      dropped_(registry().counter("journal/records_dropped")),
      bytes_written_(registry().counter("journal/bytes_written")),
      sink_errors_(registry().counter("journal/sink_errors")) {
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (opts_.path.empty()) return;
  fd_ = ::open(opts_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    sink_failed_ = true;
    error_ = "open " + opts_.path + ": " + std::strerror(errno);
    sink_errors_.inc();
    return;
  }
  // Preamble (unframed): magic + format version.
  std::string preamble(kMagic, sizeof kMagic);
  wire::put_u16(preamble, kFormatVersion);
  std::string header;
  wire::put_str(header, opts_.topo_config);
  wire::put_str(header, opts_.engine);
  wire::put_u16(header, opts_.max_layers);
  wire::put_u16(header, kRecordBytes);
  const std::string frame = seal_frame(kFrameHeader, header);
  const bool wrote = [&] {
    std::size_t sent = 0;
    while (sent < preamble.size()) {
      const ssize_t n =
          ::write(fd_, preamble.data() + sent, preamble.size() - sent);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return write_frame(fd_, frame);
  }();
  if (!wrote) {
    sink_failed_ = true;
    error_ = "write " + opts_.path + ": " + std::strerror(errno);
    sink_errors_.inc();
    ::close(fd_);
    fd_ = -1;
    return;
  }
  disk_bytes_ = preamble.size() + 4 + frame.size();
  bytes_written_.add(disk_bytes_);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t Journal::append(Record r) {
  std::lock_guard<std::mutex> lock(mu_);
  r.seq = next_seq_++;
  const std::uint32_t capacity = opts_.capacity;
  if (r.seq > capacity) {
    dropped_.inc();  // the slot we are about to overwrite falls out
  }
  const auto raw = static_cast<std::uint8_t>(r.kind);
  if (raw < 7) by_kind_[raw]++;
  ring_[static_cast<std::size_t>((r.seq - 1) % capacity)] = r;
  appended_.inc();

  if (fd_ >= 0 && !sink_failed_) {
    std::string body;
    body.reserve(kRecordBytes);
    encode_record(body, r);
    const std::string frame = seal_frame(kFrameRecord, body);
    if (write_frame(fd_, frame)) {
      disk_bytes_ += 4 + frame.size();
      bytes_written_.add(4 + frame.size());
    } else {
      // First failure wins; stop writing rather than interleave garbage.
      sink_failed_ = true;
      error_ = "write " + opts_.path + ": " + std::strerror(errno);
      sink_errors_.inc();
    }
  }
  return r.seq;
}

std::uint64_t Journal::tail(std::uint64_t from_seq, std::uint32_t max,
                            std::uint8_t kind_filter,
                            std::vector<Record>& out) const {
  out.clear();
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t capacity = opts_.capacity;
  const std::uint64_t appended = next_seq_ - 1;
  std::uint64_t first_live = appended > capacity ? next_seq_ - capacity : 1;
  std::uint64_t cursor = from_seq > first_live ? from_seq : first_live;
  if (cursor < 1) cursor = 1;
  while (cursor < next_seq_) {
    if (max != 0 && out.size() >= max) break;
    const Record& rec = ring_[static_cast<std::size_t>((cursor - 1) %
                                                       capacity)];
    if (kind_filter == 0 ||
        static_cast<std::uint8_t>(rec.kind) == kind_filter) {
      out.push_back(rec);
    }
    ++cursor;
  }
  return cursor;
}

JournalStats Journal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  JournalStats s;
  s.next_seq = next_seq_;
  s.appended = next_seq_ - 1;
  s.capacity = opts_.capacity;
  s.size = static_cast<std::uint32_t>(
      s.appended < s.capacity ? s.appended : s.capacity);
  s.dropped = s.appended - s.size;
  for (int i = 0; i < 7; ++i) s.by_kind[i] = by_kind_[i];
  s.disk_bytes = disk_bytes_;
  s.sink_open = fd_ >= 0 && !sink_failed_;
  s.sink_failed = sink_failed_;
  s.sink_path = opts_.path;
  return s;
}

bool Journal::sink_ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !sink_failed_;
}

std::string Journal::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

bool read_journal(const std::string& path, JournalFile& out,
                  std::string& error) {
  out = JournalFile{};
  error.clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    error = "open " + path + ": " + std::strerror(errno);
    return false;
  }
  char preamble[6];
  if (read_fully(fd, preamble, sizeof preamble) != sizeof preamble ||
      std::memcmp(preamble, kMagic, sizeof kMagic) != 0) {
    error = path + ": not a DFJR journal (bad magic)";
    ::close(fd);
    return false;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(preamble[4])) |
      static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(static_cast<std::uint8_t>(preamble[5]))
          << 8);
  if (version != kFormatVersion) {
    error = path + ": unsupported DFJR format version " +
            std::to_string(version);
    ::close(fd);
    return false;
  }

  bool saw_header = false;
  std::string payload;
  for (;;) {
    const FrameResult fr = read_frame(fd, payload);
    if (fr == FrameResult::kEof) break;
    if (fr == FrameResult::kError) {
      // Mid-frame EOF: a crash truncated the final append. The complete
      // prefix is intact and usable.
      out.truncated_tail = true;
      break;
    }
    if (fr != FrameResult::kFrame) {
      error = path + ": oversized or unreadable frame";
      ::close(fd);
      return false;
    }
    if (payload.size() < 5) {
      error = path + ": frame too short for kind+crc";
      ::close(fd);
      return false;
    }
    const std::string_view sealed(payload);
    const std::string_view body_and_kind = sealed.substr(0, sealed.size() - 4);
    wire::Reader crc_reader{sealed.substr(sealed.size() - 4)};
    std::uint32_t stored_crc = 0;
    crc_reader.get_u32(stored_crc);
    if (crc32(body_and_kind) != stored_crc) {
      error = path + ": CRC mismatch in frame after record " +
              std::to_string(out.records.size());
      ::close(fd);
      return false;
    }
    wire::Reader r{body_and_kind};
    std::uint8_t frame_kind = 0;
    r.get_u8(frame_kind);
    if (!saw_header) {
      if (frame_kind != kFrameHeader) {
        error = path + ": first frame is not the journal header";
        ::close(fd);
        return false;
      }
      std::uint16_t record_bytes = 0;
      if (!r.get_str(out.topo_config) || !r.get_str(out.engine) ||
          !r.get_u16(out.max_layers) || !r.get_u16(record_bytes)) {
        error = path + ": malformed journal header";
        ::close(fd);
        return false;
      }
      if (record_bytes < kRecordBytes) {
        error = path + ": header record_bytes " +
                std::to_string(record_bytes) + " below this build's " +
                std::to_string(kRecordBytes);
        ::close(fd);
        return false;
      }
      out.record_bytes = record_bytes;
      saw_header = true;
      continue;
    }
    if (frame_kind != kFrameRecord) {
      error = path + ": unknown frame kind " + std::to_string(frame_kind);
      ::close(fd);
      return false;
    }
    Record rec;
    if (!decode_record(r, rec)) {
      error = path + ": malformed record after " +
              std::to_string(out.records.size()) + " records";
      ::close(fd);
      return false;
    }
    // Records written by a future minor format may carry trailing fields
    // (record_bytes > kRecordBytes); skip them.
    out.records.push_back(rec);
  }
  ::close(fd);
  if (!saw_header) {
    error = path + ": empty journal (no header frame)";
    return false;
  }
  return true;
}

}  // namespace dfsssp::obs::journal
