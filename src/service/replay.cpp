#include "service/replay.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/frame.hpp"
#include "service/core.hpp"
#include "topology/configs.hpp"

namespace dfsssp::service {
namespace {

using obs::journal::EventKind;
using obs::journal::Record;

bool is_trigger(EventKind k) {
  return k == EventKind::kRoute || k == EventKind::kRepair ||
         k == EventKind::kFaultEvent;
}

/// Field-level comparison of a recorded vs replayed record. seq and
/// logical_ts are compared too — a disk journal is complete, so a fresh
/// core must reproduce the exact same numbering. latency_ns is wall clock
/// and excluded.
std::string diff_records(const Record& want, const Record& got) {
  std::string d;
  char buf[160];
  const auto field = [&](const char* name, std::uint64_t w, std::uint64_t g) {
    if (w == g) return;
    std::snprintf(buf, sizeof buf, "%s%s: recorded %llu, replayed %llu",
                  d.empty() ? "" : "; ", name,
                  static_cast<unsigned long long>(w),
                  static_cast<unsigned long long>(g));
    d += buf;
  };
  field("seq", want.seq, got.seq);
  field("logical_ts", want.logical_ts, got.logical_ts);
  field("kind", static_cast<std::uint8_t>(want.kind),
        static_cast<std::uint8_t>(got.kind));
  field("fault_kind", want.fault_kind, got.fault_kind);
  field("layers", want.layers, got.layers);
  field("flags", want.flags, got.flags);
  field("channel", want.channel, got.channel);
  field("switch", want.sw, got.sw);
  field("count", want.count, got.count);
  field("destinations_rerouted", want.destinations_rerouted,
        got.destinations_rerouted);
  field("version_before", want.version_before, got.version_before);
  field("version_after", want.version_after, got.version_after);
  field("paths", want.paths, got.paths);
  field("table_digest", want.table_digest, got.table_digest);
  field("cert_digest", want.cert_digest, got.cert_digest);
  field("req_max_layers", want.req_max_layers, got.req_max_layers);
  return d;
}

ServiceRequest request_for(const Record& trigger, std::uint64_t request_id) {
  ServiceRequest req;
  req.request_id = request_id;
  switch (trigger.kind) {
    case EventKind::kRoute:
      req.kind = MsgKind::kRoute;
      req.max_layers = static_cast<Layer>(trigger.req_max_layers);
      break;
    case EventKind::kRepair:
      req.kind = MsgKind::kRepair;
      break;
    case EventKind::kFaultEvent:
      req.kind = MsgKind::kFaultEvent;
      req.fault_kind = trigger.fault_kind;
      req.channel = trigger.channel;
      req.sw = trigger.sw;
      break;
    default:
      break;  // unreachable: callers pass triggers only
  }
  return req;
}

class InProcessTarget final : public ReplayTarget {
 public:
  explicit InProcessTarget(const obs::journal::JournalFile& file) {
    ServiceCoreOptions opts;
    opts.engine = file.engine;
    opts.max_layers = static_cast<Layer>(file.max_layers);
    opts.journal = true;
    opts.journal_config = file.topo_config;
    core_ = std::make_unique<ServiceCore>(
        build_topology_config(file.topo_config), opts);
  }

  ServiceResponse call(const ServiceRequest& req) override {
    return core_->handle(req);
  }

  std::uint64_t drain(std::uint64_t from_seq,
                      std::vector<Record>& out) override {
    std::vector<Record> batch;
    const std::uint64_t next =
        core_->journal()->tail(from_seq, 0, 0, batch);
    out.insert(out.end(), batch.begin(), batch.end());
    return next;
  }

 private:
  std::unique_ptr<ServiceCore> core_;
};

class SocketTarget final : public ReplayTarget {
 public:
  explicit SocketTarget(int fd) : fd_(fd) {}
  ~SocketTarget() override { ::close(fd_); }

  ServiceResponse call(const ServiceRequest& req) override {
    ServiceResponse resp;
    if (!write_frame(fd_, encode_request(req))) {
      return transport_error(req, "write failed");
    }
    std::string payload;
    if (read_frame(fd_, payload) != FrameResult::kFrame) {
      return transport_error(req, "connection lost");
    }
    if (decode_response(payload, resp) != Status::kOk) {
      return transport_error(req, "undecodable response");
    }
    return resp;
  }

  std::uint64_t drain(std::uint64_t from_seq,
                      std::vector<Record>& out) override {
    std::uint64_t cursor = from_seq;
    for (;;) {
      ServiceRequest req;
      req.kind = MsgKind::kJournalTail;
      req.journal_from_seq = cursor;
      const ServiceResponse resp = call(req);
      if (resp.status != Status::kOk) return cursor;
      out.insert(out.end(), resp.journal_records.begin(),
                 resp.journal_records.end());
      if (resp.journal_next_seq <= cursor) return cursor;  // no progress
      cursor = resp.journal_next_seq;
      if (resp.journal_records.empty()) return cursor;  // drained
    }
  }

 private:
  static ServiceResponse transport_error(const ServiceRequest& req,
                                         const char* what) {
    ServiceResponse resp = error_response(req, Status::kErrMalformed, what);
    return resp;
  }

  int fd_;
};

}  // namespace

std::unique_ptr<ReplayTarget> make_inprocess_target(
    const obs::journal::JournalFile& file) {
  return std::make_unique<InProcessTarget>(file);
}

std::unique_ptr<ReplayTarget> make_socket_target(
    const std::string& socket_path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path) {
    error = "socket path empty or too long";
    return nullptr;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = "socket: " + std::string(std::strerror(errno));
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::make_unique<SocketTarget>(fd);
}

ReplayResult replay_journal(const obs::journal::JournalFile& file,
                            ReplayTarget& target, bool verify) {
  constexpr std::size_t kMaxMismatches = 16;
  ReplayResult result;
  std::uint64_t cursor = 1;  // next journal seq to drain from the target
  std::uint64_t request_id = 0;

  std::size_t i = 0;
  const std::vector<Record>& recs = file.records;
  while (i < recs.size()) {
    // One transaction: the run of records sharing a logical timestamp.
    const std::uint64_t ts = recs[i].logical_ts;
    std::size_t end = i;
    const Record* trigger = nullptr;
    while (end < recs.size() && recs[end].logical_ts == ts) {
      if (is_trigger(recs[end].kind)) trigger = &recs[end];
      ++end;
    }
    if (trigger == nullptr) {
      result.error = "transaction ts=" + std::to_string(ts) +
                     " has no route/repair/fault_event trigger record";
      return result;
    }

    const ServiceResponse resp =
        target.call(request_for(*trigger, ++request_id));
    ++result.transactions;
    const bool recorded_ok =
        (trigger->flags & obs::journal::kFlagOk) != 0;
    if (resp.status != Status::kOk && recorded_ok) {
      result.error = "transaction ts=" + std::to_string(ts) + " (" +
                     obs::journal::to_string(trigger->kind) +
                     "): recorded ok but replay answered " +
                     to_string(resp.status) + " (" + resp.error + ")";
      return result;
    }

    if (verify) {
      std::vector<Record> got;
      cursor = target.drain(cursor, got);
      const std::size_t want_count = end - i;
      if (got.size() != want_count) {
        ReplayMismatch m;
        m.logical_ts = ts;
        m.detail = "record count: recorded " + std::to_string(want_count) +
                   ", replayed " + std::to_string(got.size());
        result.mismatches.push_back(std::move(m));
      } else {
        for (std::size_t k = 0; k < want_count; ++k) {
          const std::string d = diff_records(recs[i + k], got[k]);
          ++result.records_checked;
          if (recs[i + k].kind == EventKind::kSnapshotSwap) {
            ++result.generations;
          }
          if (!d.empty()) {
            ReplayMismatch m;
            m.logical_ts = ts;
            m.detail = std::string(obs::journal::to_string(recs[i + k].kind)) +
                       " #" + std::to_string(recs[i + k].seq) + ": " + d;
            result.mismatches.push_back(std::move(m));
          }
        }
      }
      if (result.mismatches.size() >= kMaxMismatches) break;
    }
    i = end;
  }

  result.ok = result.error.empty() && result.mismatches.empty();
  return result;
}

}  // namespace dfsssp::service
