// dfroutectl: command-line client for the dfrouted daemon.
//
//   dfroutectl --socket=/tmp/dfrouted.sock route
//   dfroutectl --socket=... fault --kind=link_down --channel=17
//   dfroutectl --socket=... repair
//   dfroutectl --socket=... lookup --src=0 --dst=5
//   dfroutectl --socket=... lookups --count=1000   # CI load client
//   dfroutectl --socket=... stats [--json] | info | shutdown
//   dfroutectl --socket=... tail [--follow] [--kind=repair] [--from=N]
//   dfroutectl --socket=... journal        # flight-recorder counters
//
// Exit codes: 0 on a kOk response (for `lookups`: all responses ok),
// 1 on a structured error response, 2 on usage/transport failure.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "common/cli.hpp"
#include "common/frame.hpp"
#include "fault/schedule.hpp"
#include "obs/journal/journal.hpp"
#include "obs/report/json_value.hpp"
#include "service/envelope.hpp"

namespace {

using namespace dfsssp;
using namespace dfsssp::service;

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s --socket=<path> <command> [flags]\n"
      "commands:\n"
      "  route     [--max-layers=N]   recompute forwarding from scratch\n"
      "                               (N <= 16; 0 = the daemon's budget)\n"
      "  repair                       coalesce pending faults and repair\n"
      "  fault     --kind=link_down|link_up|switch_down|switch_up\n"
      "            [--channel=C] [--switch=S]\n"
      "  lookup    --src=<switch id> --dst=<terminal id>\n"
      "  lookups   --count=N [--src-stride=K]  deterministic lookup loop\n"
      "  stats     [--json]           metrics summary (raw JSON with --json)\n"
      "  info                         snapshot version / daemon identity\n"
      "  tail      [--follow] [--kind=<event kind>] [--from=SEQ] [--max=N]\n"
      "                               stream flight-recorder records\n"
      "  journal                      flight-recorder counters\n"
      "  shutdown                     begin drain; daemon exits 0\n",
      prog);
  return 2;
}

int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request-response exchange. Returns false on transport failure.
bool exchange(int fd, const ServiceRequest& req, ServiceResponse& resp) {
  if (!write_frame(fd, encode_request(req))) return false;
  std::string payload;
  if (read_frame(fd, payload) != FrameResult::kFrame) return false;
  return decode_response(payload, resp) == Status::kOk;
}

int print_outcome(const ServiceResponse& resp) {
  if (resp.status != Status::kOk) {
    std::fprintf(stderr, "%s: %s (%s)\n", to_string(resp.kind),
                 resp.error.c_str(), to_string(resp.status));
    return 1;
  }
  switch (resp.kind) {
    case MsgKind::kRoute:
      std::printf("routed: snapshot v%llu, %u layers, %llu paths, %.3f ms\n",
                  static_cast<unsigned long long>(resp.snapshot_version),
                  unsigned{resp.layers},
                  static_cast<unsigned long long>(resp.paths),
                  static_cast<double>(resp.elapsed_ns) / 1e6);
      break;
    case MsgKind::kRepair:
      std::printf(
          "repaired: snapshot v%llu, %u events coalesced, %s, "
          "%u destinations rerouted, %llu paths migrated, %.3f ms\n",
          static_cast<unsigned long long>(resp.snapshot_version),
          resp.events_coalesced,
          resp.incremental ? "incremental" : "full recompute",
          resp.destinations_rerouted,
          static_cast<unsigned long long>(resp.paths_migrated),
          static_cast<double>(resp.elapsed_ns) / 1e6);
      break;
    case MsgKind::kFaultEvent:
      std::printf("queued: %u pending fault events\n", resp.pending_events);
      break;
    case MsgKind::kLookup:
      if (resp.ejected) {
        std::printf("snapshot v%llu: eject (destination on this switch)\n",
                    static_cast<unsigned long long>(resp.snapshot_version));
      } else {
        std::printf("snapshot v%llu: channel %u, layer %u\n",
                    static_cast<unsigned long long>(resp.snapshot_version),
                    resp.next_channel, unsigned{resp.layer});
      }
      break;
    case MsgKind::kStats:
      std::printf("%s\n", resp.stats_json.c_str());
      break;
    case MsgKind::kSnapshotInfo:
      std::printf(
          "dfrouted: engine %s, topology \"%s\" (%u switches, %u "
          "terminals)\nsnapshot v%llu (%llu swaps), %u layers, %llu paths, "
          "%u pending fault events\n",
          resp.engine.c_str(), resp.topology.c_str(), resp.switches,
          resp.terminals,
          static_cast<unsigned long long>(resp.snapshot_version),
          static_cast<unsigned long long>(resp.snapshot_swaps),
          unsigned{resp.layers},
          static_cast<unsigned long long>(resp.paths), resp.pending_events);
      std::printf("uptime %.1f s, peak rss %.1f MiB\n",
                  static_cast<double>(resp.uptime_ns) / 1e9,
                  static_cast<double>(resp.peak_rss_bytes) /
                      (1024.0 * 1024.0));
      break;
    case MsgKind::kShutdown:
      std::printf("draining\n");
      break;
    case MsgKind::kJournalTail:
      // Handled by run_tail; reaching here means a bare exchange.
      for (const auto& rec : resp.journal_records) {
        std::printf("%s\n", obs::journal::describe(rec).c_str());
      }
      break;
    case MsgKind::kJournalStats: {
      const obs::journal::JournalStats& s = resp.journal_stats;
      std::printf(
          "journal: %llu recorded (%u in ring of %u, %llu dropped), "
          "next seq %llu\n",
          static_cast<unsigned long long>(s.appended), s.size, s.capacity,
          static_cast<unsigned long long>(s.dropped),
          static_cast<unsigned long long>(s.next_seq));
      static const char* const kKindNames[] = {
          "?",    "route",          "repair", "fault_event",
          "coalesced_batch", "snapshot_swap", "veto"};
      for (int k = 1; k <= 6; ++k) {
        if (s.by_kind[k] == 0) continue;
        std::printf("  %-16s %llu\n", kKindNames[k],
                    static_cast<unsigned long long>(s.by_kind[k]));
      }
      if (!s.sink_path.empty()) {
        std::printf("  sink %s: %llu bytes%s\n", s.sink_path.c_str(),
                    static_cast<unsigned long long>(s.disk_bytes),
                    s.sink_failed ? " (FAILED)" : "");
      }
      break;
    }
  }
  return 0;
}

/// Maps a --kind flag value to the journal's event-kind byte; 0 = all.
/// Returns false for an unknown name.
bool parse_event_kind(const std::string& name, std::uint8_t& out) {
  out = 0;
  if (name.empty()) return true;
  for (std::uint8_t k = 1; k <= 6; ++k) {
    if (name == obs::journal::to_string(
                    static_cast<obs::journal::EventKind>(k))) {
      out = k;
      return true;
    }
  }
  return false;
}

/// `tail`: stream flight-recorder records, one describe() line each.
/// --follow keeps polling (200 ms ticks) until the transport drops.
int run_tail(int fd, const Cli& cli) {
  const bool follow = cli.get_bool("follow", false);
  std::uint8_t kind_filter = 0;
  if (!parse_event_kind(cli.get("kind", ""), kind_filter)) {
    std::fprintf(stderr,
                 "tail: unknown --kind (want route|repair|fault_event|"
                 "coalesced_batch|snapshot_swap|veto)\n");
    return 2;
  }
  ServiceRequest req;
  req.kind = MsgKind::kJournalTail;
  req.journal_from_seq =
      cli.get_count("from", 0, std::numeric_limits<std::uint64_t>::max(), 0);
  req.journal_max = static_cast<std::uint32_t>(
      cli.get_count("max", 0, std::numeric_limits<std::uint32_t>::max(), 0));
  req.journal_kind = kind_filter;
  for (;;) {
    ServiceResponse resp;
    req.request_id++;
    if (!exchange(fd, req, resp)) {
      std::fprintf(stderr, "tail: transport failure\n");
      return 2;
    }
    if (resp.status != Status::kOk) {
      std::fprintf(stderr, "tail: %s (%s)\n", resp.error.c_str(),
                   to_string(resp.status));
      return 1;
    }
    for (const auto& rec : resp.journal_records) {
      std::printf("%s\n", obs::journal::describe(rec).c_str());
    }
    std::fflush(stdout);
    req.journal_from_seq = resp.journal_next_seq;
    if (!follow) {
      // One full drain: keep asking until the ring has nothing newer.
      if (resp.journal_records.empty()) return 0;
      continue;
    }
    if (resp.journal_records.empty()) ::usleep(200 * 1000);
  }
}

/// Renders the stats JSON as tables; falls back to raw JSON when the
/// payload does not parse (a newer daemon, say).
void render_stats(const std::string& json) {
  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(json);
  } catch (const std::exception&) {
    std::printf("%s\n", json.c_str());
    return;
  }

  if (const obs::JsonValue* lat = doc.find("latency")) {
    std::printf("request latency:\n");
    std::printf("  %-8s %10s %12s %12s %12s %12s\n", "kind", "count",
                "p50 ms", "p90 ms", "p99 ms", "max ms");
    for (const auto& m : lat->members()) {
      const auto ns_field = [&](const char* key) {
        const obs::JsonValue* v = m.second.find(key);
        return v != nullptr && v->is_number() ? v->as_double() / 1e6 : 0.0;
      };
      const obs::JsonValue* count = m.second.find("count");
      std::printf("  %-8s %10llu %12.4f %12.4f %12.4f %12.4f\n",
                  m.first.c_str(),
                  static_cast<unsigned long long>(
                      count != nullptr && count->is_integer()
                          ? count->as_uint()
                          : 0),
                  ns_field("p50_ns"), ns_field("p90_ns"), ns_field("p99_ns"),
                  ns_field("max_ns"));
    }
  }
  if (const obs::JsonValue* proc = doc.find("process")) {
    const obs::JsonValue* uptime = proc->find("uptime_ns");
    const obs::JsonValue* rss = proc->find("peak_rss_bytes");
    std::printf("process: uptime %.1f s, peak rss %.1f MiB\n",
                uptime != nullptr && uptime->is_number()
                    ? uptime->as_double() / 1e9
                    : 0.0,
                rss != nullptr && rss->is_number()
                    ? rss->as_double() / (1024.0 * 1024.0)
                    : 0.0);
  }
  const auto print_section = [&](const char* key, const char* title) {
    const obs::JsonValue* sec = doc.find(key);
    if (sec == nullptr || !sec->is_object() || sec->size() == 0) return;
    std::printf("%s:\n", title);
    for (const auto& m : sec->members()) {
      if (m.second.is_object()) {
        // Histogram reading: show the merged tallies, not the buckets.
        const auto field = [&](const char* f) -> unsigned long long {
          const obs::JsonValue* v = m.second.find(f);
          return v != nullptr && v->is_number()
                     ? static_cast<unsigned long long>(v->as_double())
                     : 0;
        };
        std::printf("  %-40s count=%llu sum=%llu max=%llu\n", m.first.c_str(),
                    field("count"), field("sum"), field("max"));
      } else if (m.second.is_number()) {
        std::printf("  %-40s %llu\n", m.first.c_str(),
                    static_cast<unsigned long long>(m.second.as_double()));
      }
    }
  };
  print_section("metrics", "metrics");
  print_section("timing_metrics", "timing metrics");
}

/// `lookups`: a deterministic read-load client for the CI soak job. Needs
/// the fabric's node-id layout, so it first asks the daemon via
/// snapshot_info-style lookups: node ids are probed by walking src/dst
/// indices until the daemon answers kErrBadArgument.
int run_lookup_loop(int fd, const Cli& cli) {
  const std::uint64_t count = cli.get_count("count", 1000);
  const auto stride =
      static_cast<std::uint32_t>(cli.get_count("src-stride", 7));

  ServiceRequest info_req;
  info_req.kind = MsgKind::kSnapshotInfo;
  ServiceResponse info;
  if (!exchange(fd, info_req, info) || info.status != Status::kOk) {
    std::fprintf(stderr, "lookups: cannot query daemon identity\n");
    return 2;
  }
  if (info.switches == 0 || info.terminals == 0) return 2;

  // Node ids are dense but interleaved by type, and the wire API does not
  // promise a layout — so walk the id space and keep going until `count`
  // lookups succeeded. kErrBadArgument just means the walk hit the wrong
  // node type; any other reply (no snapshot yet, draining, ...) would
  // answer every further lookup the same way, so the walk stops there.
  // The walk is deterministic, so repeated runs produce identical request
  // streams.
  std::uint64_t ok = 0;
  std::uint64_t errs = 0;
  std::uint64_t sent = 0;
  const std::uint64_t max_sent = count * 64;
  const std::uint32_t total_nodes = info.switches + info.terminals;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  while (ok < count && sent < max_sent) {
    ServiceRequest req;
    req.kind = MsgKind::kLookup;
    req.request_id = ++sent;
    req.src_switch = src;
    req.dst_terminal = dst;
    ServiceResponse resp;
    if (!exchange(fd, req, resp)) return 2;
    if (resp.status == Status::kOk) {
      ++ok;
    } else if (resp.status != Status::kErrBadArgument) {
      ++errs;
      std::fprintf(stderr, "lookups: stopped at %s: %s\n",
                   to_string(resp.status), resp.error.c_str());
      break;
    }
    src = (src + stride) % total_nodes;
    dst = (dst + 1) % total_nodes;
  }
  std::printf("lookups: %llu ok, %llu errors, %llu sent\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(errs),
              static_cast<unsigned long long>(sent));
  return errs == 0 && ok == count ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string socket_path = cli.get("socket", "");
  if (socket_path.empty() || cli.positional().empty()) {
    return usage(cli.program().c_str());
  }
  const std::string& cmd = cli.positional().front();

  const int fd = connect_socket(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "dfroutectl: cannot connect to %s\n",
                 socket_path.c_str());
    return 2;
  }

  ServiceRequest req;
  req.request_id = 1;
  int rc = 2;
  if (cmd == "route") {
    req.kind = MsgKind::kRoute;
    // 0 asks for the daemon's budget.
    req.max_layers =
        static_cast<Layer>(cli.get_count("max-layers", 0, kMaxLayers, 0));
  } else if (cmd == "repair") {
    req.kind = MsgKind::kRepair;
  } else if (cmd == "fault") {
    req.kind = MsgKind::kFaultEvent;
    const std::string kind = cli.get("kind", "");
    if (kind == "link_down") {
      req.fault_kind = static_cast<std::uint8_t>(FaultKind::kLinkDown);
    } else if (kind == "link_up") {
      req.fault_kind = static_cast<std::uint8_t>(FaultKind::kLinkUp);
    } else if (kind == "switch_down") {
      req.fault_kind = static_cast<std::uint8_t>(FaultKind::kSwitchDown);
    } else if (kind == "switch_up") {
      req.fault_kind = static_cast<std::uint8_t>(FaultKind::kSwitchUp);
    } else {
      ::close(fd);
      return usage(cli.program().c_str());
    }
    req.channel = static_cast<ChannelId>(cli.get_int("channel", -1));
    req.sw = static_cast<NodeId>(cli.get_int("switch", -1));
  } else if (cmd == "lookup") {
    req.kind = MsgKind::kLookup;
    req.src_switch = static_cast<NodeId>(cli.get_int("src", -1));
    req.dst_terminal = static_cast<NodeId>(cli.get_int("dst", -1));
  } else if (cmd == "lookups") {
    rc = run_lookup_loop(fd, cli);
    ::close(fd);
    return rc;
  } else if (cmd == "tail") {
    rc = run_tail(fd, cli);
    ::close(fd);
    return rc;
  } else if (cmd == "stats") {
    req.kind = MsgKind::kStats;
  } else if (cmd == "journal") {
    req.kind = MsgKind::kJournalStats;
  } else if (cmd == "info") {
    req.kind = MsgKind::kSnapshotInfo;
  } else if (cmd == "shutdown") {
    req.kind = MsgKind::kShutdown;
  } else {
    ::close(fd);
    return usage(cli.program().c_str());
  }

  ServiceResponse resp;
  if (!exchange(fd, req, resp)) {
    std::fprintf(stderr, "dfroutectl: transport failure\n");
    rc = 2;
  } else if (cmd == "stats" && resp.status == Status::kOk &&
             !cli.get_bool("json", false)) {
    render_stats(resp.stats_json);
    rc = 0;
  } else {
    rc = print_outcome(resp);
  }
  ::close(fd);
  return rc;
}
