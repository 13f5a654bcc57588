// Routing service: wire envelope, RCU snapshots, ServiceCore semantics,
// and the pipe-mode end-to-end daemon conversation.
//
// The contracts under test (ISSUE: routing-as-a-service):
//   * every envelope kind round-trips the wire encoding bit-exactly, and
//     truncated/garbage/oversized/unversioned frames come back as
//     structured errors, never closed connections;
//   * the daemon's tables are bitwise identical to the in-process engine's
//     — serving through the envelope adds no routing drift;
//   * a lookup racing a repair sees the pre-repair or post-repair
//     snapshot, never a torn mix;
//   * drain: after shutdown, later requests get kErrDraining and the
//     serving loop exits cleanly.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <cstdio>

#include "analysis/certificate.hpp"
#include "common/frame.hpp"
#include "fault/churn.hpp"
#include "fault/incremental.hpp"
#include "fault/schedule.hpp"
#include "obs/journal/journal.hpp"
#include "obs/report/json_value.hpp"
#include "obs/metrics.hpp"
#include "service/core.hpp"
#include "service/envelope.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "topology/generators.hpp"

namespace dfsssp::service {
namespace {

// ---------------------------------------------------------------- envelope

TEST(ServiceEnvelope, RequestRoundTripsEveryKind) {
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  route.request_id = 42;
  route.max_layers = 4;

  ServiceRequest fault;
  fault.kind = MsgKind::kFaultEvent;
  fault.request_id = 7;
  fault.fault_kind = static_cast<std::uint8_t>(FaultKind::kSwitchDown);
  fault.channel = 123;
  fault.sw = 9;

  ServiceRequest lookup;
  lookup.kind = MsgKind::kLookup;
  lookup.request_id = 0xFFFF'FFFF'FFFF'FFFFull;
  lookup.src_switch = 3;
  lookup.dst_terminal = 200;

  for (const ServiceRequest& req : {route, fault, lookup}) {
    ServiceRequest out;
    ASSERT_EQ(decode_request(encode_request(req), out), Status::kOk);
    EXPECT_EQ(out.kind, req.kind);
    EXPECT_EQ(out.request_id, req.request_id);
    EXPECT_EQ(out.max_layers, req.kind == MsgKind::kRoute ? req.max_layers
                                                          : Layer{0});
  }
  ServiceRequest out;
  ASSERT_EQ(decode_request(encode_request(fault), out), Status::kOk);
  EXPECT_EQ(out.fault_kind, fault.fault_kind);
  EXPECT_EQ(out.channel, fault.channel);
  EXPECT_EQ(out.sw, fault.sw);
  ASSERT_EQ(decode_request(encode_request(lookup), out), Status::kOk);
  EXPECT_EQ(out.src_switch, lookup.src_switch);
  EXPECT_EQ(out.dst_terminal, lookup.dst_terminal);

  for (MsgKind kind : {MsgKind::kRepair, MsgKind::kStats,
                       MsgKind::kSnapshotInfo, MsgKind::kShutdown}) {
    ServiceRequest req;
    req.kind = kind;
    req.request_id = 5;
    ASSERT_EQ(decode_request(encode_request(req), out), Status::kOk);
    EXPECT_EQ(out.kind, kind);
    EXPECT_EQ(out.request_id, 5u);
  }
}

TEST(ServiceEnvelope, ResponseRoundTripsBodyFields) {
  ServiceResponse repair;
  repair.kind = MsgKind::kRepair;
  repair.request_id = 11;
  repair.snapshot_version = 3;
  repair.layers = 2;
  repair.paths = 64436;
  repair.events_coalesced = 5;
  repair.incremental = true;
  repair.destinations_rerouted = 96;
  repair.paths_migrated = 6816;
  repair.elapsed_ns = 4'700'000;

  ServiceResponse out;
  ASSERT_EQ(decode_response(encode_response(repair), out), Status::kOk);
  EXPECT_EQ(out.snapshot_version, 3u);
  EXPECT_EQ(out.layers, 2);
  EXPECT_EQ(out.paths, 64436u);
  EXPECT_EQ(out.events_coalesced, 5u);
  EXPECT_TRUE(out.incremental);
  EXPECT_EQ(out.destinations_rerouted, 96u);
  EXPECT_EQ(out.paths_migrated, 6816u);
  EXPECT_EQ(out.elapsed_ns, 4'700'000u);

  ServiceResponse info;
  info.kind = MsgKind::kSnapshotInfo;
  info.snapshot_version = 9;
  info.snapshot_swaps = 12;
  info.layers = 3;
  info.paths = 99;
  info.switches = 90;
  info.terminals = 724;
  info.pending_events = 2;
  info.engine = "dfsssp";
  info.topology = "deimos";
  ASSERT_EQ(decode_response(encode_response(info), out), Status::kOk);
  EXPECT_EQ(out.snapshot_swaps, 12u);
  EXPECT_EQ(out.switches, 90u);
  EXPECT_EQ(out.terminals, 724u);
  EXPECT_EQ(out.engine, "dfsssp");
  EXPECT_EQ(out.topology, "deimos");

  ServiceResponse err = error_response(ServiceRequest{}, Status::kErrDraining,
                                       "daemon is draining");
  ASSERT_EQ(decode_response(encode_response(err), out), Status::kOk);
  EXPECT_EQ(out.status, Status::kErrDraining);
  EXPECT_EQ(out.error, "daemon is draining");
}

TEST(ServiceEnvelope, RejectsTruncatedAndGarbageFrames) {
  ServiceRequest req;
  req.kind = MsgKind::kLookup;
  req.request_id = 77;
  req.src_switch = 1;
  req.dst_terminal = 2;
  const std::string good = encode_request(req);

  ServiceRequest out;
  // Every proper prefix of a valid frame is malformed, never a crash.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_EQ(decode_request(std::string_view(good).substr(0, cut), out),
              Status::kErrMalformed)
        << "prefix length " << cut;
  }
  // Trailing garbage is tolerated (forward compatibility within a version).
  EXPECT_EQ(decode_request(good + "extra-bytes", out), Status::kOk);
  EXPECT_EQ(out.request_id, 77u);

  // Pure garbage decodes as malformed / unknown kind / bad version —
  // structured errors all.
  const std::string garbage = "\xDE\xAD\xBE\xEF\xDE\xAD\xBE\xEF nonsense";
  EXPECT_NE(decode_request(garbage, out), Status::kOk);

  std::string bad_version = good;
  bad_version[0] = 99;  // version word
  EXPECT_EQ(decode_request(bad_version, out), Status::kErrUnsupportedVersion);

  std::string bad_kind = good;
  bad_kind[2] = 0x7F;  // kind word
  EXPECT_EQ(decode_request(bad_kind, out), Status::kErrUnknownKind);
  // The header still decoded: the server can echo the request id.
  EXPECT_EQ(out.request_id, 77u);
}

// ---------------------------------------------------------------- snapshot

TEST(SnapshotSlot, RcuReadersKeepTheirGeneration) {
  SnapshotSlot slot;
  EXPECT_EQ(slot.load(), nullptr);
  EXPECT_EQ(slot.version(), 0u);

  auto first = std::make_shared<ForwardingSnapshot>();
  first->paths = 1;
  EXPECT_EQ(slot.publish(std::move(first)), 1u);
  const std::shared_ptr<const ForwardingSnapshot> held = slot.load();
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->version, 1u);

  auto second = std::make_shared<ForwardingSnapshot>();
  second->paths = 2;
  EXPECT_EQ(slot.publish(std::move(second)), 2u);

  // The old generation stays fully readable for as long as it is held.
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->paths, 1u);
  EXPECT_EQ(slot.load()->version, 2u);
  EXPECT_EQ(slot.swaps(), 2u);
}

// ------------------------------------------------------------ service core

ServiceRequest make_lookup(NodeId src, NodeId dst) {
  ServiceRequest req;
  req.kind = MsgKind::kLookup;
  req.src_switch = src;
  req.dst_terminal = dst;
  return req;
}

ServiceRequest make_fault(const FaultEvent& e) {
  ServiceRequest req;
  req.kind = MsgKind::kFaultEvent;
  req.fault_kind = static_cast<std::uint8_t>(e.kind);
  req.channel = e.channel;
  req.sw = e.sw;
  return req;
}

void expect_tables_identical(const Network& net, const RoutingTable& a,
                             const RoutingTable& b) {
  ASSERT_EQ(a.num_layers(), b.num_layers());
  for (NodeId sw : net.switches()) {
    for (NodeId dst : net.terminals()) {
      ASSERT_EQ(a.next(sw, dst), b.next(sw, dst))
          << "next mismatch at sw " << sw << " dst " << dst;
      ASSERT_EQ(a.layer(sw, dst), b.layer(sw, dst))
          << "layer mismatch at sw " << sw << " dst " << dst;
    }
  }
}

TEST(ServiceCore, TablesBitwiseIdenticalToInProcessEngine) {
  Topology served = make_kary_ntree(4, 2);
  const Topology reference_topo = served;  // identical twin for the engine

  ServiceCore core(std::move(served));

  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  const ServiceResponse routed = core.handle(route);
  ASSERT_EQ(routed.status, Status::kOk);
  EXPECT_EQ(routed.snapshot_version, 1u);

  IncrementalDfsssp engine;
  const RouteResponse direct = engine.route(RouteRequest(reference_topo));
  ASSERT_TRUE(direct.ok);

  const auto snap = core.snapshot();
  ASSERT_NE(snap, nullptr);
  expect_tables_identical(reference_topo.net, snap->table, direct.table);
  EXPECT_EQ(snap->paths, direct.stats.paths);
  EXPECT_EQ(snap->layers_used, direct.stats.layers_used);
}

TEST(ServiceCore, BatchedRepairMatchesInProcessChurn) {
  Topology served = make_kary_ntree(4, 2);
  Topology mirror = served;

  ServiceCore core(std::move(served));
  ASSERT_EQ(core.handle([] {
                  ServiceRequest r;
                  r.kind = MsgKind::kRoute;
                  return r;
                }())
                .status,
            Status::kOk);

  IncrementalDfsssp engine;
  ASSERT_TRUE(engine.route(RouteRequest(mirror)).ok);
  ChurnEngine churn(mirror);

  const FaultSchedule schedule =
      FaultSchedule::random(mirror.net, {.num_events = 12}, 0xFEED);
  ASSERT_FALSE(schedule.empty());

  // Feed all events to the daemon, then one repair coalesces them; mirror
  // the exact same batch in-process.
  for (const FaultEvent& e : schedule) {
    ASSERT_EQ(core.handle(make_fault(e)).status, Status::kOk);
  }
  ServiceRequest repair;
  repair.kind = MsgKind::kRepair;
  const ServiceResponse repaired = core.handle(repair);
  ASSERT_EQ(repaired.status, Status::kOk);
  EXPECT_EQ(repaired.events_coalesced, schedule.size());

  const ChurnDelta delta = churn.apply_all(
      std::span<const FaultEvent>(schedule.events().data(), schedule.size()));
  const RouteResponse direct = engine.repair(RouteRequest(mirror), delta);
  ASSERT_TRUE(direct.ok);

  const auto snap = core.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, repaired.snapshot_version);
  expect_tables_identical(mirror.net, snap->table, direct.table);
}

// A route that fails (a one-layer budget on Deimos, which needs two) must
// leave nothing half-built for the next repair to publish, even when the
// repair's batch is a link flap that coalesces to no effect.
TEST(ServiceCore, RepairAfterFailedRoutePublishesACertifiedTable) {
  ServiceCore core(make_deimos());
  const Network& net = core.topo().net;
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(core.handle(route).status, Status::kOk);
  route.max_layers = 1;
  ASSERT_EQ(core.handle(route).status, Status::kErrRouteFailed);

  const ChannelId link = FaultSchedule::link_kills(net, 1, 3)[0].channel;
  ASSERT_EQ(core.handle(make_fault({FaultKind::kLinkDown, link, kInvalidNode}))
                .status,
            Status::kOk);
  ASSERT_EQ(core.handle(make_fault({FaultKind::kLinkUp, link, kInvalidNode}))
                .status,
            Status::kOk);
  ServiceRequest repair;
  repair.kind = MsgKind::kRepair;
  const ServiceResponse repaired = core.handle(repair);
  ASSERT_EQ(repaired.status, Status::kOk);
  EXPECT_FALSE(repaired.incremental);

  const auto snap = core.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, repaired.snapshot_version);
  CertificateResult cert;
  ASSERT_NO_THROW(cert = make_certificate(net, snap->table));
  ASSERT_TRUE(cert.ok);
  const CertCheckResult check = check_certificate(net, snap->table, cert.cert);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(ServiceCore, LookupBeforeRouteAndBadIdsAreStructuredErrors) {
  ServiceCore core(make_kary_ntree(4, 2));

  EXPECT_EQ(core.handle(make_lookup(0, 1)).status, Status::kErrNotRouted);
  ServiceRequest repair;
  repair.kind = MsgKind::kRepair;
  EXPECT_EQ(core.handle(repair).status, Status::kErrNotRouted);

  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(core.handle(route).status, Status::kOk);

  const Network& net = core.topo().net;
  const NodeId a_switch = net.switches().front();
  const NodeId a_terminal = net.terminals().front();
  EXPECT_EQ(core.handle(make_lookup(a_terminal, a_terminal)).status,
            Status::kErrBadArgument);
  EXPECT_EQ(core.handle(make_lookup(a_switch, a_switch)).status,
            Status::kErrBadArgument);
  EXPECT_EQ(core.handle(make_lookup(1u << 30, a_terminal)).status,
            Status::kErrBadArgument);
  EXPECT_EQ(core.handle(make_lookup(a_switch, a_terminal)).status,
            Status::kOk);

  // A fault event on a terminal injection/ejection channel is rejected at
  // enqueue time — it would otherwise throw inside the next repair's
  // ChurnEngine batch and take the daemon down.
  FaultEvent bad;
  bad.kind = FaultKind::kLinkDown;
  bad.channel = net.injection_channel(a_terminal);
  EXPECT_EQ(core.handle(make_fault(bad)).status, Status::kErrBadArgument);
  bad.channel = 1u << 30;
  EXPECT_EQ(core.handle(make_fault(bad)).status, Status::kErrBadArgument);
}

// service/errors counts every non-ok reply; service/errors/<status> splits
// it, so a client probing node types (bad_argument) stays apart from the
// failures an operator must see. A status that never occurs has no key.
TEST(ServiceCore, ErrorsAreCountedPerStatus) {
  const obs::Snapshot before = obs::registry().snapshot();
  ServiceCore core(make_kary_ntree(4, 2));

  EXPECT_EQ(core.handle(make_lookup(0, 1)).status, Status::kErrNotRouted);
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(core.handle(route).status, Status::kOk);
  const Network& net = core.topo().net;
  const NodeId a_switch = net.switches().front();
  const NodeId a_terminal = net.terminals().front();
  for (int probe = 0; probe < 3; ++probe) {
    EXPECT_EQ(core.handle(make_lookup(a_terminal, a_terminal)).status,
              Status::kErrBadArgument);
  }
  EXPECT_EQ(core.handle(make_lookup(a_switch, a_terminal)).status,
            Status::kOk);
  core.begin_drain();
  EXPECT_EQ(core.handle(make_lookup(a_switch, a_terminal)).status,
            Status::kErrDraining);

  const obs::Snapshot after = obs::registry().snapshot();
  const obs::Snapshot snap = obs::snapshot_delta(after, before);
  EXPECT_EQ(snap.at("service/errors").value, 5u);
  EXPECT_EQ(snap.at("service/errors/not_routed").value, 1u);
  EXPECT_EQ(snap.at("service/errors/bad_argument").value, 3u);
  EXPECT_EQ(snap.at("service/errors/draining").value, 1u);
  // No reply is ever counted as an ok error, in any test of the process.
  EXPECT_EQ(after.count("service/errors/ok"), 0u);
  // Another test in the process may fail a route; this one fails none.
  const auto failed = snap.find("service/errors/route_failed");
  EXPECT_TRUE(failed == snap.end() || failed->second.value == 0u);
}

TEST(ServiceCore, LookupDuringRepairSeesOldOrNewSnapshotNeverTorn) {
  Topology served = make_kary_ntree(4, 2);
  Topology mirror = served;

  ServiceCore core(std::move(served));
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(core.handle(route).status, Status::kOk);

  // Reference tables for generation 1 (pre-repair) and generation 2
  // (post-repair), computed in-process on the identical twin.
  IncrementalDfsssp engine;
  const RouteResponse before = engine.route(RouteRequest(mirror));
  ASSERT_TRUE(before.ok);
  ChurnEngine churn(mirror);
  const FaultSchedule kills =
      FaultSchedule::link_kills(mirror.net, 3, 0xBEEF);
  ASSERT_FALSE(kills.empty());
  const ChurnDelta delta = churn.apply_all(std::span<const FaultEvent>(
      kills.events().data(), kills.size()));
  const RouteResponse after = engine.repair(RouteRequest(mirror), delta);
  ASSERT_TRUE(after.ok);

  const std::vector<NodeId> switches(mirror.net.switches().begin(),
                                     mirror.net.switches().end());
  const std::vector<NodeId> terminals(mirror.net.terminals().begin(),
                                      mirror.net.terminals().end());

  // Hammer lookups from several threads while the repair runs. Every
  // response must match generation 1's or generation 2's reference table
  // at exactly the version it reports — a torn read would mismatch.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::size_t si = static_cast<std::size_t>(r);
      std::size_t ti = static_cast<std::size_t>(r) * 3;
      while (!stop.load(std::memory_order_relaxed)) {
        const NodeId sw = switches[si % switches.size()];
        const NodeId dst = terminals[ti % terminals.size()];
        const ServiceResponse resp = core.handle(make_lookup(sw, dst));
        if (resp.status == Status::kOk) {
          const RoutingTable& expect =
              resp.snapshot_version == 1 ? before.table : after.table;
          if (resp.snapshot_version > 2 ||
              resp.next_channel != expect.next(sw, dst) ||
              resp.layer != expect.layer(sw, dst)) {
            torn.fetch_add(1);
          }
          checked.fetch_add(1);
        }
        ++si;
        ++ti;
      }
    });
  }

  // Let the readers chew on generation 1 first, then drive the same fault
  // batch + repair through the core mid-hammering.
  while (checked.load() < 200) std::this_thread::yield();
  for (const FaultEvent& e : kills) {
    ASSERT_EQ(core.handle(make_fault(e)).status, Status::kOk);
  }
  ServiceRequest repair;
  repair.kind = MsgKind::kRepair;
  const ServiceResponse repaired = core.handle(repair);
  ASSERT_EQ(repaired.status, Status::kOk);
  EXPECT_EQ(repaired.snapshot_version, 2u);

  // And let them observe generation 2 too before stopping.
  const std::uint64_t seen_before_swap = checked.load();
  while (checked.load() < seen_before_swap + 200) std::this_thread::yield();
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
}

// ------------------------------------------------------------- pipe server

/// Client half of a socketpair conversation with a Server::run_pipe loop.
struct PipeHarness {
  std::unique_ptr<ServiceCore> core;
  std::thread server_thread;
  int client_fd = -1;
  int exit_code = -1;

  explicit PipeHarness(Topology topo) {
    core = std::make_unique<ServiceCore>(std::move(topo));
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client_fd = fds[1];
    const int server_fd = fds[0];
    server_thread = std::thread([this, server_fd] {
      ServerOptions so;
      so.in_fd = server_fd;
      so.out_fd = server_fd;
      Server server(*core, so);
      exit_code = server.run_pipe();
      ::close(server_fd);
    });
  }

  ~PipeHarness() {
    if (client_fd >= 0) ::close(client_fd);
    if (server_thread.joinable()) server_thread.join();
  }

  ServiceResponse call(const ServiceRequest& req) {
    EXPECT_TRUE(write_frame(client_fd, encode_request(req)));
    return read_response();
  }

  ServiceResponse read_response() {
    std::string payload;
    EXPECT_EQ(read_frame(client_fd, payload), FrameResult::kFrame);
    ServiceResponse resp;
    EXPECT_EQ(decode_response(payload, resp), Status::kOk);
    return resp;
  }
};

TEST(ServicePipe, EndToEndDeterministicTablesAndErrors) {
  Topology served = make_kary_ntree(4, 2);
  const Topology reference_topo = served;
  PipeHarness pipe(std::move(served));

  // Route, then spot-check the daemon's forwarding answers against the
  // in-process engine — bitwise, for the full table.
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  route.request_id = 1;
  const ServiceResponse routed = pipe.call(route);
  ASSERT_EQ(routed.status, Status::kOk);
  EXPECT_EQ(routed.request_id, 1u);

  IncrementalDfsssp engine;
  const RouteResponse direct = engine.route(RouteRequest(reference_topo));
  ASSERT_TRUE(direct.ok);
  for (NodeId sw : reference_topo.net.switches()) {
    for (NodeId dst : reference_topo.net.terminals()) {
      const ServiceResponse resp = pipe.call(make_lookup(sw, dst));
      ASSERT_EQ(resp.status, Status::kOk);
      ASSERT_EQ(resp.next_channel, direct.table.next(sw, dst));
      ASSERT_EQ(resp.layer, direct.table.layer(sw, dst));
    }
  }

  // A garbage frame gets a structured error, and the connection survives.
  ASSERT_TRUE(write_frame(pipe.client_fd, "garbage"));
  EXPECT_EQ(pipe.read_response().status, Status::kErrMalformed);

  // An oversized frame too (without actually shipping a gigabyte: length
  // prefix of kMaxFramePayload + 1, then that many zero bytes).
  const std::string oversized(kMaxFramePayload + 1, '\0');
  ASSERT_TRUE(write_frame(pipe.client_fd, oversized));
  EXPECT_EQ(pipe.read_response().status, Status::kErrOversized);

  // Still serving after both errors.
  ServiceRequest info;
  info.kind = MsgKind::kSnapshotInfo;
  EXPECT_EQ(pipe.call(info).status, Status::kOk);

  // Shutdown: ok, then draining for the next request, then clean exit 0.
  ServiceRequest shutdown;
  shutdown.kind = MsgKind::kShutdown;
  EXPECT_EQ(pipe.call(shutdown).status, Status::kOk);
  EXPECT_EQ(pipe.call(info).status, Status::kErrDraining);

  ::close(pipe.client_fd);
  pipe.client_fd = -1;
  pipe.server_thread.join();
  EXPECT_EQ(pipe.exit_code, 0);
}

TEST(ServicePipe, StatsAndInfoCarryServiceMetrics) {
  PipeHarness pipe(make_kary_ntree(4, 2));

  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(pipe.call(route).status, Status::kOk);

  ServiceRequest stats;
  stats.kind = MsgKind::kStats;
  const ServiceResponse got = pipe.call(stats);
  ASSERT_EQ(got.status, Status::kOk);
  // The registry is process-wide, so earlier tests may have counted too.
  const obs::JsonValue doc = obs::JsonValue::parse(got.stats_json);
  EXPECT_GE(doc.at("metrics").at("service/requests").as_uint(), 1u);
  EXPECT_GE(doc.at("metrics").at("service/snapshot_swaps").as_uint(), 1u);
  const obs::JsonValue& route_ns =
      doc.at("timing_metrics").at("service/route_ns");
  EXPECT_GE(route_ns.at("count").as_uint(), 1u);
  EXPECT_EQ(route_ns.at("counts").size(), route_ns.at("edges").size() + 1);

  ServiceRequest info;
  info.kind = MsgKind::kSnapshotInfo;
  const ServiceResponse i = pipe.call(info);
  ASSERT_EQ(i.status, Status::kOk);
  EXPECT_EQ(i.engine, "dfsssp");
  EXPECT_EQ(i.snapshot_version, 1u);
  EXPECT_EQ(i.switches, pipe.core->topo().net.num_switches());
  EXPECT_EQ(i.terminals, pipe.core->topo().net.num_terminals());
  // Satellite: process identity rides along on snapshot_info.
  EXPECT_GT(i.uptime_ns, 0u);
  EXPECT_GT(i.peak_rss_bytes, 0u);

  // Satellite: the stats JSON folds in latency quantiles per request kind
  // and the process section.
  const ServiceResponse stats2 = pipe.call(stats);
  ASSERT_EQ(stats2.status, Status::kOk);
  const obs::JsonValue doc2 = obs::JsonValue::parse(stats2.stats_json);
  const obs::JsonValue& latency = doc2.at("latency");
  ASSERT_EQ(latency.size(), 3u);
  for (const char* kind : {"lookup", "route", "repair"}) {
    const obs::JsonValue& k = latency.at(kind);
    for (const char* field :
         {"count", "p50_ns", "p90_ns", "p99_ns", "max_ns"}) {
      EXPECT_TRUE(k.at(field).is_integer()) << kind << "." << field;
    }
  }
  EXPECT_GE(latency.at("route").at("count").as_uint(), 1u);
  EXPECT_GT(latency.at("route").at("p99_ns").as_uint(), 0u);
  EXPECT_GT(doc2.at("process").at("uptime_ns").as_uint(), 0u);
  EXPECT_GT(doc2.at("process").at("peak_rss_bytes").as_uint(), 0u);
}

// -------------------------------------------------------- flight recorder

TEST(ServiceEnvelope, JournalKindsRoundTripTheWire) {
  ServiceRequest tail;
  tail.kind = MsgKind::kJournalTail;
  tail.request_id = 21;
  tail.journal_from_seq = 17;
  tail.journal_max = 256;
  tail.journal_kind = 5;
  ServiceRequest req_out;
  ASSERT_EQ(decode_request(encode_request(tail), req_out), Status::kOk);
  EXPECT_EQ(req_out.kind, MsgKind::kJournalTail);
  EXPECT_EQ(req_out.journal_from_seq, 17u);
  EXPECT_EQ(req_out.journal_max, 256u);
  EXPECT_EQ(req_out.journal_kind, 5u);

  ServiceResponse records;
  records.kind = MsgKind::kJournalTail;
  records.request_id = 21;
  records.journal_next_seq = 19;
  obs::journal::Record rec;
  rec.seq = 17;
  rec.logical_ts = 9;
  rec.kind = obs::journal::EventKind::kSnapshotSwap;
  rec.version_before = 3;
  rec.version_after = 4;
  rec.paths = 1234;
  rec.table_digest = 0xABCDEF0123456789ULL;
  records.journal_records = {rec, rec};
  records.journal_records[1].seq = 18;
  ServiceResponse resp_out;
  ASSERT_EQ(decode_response(encode_response(records), resp_out), Status::kOk);
  EXPECT_EQ(resp_out.journal_next_seq, 19u);
  ASSERT_EQ(resp_out.journal_records.size(), 2u);
  EXPECT_EQ(resp_out.journal_records[0].seq, 17u);
  EXPECT_EQ(resp_out.journal_records[1].seq, 18u);
  EXPECT_EQ(resp_out.journal_records[0].table_digest, 0xABCDEF0123456789ULL);
  EXPECT_EQ(resp_out.journal_records[0].kind,
            obs::journal::EventKind::kSnapshotSwap);

  ServiceResponse stats;
  stats.kind = MsgKind::kJournalStats;
  stats.journal_stats.next_seq = 7;
  stats.journal_stats.appended = 6;
  stats.journal_stats.dropped = 0;
  stats.journal_stats.size = 6;
  stats.journal_stats.capacity = 8192;
  stats.journal_stats.by_kind[5] = 2;
  stats.journal_stats.disk_bytes = 609;
  stats.journal_stats.sink_open = true;
  stats.journal_stats.sink_path = "/tmp/j.dfjr";
  ASSERT_EQ(decode_response(encode_response(stats), resp_out), Status::kOk);
  EXPECT_EQ(resp_out.journal_stats.next_seq, 7u);
  EXPECT_EQ(resp_out.journal_stats.by_kind[5], 2u);
  EXPECT_EQ(resp_out.journal_stats.disk_bytes, 609u);
  EXPECT_TRUE(resp_out.journal_stats.sink_open);
  EXPECT_EQ(resp_out.journal_stats.sink_path, "/tmp/j.dfjr");
}

/// Route + a fault batch + repair, all through `handle` — the canonical
/// journaled mutation sequence the recorder tests replay below.
void drive_mutations(ServiceCore& core) {
  ServiceRequest route;
  route.kind = MsgKind::kRoute;
  ASSERT_EQ(core.handle(route).status, Status::kOk);

  const FaultSchedule schedule =
      FaultSchedule::random(core.topo().net, {.num_events = 6}, 0xD1CE);
  ASSERT_FALSE(schedule.empty());
  for (const FaultEvent& e : schedule) {
    ASSERT_EQ(core.handle(make_fault(e)).status, Status::kOk);
  }
  ServiceRequest repair;
  repair.kind = MsgKind::kRepair;
  ASSERT_EQ(core.handle(repair).status, Status::kOk);
}

TEST(ServiceJournal, MutationsFlowThroughTheRecorder) {
  ServiceCoreOptions options;
  options.journal = true;
  options.journal_config = "kary-tree:4:2";
  ServiceCore core(make_kary_ntree(4, 2), options);
  ASSERT_NE(core.journal(), nullptr);
  drive_mutations(core);

  // journal_stats over the envelope: route, repair, fault events, batch,
  // and two snapshot swaps (route's and the repair's).
  ServiceRequest jstats;
  jstats.kind = MsgKind::kJournalStats;
  const ServiceResponse stats = core.handle(jstats);
  ASSERT_EQ(stats.status, Status::kOk);
  const auto& s = stats.journal_stats;
  EXPECT_EQ(s.by_kind[1], 1u);  // route
  EXPECT_EQ(s.by_kind[2], 1u);  // repair
  EXPECT_EQ(s.by_kind[3], 6u);  // fault events
  EXPECT_EQ(s.by_kind[4], 1u);  // coalesced batch
  EXPECT_EQ(s.by_kind[5], 2u);  // snapshot swaps
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_FALSE(s.sink_open);

  // journal_tail streams the ring in seq order; the lookup path (not a
  // mutation) must not have added records.
  ServiceRequest jtail;
  jtail.kind = MsgKind::kJournalTail;
  jtail.journal_from_seq = 1;
  const ServiceResponse tail = core.handle(jtail);
  ASSERT_EQ(tail.status, Status::kOk);
  ASSERT_EQ(tail.journal_records.size(), s.appended);
  EXPECT_EQ(tail.journal_next_seq, s.appended + 1);
  for (std::size_t i = 0; i < tail.journal_records.size(); ++i) {
    EXPECT_EQ(tail.journal_records[i].seq, i + 1);
  }
  // Filtered tail: only snapshot swaps, with strictly increasing versions.
  jtail.journal_kind = 5;
  const ServiceResponse swaps = core.handle(jtail);
  ASSERT_EQ(swaps.status, Status::kOk);
  ASSERT_EQ(swaps.journal_records.size(), 2u);
  EXPECT_EQ(swaps.journal_records[0].version_after, 1u);
  EXPECT_EQ(swaps.journal_records[1].version_after, 2u);
  EXPECT_NE(swaps.journal_records[0].table_digest,
            swaps.journal_records[1].table_digest);

  // stats holds everything the core counted: its own requests, the
  // engine's Dijkstra and gauges, and the certificate walks behind the
  // recorder's digests.
  ServiceRequest stats_req;
  stats_req.kind = MsgKind::kStats;
  const ServiceResponse metrics = core.handle(stats_req);
  ASSERT_EQ(metrics.status, Status::kOk);
  const obs::JsonValue doc = obs::JsonValue::parse(metrics.stats_json);
  for (const char* key : {"service/requests", "sssp/heap_pops",
                          "fault/active_paths", "certificate/walk_hops"}) {
    const obs::JsonValue* v = doc.at("metrics").find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_GT(v->as_uint(), 0u) << key;
  }
}

TEST(ServiceJournal, DisabledJournalIsAStructuredError) {
  ServiceCore core(make_kary_ntree(4, 2));
  EXPECT_EQ(core.journal(), nullptr);

  ServiceRequest jtail;
  jtail.kind = MsgKind::kJournalTail;
  EXPECT_EQ(core.handle(jtail).status, Status::kErrBadArgument);
  ServiceRequest jstats;
  jstats.kind = MsgKind::kJournalStats;
  EXPECT_EQ(core.handle(jstats).status, Status::kErrBadArgument);
}

TEST(ServiceJournal, ReplayReproducesTheJournalBitExactly) {
  const std::string path =
      std::string(::testing::TempDir()) + "service_replay.dfjr";
  std::remove(path.c_str());

  {
    ServiceCoreOptions options;
    options.journal = true;
    options.journal_path = path;
    options.journal_config = "kary-tree:4:2";
    ServiceCore core(make_kary_ntree(4, 2), options);
    drive_mutations(core);
    ASSERT_TRUE(core.journal()->sink_ok()) << core.journal()->error();
  }  // core destroyed: the segment is closed and complete

  obs::journal::JournalFile file;
  std::string error;
  ASSERT_TRUE(obs::journal::read_journal(path, file, error)) << error;
  EXPECT_EQ(file.topo_config, "kary-tree:4:2");
  EXPECT_EQ(file.engine, "dfsssp");
  ASSERT_GE(file.records.size(), 10u);  // 1+6+1 triggers + batch + 2 swaps

  // A fresh core replays the recorded mutations and must emit the very
  // same records — digests, versions, layer counts, seq numbering.
  const auto target = make_inprocess_target(file);
  const obs::Snapshot before = obs::registry().snapshot();
  const ReplayResult result = replay_journal(file, *target, true);
  EXPECT_TRUE(result.error.empty()) << result.error;
  for (const ReplayMismatch& m : result.mismatches) {
    ADD_FAILURE() << "ts=" << m.logical_ts << ": " << m.detail;
  }
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.transactions, 8u);  // route + 6 faults + repair
  EXPECT_EQ(result.records_checked, file.records.size());
  EXPECT_EQ(result.generations, 2u);
  // The replaying core counts into the process registry like any other
  // core: one request per replayed transaction.
  const obs::Snapshot delta =
      obs::snapshot_delta(obs::registry().snapshot(), before);
  EXPECT_EQ(delta.at("service/requests").value, result.transactions);
  std::remove(path.c_str());
}

TEST(ServiceJournal, ReplayDetectsTamperedRecords) {
  const std::string path =
      std::string(::testing::TempDir()) + "service_tampered.dfjr";
  std::remove(path.c_str());
  {
    ServiceCoreOptions options;
    options.journal = true;
    options.journal_path = path;
    options.journal_config = "kary-tree:4:2";
    ServiceCore core(make_kary_ntree(4, 2), options);
    drive_mutations(core);
  }

  obs::journal::JournalFile file;
  std::string error;
  ASSERT_TRUE(obs::journal::read_journal(path, file, error)) << error;

  // Corrupt a recorded digest in memory: verification must flag exactly
  // that transaction instead of passing or erroring out.
  for (obs::journal::Record& r : file.records) {
    if (r.kind == obs::journal::EventKind::kSnapshotSwap) {
      r.table_digest ^= 1;
      break;
    }
  }
  const auto target = make_inprocess_target(file);
  const ReplayResult result = replay_journal(file, *target, true);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.mismatches.empty());
  EXPECT_NE(result.mismatches.front().detail.find("table_digest"),
            std::string::npos);
  std::remove(path.c_str());
}

// A switch whose links all go down while it is dead would rejoin the
// fabric isolated. The daemon's batch vetoes the revival, journals the
// veto, and publishes a repaired table; the journal replays bit for bit.
TEST(ServiceCore, IsolatedSwitchRevivalIsVetoed) {
  const std::string path =
      std::string(::testing::TempDir()) + "service_isolated.dfjr";
  std::remove(path.c_str());
  {
    ServiceCoreOptions options;
    options.journal = true;
    options.journal_path = path;
    options.journal_config = "kary-tree:4:2";
    ServiceCore core(make_kary_ntree(4, 2), options);
    const Network& net = core.topo().net;
    ServiceRequest route;
    route.kind = MsgKind::kRoute;
    ASSERT_EQ(core.handle(route).status, Status::kOk);

    const NodeId sw = net.switch_by_index(0);
    std::vector<ChannelId> links;
    for (ChannelId c : net.out_channels_all(sw)) {
      if (net.is_switch_channel(c)) links.push_back(c);
    }
    ASSERT_EQ(core.handle(make_fault({FaultKind::kSwitchDown,
                                      kInvalidChannel, sw}))
                  .status,
              Status::kOk);
    for (ChannelId c : links) {
      ASSERT_EQ(
          core.handle(make_fault({FaultKind::kLinkDown, c, kInvalidNode}))
              .status,
          Status::kOk);
    }
    ASSERT_EQ(
        core.handle(make_fault({FaultKind::kSwitchUp, kInvalidChannel, sw}))
            .status,
        Status::kOk);
    ServiceRequest repair;
    repair.kind = MsgKind::kRepair;
    const ServiceResponse repaired = core.handle(repair);
    ASSERT_EQ(repaired.status, Status::kOk) << repaired.error;
    EXPECT_FALSE(net.switch_up(sw));
    EXPECT_TRUE(net.alive_connected());

    ServiceRequest jtail;
    jtail.kind = MsgKind::kJournalTail;
    jtail.journal_from_seq = 1;
    jtail.journal_kind =
        static_cast<std::uint8_t>(obs::journal::EventKind::kVeto);
    const ServiceResponse vetoes = core.handle(jtail);
    ASSERT_EQ(vetoes.status, Status::kOk);
    ASSERT_EQ(vetoes.journal_records.size(), 1u);
    EXPECT_EQ(vetoes.journal_records[0].count, 1u);
    ASSERT_TRUE(core.journal()->sink_ok()) << core.journal()->error();
  }

  obs::journal::JournalFile file;
  std::string error;
  ASSERT_TRUE(obs::journal::read_journal(path, file, error)) << error;
  const auto target = make_inprocess_target(file);
  const ReplayResult result = replay_journal(file, *target, true);
  EXPECT_TRUE(result.error.empty()) << result.error;
  for (const ReplayMismatch& m : result.mismatches) {
    ADD_FAILURE() << "ts=" << m.logical_ts << ": " << m.detail;
  }
  EXPECT_TRUE(result.ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dfsssp::service
