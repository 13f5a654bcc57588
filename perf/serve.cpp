// The serve workload: the real dfrouted daemon on Deimos (engine dfsssp,
// 8 VLs, journal off), spawned by the benchmark and driven over its unix
// socket. A read phase of closed-loop lookups on one connection, then a
// write phase of fault batches and repairs on a second one: the only
// workload through the service transport and incremental repair, and one
// that never runs Algorithm 2 or make_certificate inside the program.
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "bench.hpp"
#include "cdg/cdg.hpp"
#include "common/frame.hpp"
#include "common/rng.hpp"
#include "fault/incremental.hpp"
#include "fault/schedule.hpp"
#include "obs/report/json_value.hpp"
#include "routing/collect.hpp"
#include "service/core.hpp"
#include "service/envelope.hpp"
#include "sim/congestion.hpp"
#include "topology/configs.hpp"

namespace perf {
namespace {

using namespace dfsssp;
using namespace dfsssp::service;

constexpr int kSetupRepeats = 3;
constexpr int kRounds = 4;
constexpr int kRoutesPerRound = 2;  // route_s: median of 3 + 4 x 2 routes
constexpr Layer kDaemonLayers = 8;  // dfrouted's default budget
constexpr double kReadShare = 0.75;  // of --seconds, for the lookups
// Twice the minimum: layer overflows that force a full recompute come at a
// seed-dependent rate, and the sum and p90 over 200 repairs vary less.
constexpr std::uint32_t kServeRepairs = 2 * kRepairs;
constexpr std::size_t kReplicaLookups = 20000;

/// One spawned dfrouted. The destructor stops and reaps it on every path,
/// so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket_path)
      : socket_(std::move(socket_path)) {
    ::unlink(socket_.c_str());
    const std::string topo = "--topo=deimos";
    const std::string sock = "--socket=" + socket_;
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
      char* argv[] = {const_cast<char*>(binary.c_str()),
                      const_cast<char*>(topo.c_str()),
                      const_cast<char*>(sock.c_str()), nullptr};
      ::execv(binary.c_str(), argv);
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(/*signal_first=*/true); }

  /// Connects, retrying until the daemon accepts (30 s limit).
  int connect_retry() const {
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
      const int fd = try_connect();
      if (fd >= 0) return fd;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("dfrouted exited before accepting");
      }
      ::usleep(200);
    }
    throw std::runtime_error("dfrouted did not accept within 30 s");
  }

  /// Reaps the daemon after a shutdown request: waits up to 10 s for the
  /// drain, then kills it. `signal_first` sends SIGTERM at once instead
  /// (the error path, where no shutdown request was sent).
  void stop(bool signal_first = false) {
    if (pid_ <= 0) return;
    if (signal_first) ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 10000 && pid_ > 0; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        exited_cleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = 0;
      } else {
        ::usleep(1000);
      }
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = 0;
    }
    ::unlink(socket_.c_str());
  }
  bool exited_cleanly() const { return exited_cleanly_; }

 private:
  int try_connect() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_);
    }
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::string socket_;
  pid_t pid_ = 0;
  bool exited_cleanly_ = false;
};

/// One closed-loop request/response. Throws on transport failure.
ServiceResponse exchange(int fd, const ServiceRequest& req) {
  ServiceResponse resp;
  std::string payload;
  if (!write_frame(fd, encode_request(req)) ||
      read_frame(fd, payload) != FrameResult::kFrame ||
      decode_response(payload, resp) != Status::kOk) {
    throw std::runtime_error(std::string("transport failure on ") +
                             to_string(req.kind));
  }
  return resp;
}

ServiceRequest request(MsgKind kind, std::uint64_t id) {
  ServiceRequest r;
  r.kind = kind;
  r.request_id = id;
  return r;
}

std::uint64_t stat(const obs::JsonValue& metrics, const char* name) {
  const obs::JsonValue* v = metrics.find(name);
  return v != nullptr && v->is_number() ? v->as_uint() : 0;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const double g0 = now_s();
  const Topology deimos = build_topology_config("deimos");
  const double generate_s = now_s() - g0;
  const Network& net = deimos.net;
  std::uint64_t id = 0;

  // Set-up, kSetupRepeats times: spawn -> first accepted connect -> route
  // answered. The last daemon stays up for the measured phases.
  std::vector<double> setups, spawns, route_s;
  std::unique_ptr<Daemon> daemon;
  int fd = -1;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (daemon) {
      exchange(fd, request(MsgKind::kShutdown, ++id));
      ::close(fd);
      daemon->stop();
      report.attempt(daemon->exited_cleanly(), "dfrouted did not drain");
    }
    const std::string socket_path = args.run_dir + "/dfr-" +
                                    std::to_string(::getpid()) + "-" +
                                    std::to_string(k) + ".sock";
    const double t0 = now_s();
    daemon = std::make_unique<Daemon>(args.dfrouted, socket_path);
    fd = daemon->connect_retry();
    const double t1 = now_s();
    const ServiceResponse r = exchange(fd, request(MsgKind::kRoute, ++id));
    const double t2 = now_s();
    report.attempt(r.status == Status::kOk, "route", r.error);
    setups.push_back(t2 - t0);
    spawns.push_back(t1 - t0);
    route_s.push_back(static_cast<double>(r.elapsed_ns) * 1e-9);
  }
  // The measured part: kRounds rounds, each a few from-scratch routes and
  // a burst of closed-loop lookups on the set-up connection, then a slice
  // of the fault history on a second connection. Reads and writes never
  // overlap; alternating them spreads every metric's samples over the run,
  // so a few seconds of contention on a shared host move all of them a
  // little instead of one of them a lot. Link churn keeps every switch and
  // terminal alive, so the structural lookup check holds after repairs.
  // The first walk over every (switch, terminal) pair, made before any
  // fault, also rebuilds the served table for the certificate below.
  const FaultSchedule schedule =
      deimos_fault_schedule(net, args.seed, kServeRepairs);
  const auto& events = schedule.events();
  const int wfd = daemon->connect_retry();
  RoutingTable served(net);
  const std::uint64_t walk_len = net.num_switches() * net.num_terminals();
  NsHistogram lookup_ns;
  std::vector<double> repair_ms, handle_ms;
  std::uint64_t layers_sum = 0, incremental = 0, k = 0;
  std::size_t next_event = 0;
  double read_s = 0.0, write_s = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kRoutesPerRound; ++i) {
      const ServiceResponse r = exchange(fd, request(MsgKind::kRoute, ++id));
      report.attempt(r.status == Status::kOk, "route", r.error);
      route_s.push_back(static_cast<double>(r.elapsed_ns) * 1e-9);
      if (round == 0) served.set_num_layers(r.layers);
    }
    const double read0 = now_s();
    const double burst = args.seconds * kReadShare / kRounds;
    for (;; ++k) {
      if ((k & 255) == 0 && k >= walk_len && now_s() - read0 >= burst) break;
      const auto [sw, dst] = lookup_pair(net, k);
      ServiceRequest req = request(MsgKind::kLookup, ++id);
      req.src_switch = sw;
      req.dst_terminal = dst;
      const double a = now_s();
      const ServiceResponse r = exchange(fd, req);
      lookup_ns.add_seconds(now_s() - a);
      report.attempt(r.status == Status::kOk && r.request_id == id &&
                         lookup_answer_ok(net, sw, dst, r.ejected,
                                          r.next_channel),
                     "lookup answer does not match the fabric");
      if (k < walk_len) {
        served.set_next(sw, dst, r.next_channel);
        served.set_layer(sw, dst, r.layer);
      }
    }
    read_s += now_s() - read0;

    const double write0 = now_s();
    for (std::uint32_t i = 0; i < kServeRepairs / kRounds &&
                              next_event + kEventsPerRepair <= events.size();
         ++i) {
      for (std::size_t e = next_event; e < next_event + kEventsPerRepair; ++e) {
        ServiceRequest req = request(MsgKind::kFaultEvent, ++id);
        req.fault_kind = static_cast<std::uint8_t>(events[e].kind);
        req.channel = events[e].channel;
        req.sw = events[e].sw;
        const ServiceResponse r = exchange(wfd, req);
        report.attempt(r.status == Status::kOk, "fault_event", r.error);
      }
      next_event += kEventsPerRepair;
      const double a = now_s();
      const ServiceResponse r = exchange(wfd, request(MsgKind::kRepair, ++id));
      repair_ms.push_back((now_s() - a) * 1e3);
      handle_ms.push_back(static_cast<double>(r.elapsed_ns) * 1e-6);
      report.attempt(r.status == Status::kOk, "repair", r.error);
      layers_sum += r.layers;
      incremental += r.incremental ? 1 : 0;
    }
    write_s += now_s() - write0;
  }

  // The served routing must be deadlock-free: certify the rebuilt table
  // here, outside the daemon, and score its eBB.
  const double c0 = now_s();
  const PathSet paths = collect_paths(net, served);
  const double collect_s = now_s() - c0;
  std::vector<std::uint32_t> members(paths.size());
  std::iota(members.begin(), members.end(), 0u);
  const double b0 = now_s();
  const Cdg cdg(paths, members, static_cast<std::uint32_t>(net.num_channels()));
  const double build_s = now_s() - b0;
  const double v0 = now_s();
  const CertificateResult cert = make_certificate(net, served);
  const CertCheckResult check =
      cert.ok ? check_certificate(net, served, cert.cert) : CertCheckResult{};
  const double certify_s = now_s() - v0;
  report.attempt(check.ok, "served table failed certification",
                 check.error);
  const RankMap ranks = RankMap::round_robin(
      net, static_cast<std::uint32_t>(net.num_terminals()));
  Rng rng(derive_seed(args.seed, 0xEBB));
  const double e0 = now_s();
  const double ebb =
      effective_bisection_bandwidth(net, served, ranks, kEbbPatterns, rng).ebb;
  const double ebb_s = now_s() - e0;

  const ServiceResponse info = exchange(wfd, request(MsgKind::kSnapshotInfo, ++id));
  const ServiceResponse stats = exchange(wfd, request(MsgKind::kStats, ++id));
  exchange(wfd, request(MsgKind::kShutdown, ++id));
  ::close(wfd);
  ::close(fd);
  daemon->stop();
  report.attempt(daemon->exited_cleanly(), "dfrouted did not drain");

  report.count("served_paths", paths.size());
  report.count("repairs", repair_ms.size());
  report.count("incremental_repairs", incremental);
  report.count("repair_layers", layers_sum);
  report.count("final_layers", info.layers);

  if (!args.trace) {
    report.metric("setup_s", median(setups), "s");
    report.metric("pass_s", write_s, "s");
    report.metric("route_s", median(route_s), "s");
    report.metric("layers", static_cast<double>(layers_sum), "count");
    report.metric("ebb", ebb, "ratio");
    report.metric("lookups_per_s",
                  static_cast<double>(lookup_ns.count()) / read_s, "1/s");
    report.metric("lookup_p50_us",
                  report.percentile_us("lookup_p50_us", lookup_ns, 0.5), "us");
    report.metric("lookup_p99_us",
                  report.percentile_us("lookup_p99_us", lookup_ns, 0.99),
                  "us");
    report.metric("repair_p50_ms",
                  report.percentile("repair_p50_ms", repair_ms, 0.5), "ms");
    report.metric("repair_p90_ms",
                  report.percentile("repair_p90_ms", repair_ms, 0.9), "ms");
    report.metric("peak_rss_mib",
                  static_cast<double>(info.peak_rss_bytes) / (1024.0 * 1024.0),
                  "MiB");
    return;
  }

  // Traced run. The daemon is a black box, so the split of its routing
  // time comes from an in-process replica of its engine replaying what the
  // last daemon did (its set-up route, then the rounds of routes and fault
  // batches), and the split of a lookup from an in-process ServiceCore
  // answering the same walk without the socket.
  double sssp_s = 0.0, layering_s = 0.0;
  {
    Topology topo = build_topology_config("deimos");
    ChurnEngine churn(topo);
    IncrementalDfsssp engine(IncrementalOptions{.max_layers = kDaemonLayers});
    const auto add = [&](const RouteResponse& r) {
      sssp_s += r.stats.route_seconds;
      layering_s += r.stats.layering_seconds;
    };
    add(engine.route(RouteRequest(topo, kDaemonLayers)));
    std::size_t b = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kRoutesPerRound; ++i) {
        add(engine.route(RouteRequest(topo, kDaemonLayers)));
      }
      for (std::uint32_t i = 0; i < kServeRepairs / kRounds &&
                                b + kEventsPerRepair <= events.size();
           ++i, b += kEventsPerRepair) {
        const ChurnDelta delta = churn.apply_all(
            std::span<const FaultEvent>(&events[b], kEventsPerRepair));
        add(engine.repair(RouteRequest(topo, kDaemonLayers), delta));
      }
    }
  }
  NsHistogram codec_ns, handle_ns;
  {
    ServiceCore core(build_topology_config("deimos"));
    core.handle(request(MsgKind::kRoute, 1));
    for (std::uint64_t k = 0; k < kReplicaLookups; ++k) {
      const auto [sw, dst] = lookup_pair(net, k);
      ServiceRequest req = request(MsgKind::kLookup, k);
      req.src_switch = sw;
      req.dst_terminal = dst;
      const double a = now_s();
      const std::string q = encode_request(req);
      ServiceRequest in;
      decode_request(q, in);
      const double b = now_s();
      const ServiceResponse resp = core.handle(in);
      const double c = now_s();
      const std::string bytes = encode_response(resp);
      ServiceResponse out;
      decode_response(bytes, out);
      const double d = now_s();
      codec_ns.add_seconds((b - a) + (d - c));
      handle_ns.add_seconds(c - b);
    }
  }
  const obs::JsonValue doc = obs::JsonValue::parse(stats.stats_json);
  const obs::JsonValue& m = doc.at("metrics");
  double handle_sum_ms = 0.0;
  for (double h : handle_ms) handle_sum_ms += h;
  // Means, not medians: the in-process parts take tens of nanoseconds,
  // where a median at the clock's 1 ns resolution can repeat exactly.
  const double codec = codec_ns.mean_ns() * 1e-3;
  const double handle = handle_ns.mean_ns() * 1e-3;
  const double round_trip = lookup_ns.mean_ns() * 1e-3;
  std::printf("layer service.spawn_s %.6f\n", median(spawns));
  std::printf("layer service.transport_us %.4f (round trip mean %.4f - codec "
              "%.4f - handle %.4f)\n",
              round_trip - codec - handle, round_trip, codec, handle);

  report.metric("topology.generate_s", generate_s, "s");
  report.metric("topology.channels", static_cast<double>(net.num_channels()),
                "count");
  report.metric("routing.sssp_s", sssp_s, "s");
  report.metric("routing.heap_pops",
                static_cast<double>(stat(m, "sssp/heap_pops")), "count");
  report.metric("routing.collect_s", collect_s, "s");
  report.metric("routing.paths", static_cast<double>(paths.size()), "count");
  report.metric("cdg.build_s", build_s, "s");
  report.metric("cdg.dependencies", static_cast<double>(cdg.num_edges()),
                "count");
  report.metric("cdg.layering_s", layering_s, "s");
  report.metric("cdg.cycles_broken",
                static_cast<double>(stat(m, "cdg/cycles_found")), "count");
  report.metric("cdg.cycle_search_steps",
                static_cast<double>(stat(m, "cdg/cycle_search_steps")),
                "count");
  report.metric("cdg.paths_migrated",
                static_cast<double>(stat(m, "cdg/paths_migrated")), "count");
  report.metric("cdg.acyclicity_checks",
                static_cast<double>(stat(m, "dfsssp/acyclicity_checks")),
                "count");
  report.metric("cdg.pk_reorders",
                static_cast<double>(stat(m, "dfsssp/pk_reorders")), "count");
  report.metric("analysis.certify_s", certify_s, "s");
  report.metric("analysis.deps_checked",
                static_cast<double>(check.deps_checked), "count");
  report.metric("sim.ebb_s", ebb_s, "s");
  report.metric("sim.patterns", kEbbPatterns, "count");
  report.metric("service.route_s", median(route_s), "s");
  report.metric("service.codec_us", codec, "us");
  report.metric("service.lookup_handle_us", handle, "us");
  report.metric("service.lookups", static_cast<double>(lookup_ns.count()),
                "count");
  report.metric("fault.repair_handle_ms",
                report.percentile("fault.repair_handle_ms", handle_ms, 0.5),
                "ms");
  report.metric("fault.repairs", static_cast<double>(stat(m, "fault/repairs")),
                "count");
  report.metric("fault.full_recomputes",
                static_cast<double>(stat(m, "fault/full_recomputes")),
                "count");
  report.metric("fault.destinations_rerouted",
                static_cast<double>(stat(m, "fault/destinations_rerouted")),
                "count");
  report.metric("fault.paths_migrated",
                static_cast<double>(stat(m, "fault/paths_migrated")), "count");
  report.metric("fault.acyclicity_checks",
                static_cast<double>(stat(m, "fault/acyclicity_checks")),
                "count");
  report.metric("trace.pass_s", write_s, "s");
  report.metric("trace.route_s", median(route_s), "s");
  report.metric("trace.attributed_pct", 100.0 * handle_sum_ms * 1e-3 / write_s,
                "%");
}

}  // namespace perf
