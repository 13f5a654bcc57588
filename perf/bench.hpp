// Shared pieces of the benchmark driver: arguments, the run report, and the
// checks every workload applies to the program's answers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fault/schedule.hpp"
#include "routing/dfsssp.hpp"
#include "stats.hpp"
#include "topology/network.hpp"

namespace perf {

struct Args {
  std::string workload;   // offline | online | serve
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measured time budget of the run
  bool trace = false;     // per-layer metrics instead of end-to-end ones
  std::string dfrouted;   // daemon binary (serve)
  std::string run_dir;    // scratch directory for sockets (serve)
};

/// Everything one run prints. Metrics keep insertion order; the last line
/// of standard output is the JSON result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A deterministic work count, printed as `count <name> <value>` so a
  /// change that does different work shows up between runs.
  void count(const std::string& name, std::uint64_t value);
  /// One attempted operation; on failure `what` and `detail` are recorded
  /// (for the first ten). Nothing is allocated on success.
  void attempt(bool ok, std::string_view what, std::string_view detail = {});
  /// Records a percentile with its sample count; a refused percentile
  /// (too few samples beyond it) fails the run.
  double percentile(const std::string& name, const std::vector<double>& samples,
                    double q);
  /// The same for latencies recorded in a histogram; returns microseconds.
  double percentile_us(const std::string& name, const NsHistogram& samples,
                       double q);
  /// Prints the count lines, failures, and the final JSON line. Returns the
  /// process exit code: 0 only when nothing failed.
  int finish() const;

 private:
  double guarded(const std::string& name, const Percentile& p);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
  std::vector<std::string> lines_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Random bisection patterns per eBB score (sim/congestion.hpp).
inline constexpr std::uint32_t kEbbPatterns = 50;

/// Fault churn on Deimos, in batches of kEventsPerRepair fault events, each
/// followed by one repair. kRepairs is the least that leaves ten samples
/// beyond the reported p90.
inline constexpr std::uint32_t kRepairs = 100;
inline constexpr std::size_t kEventsPerRepair = 4;

/// The fault history every workload replays on Deimos: FaultSchedule::random
/// from the benchmark seed, link events only. A from-scratch DfssspRouter
/// refuses a fabric with a dead switch (route_sssp needs every switch
/// reachable), and switch revivals make the daemon fall back to a full
/// recompute at a seed-dependent rate, which spread repair latencies by 3x
/// between seeds; link churn keeps one history for all three workloads.
/// Full recomputes are measured on their own by route_s.
dfsssp::FaultSchedule deimos_fault_schedule(const dfsssp::Network& net,
                                            std::uint64_t seed,
                                            std::uint32_t repairs);

/// Monotonic seconds.
double now_s();

/// A per-purpose seed derived from the benchmark seed (splitmix64), so the
/// inputs of one workload do not shift when another draws more numbers.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// (switch, terminal) of the k-th lookup of a walk over every switch
/// against every terminal, switch-major, repeating.
std::pair<dfsssp::NodeId, dfsssp::NodeId> lookup_pair(
    const dfsssp::Network& net, std::uint64_t k);

/// The lookup contract checked against the benchmark's own copy of the
/// fabric: `ejected` exactly when the destination hangs off `src`,
/// otherwise the next channel leaves `src`.
bool lookup_answer_ok(const dfsssp::Network& net, dfsssp::NodeId src,
                      dfsssp::NodeId dst, bool ejected,
                      dfsssp::ChannelId next);

/// Peak resident set of this process, MiB.
double own_peak_rss_mib();

/// offline / online: the Figure 9 fabric set, then an in-process session
/// on Deimos with the same router.
void run_sweep(const Args& args, dfsssp::LayeringMode mode, Report& report);
/// serve: the real dfrouted daemon on Deimos over its unix socket.
void run_serve(const Args& args, Report& report);

}  // namespace perf
