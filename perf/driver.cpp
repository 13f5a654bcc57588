// perf_driver: one benchmark workload per process.
//
//   perf_driver --workload=offline|online|serve --seed=N --seconds=S
//               --trace=0|1 [--dfrouted=PATH --run-dir=DIR]
//
// Prints deterministic work counts and percentile sample counts, then one
// JSON line {"correct", "attempted", "failed", "metrics"} as the last line
// of standard output. Exits 0 only when every operation succeeded and every
// answer matched the benchmark's own copy of the inputs. perf/run.py builds
// this binary, pins it to one CPU and is the command users run.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "obs/rusage.hpp"

namespace perf {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::count(const std::string& name, std::uint64_t value) {
  counts_.push_back({name, value});
}

void Report::attempt(bool ok, std::string_view what, std::string_view detail) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 10) {
    failures_.push_back(std::string(what) +
                        (detail.empty() ? "" : ": " + std::string(detail)));
  }
}

double Report::percentile(const std::string& name,
                          const std::vector<double>& samples, double q) {
  return guarded(name, perf::percentile(samples, q));
}

double Report::percentile_us(const std::string& name,
                             const NsHistogram& samples, double q) {
  return guarded(name, samples.percentile_ns(q)) * 1e-3;
}

double Report::guarded(const std::string& name, const Percentile& p) {
  char line[160];
  std::snprintf(line, sizeof line, "percentile %s samples=%zu beyond=%zu%s",
                name.c_str(), p.samples, p.beyond,
                p.ok ? "" : " REFUSED (fewer than 10 samples beyond it)");
  lines_.emplace_back(line);
  attempt(p.ok, "percentile refused", name);
  return p.value;
}

int Report::finish() const {
  for (const auto& [name, value] : counts_) {
    std::printf("count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const std::string& why : failures_) {
    std::printf("failure %s\n", why.c_str());
  }
  std::printf("error_rate %.6g (%llu of %llu operations failed)\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const auto& [name, vu] : metrics_) {
    finite = finite && std::isfinite(vu.first);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    if (!body.empty()) body += ", ";
    body += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  const bool correct = failed_ == 0 && attempted_ > 0 && finite;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double now_s() { return static_cast<double>(dfsssp::Timer::now_ns()) * 1e-9; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

dfsssp::FaultSchedule deimos_fault_schedule(const dfsssp::Network& net,
                                            std::uint64_t seed,
                                            std::uint32_t repairs) {
  dfsssp::FaultScheduleOptions options;
  options.num_events =
      static_cast<std::uint32_t>(repairs * kEventsPerRepair);
  options.switch_down_weight = 0;
  options.switch_up_weight = 0;
  return dfsssp::FaultSchedule::random(net, options,
                                       derive_seed(seed, 0xFA17));
}

std::pair<dfsssp::NodeId, dfsssp::NodeId> lookup_pair(
    const dfsssp::Network& net, std::uint64_t k) {
  const std::size_t terminals = net.num_terminals();
  return {net.switch_by_index(
              static_cast<std::uint32_t>((k / terminals) % net.num_switches())),
          net.terminal_by_index(static_cast<std::uint32_t>(k % terminals))};
}

bool lookup_answer_ok(const dfsssp::Network& net, dfsssp::NodeId src,
                      dfsssp::NodeId dst, bool ejected,
                      dfsssp::ChannelId next) {
  const bool local = net.switch_of(dst) == src;
  if (ejected || local) return ejected && local;
  return next < net.num_channels() && net.channel(next).src == src;
}

double own_peak_rss_mib() {
  return static_cast<double>(dfsssp::obs::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

}  // namespace perf

int main(int argc, char** argv) {
  dfsssp::Cli cli(argc, argv);
  perf::Args args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  args.seconds = static_cast<double>(cli.get_int("seconds", 10));
  args.trace = cli.get_int("trace", 0) != 0;
  args.dfrouted = cli.get("dfrouted", "");
  args.run_dir = cli.get("run-dir", ".");
  if (args.seconds < 1.0) args.seconds = 1.0;

  perf::Report report;
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  try {
    if (args.workload == "offline") {
      perf::run_sweep(args, dfsssp::LayeringMode::kOffline, report);
    } else if (args.workload == "online") {
      perf::run_sweep(args, dfsssp::LayeringMode::kOnline, report);
    } else if (args.workload == "serve") {
      if (args.dfrouted.empty()) {
        std::fprintf(stderr, "perf_driver: serve needs --dfrouted=PATH\n");
        return 2;
      }
      perf::run_serve(args, report);
    } else {
      std::fprintf(stderr,
                   "usage: perf_driver --workload=offline|online|serve "
                   "--seed=N --seconds=S --trace=0|1\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_driver: %s\n", e.what());
    return 1;
  }
  return report.finish();
}
