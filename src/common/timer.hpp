// Wall-clock timing: the monotonic now_ns() that trace spans (the clock of
// every routing phase, obs/trace.hpp) build on, a Timer for whole-run wall
// time, and a ScopedTimer that records one request's latency into an obs
// histogram (the service's per-request distributions).
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace dfsssp {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last restart.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

  /// Monotonic nanosecond reading (steady clock; epoch is arbitrary but
  /// consistent within the process). Shared timebase of trace spans and
  /// ScopedTimer.
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Times its scope and records the elapsed nanoseconds into an obs timing
/// histogram on destruction, so a request's latency lands in the
/// distribution on every return path.
class ScopedTimer {
 public:
  explicit ScopedTimer(obs::Histogram& hist)
      : hist_(&hist), start_ns_(Timer::now_ns()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  std::uint64_t elapsed_ns() const { return Timer::now_ns() - start_ns_; }

  ~ScopedTimer() { hist_->record(elapsed_ns()); }

 private:
  obs::Histogram* hist_;
  std::uint64_t start_ns_;
};

}  // namespace dfsssp
