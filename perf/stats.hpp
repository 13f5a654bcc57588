// Order statistics for the benchmark's reported timings.
//
// A percentile is only reported when at least `kMinBeyond` samples lie
// above it: a p99 over 200 samples is the second-largest sample, which is
// noise, not a tail. The guard makes the benchmark refuse such a number
// instead of printing it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perf {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // samples the percentile was taken over
  std::size_t beyond = 0;   // samples strictly above its rank
  bool ok = false;          // beyond >= kMinBeyond
};

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample. `q` in
/// (0, 1]. Refused (ok == false, value 0) when fewer than `kMinBeyond`
/// samples rank above it.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0) || q > 1.0) return p;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  p.beyond = n - rank;
  if (p.beyond < kMinBeyond) return p;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.ok = true;
  return p;
}

/// Latencies at nanosecond resolution in fixed memory: one counter per
/// nanosecond up to kRangeNs, the rare slower samples kept as they are.
/// Percentiles are exact (nearest rank) and follow the same guard. A long
/// run can record millions of lookups without its own sample storage
/// growing the peak RSS it reports.
class NsHistogram {
 public:
  static constexpr std::size_t kRangeNs = 100000;

  NsHistogram() : counts_(kRangeNs, 0) {}

  void add_seconds(double seconds) {
    const double ns = std::max(0.0, std::round(seconds * 1e9));
    if (ns < static_cast<double>(kRangeNs)) {
      ++counts_[static_cast<std::size_t>(ns)];
    } else {
      slow_.push_back(ns);
    }
    ++count_;
    sum_ns_ += ns;
  }
  std::size_t count() const { return count_; }
  /// Mean in nanoseconds; 0 when empty.
  double mean_ns() const {
    return count_ > 0 ? sum_ns_ / static_cast<double>(count_) : 0.0;
  }

  /// Nearest-rank percentile in nanoseconds, guarded like percentile().
  Percentile percentile_ns(double q) const {
    Percentile p;
    p.samples = count_;
    if (count_ == 0 || !(q > 0.0) || q > 1.0) return p;
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::size_t>(rank, 1, count_);
    p.beyond = count_ - rank;
    if (p.beyond < kMinBeyond) return p;
    std::size_t seen = 0;
    for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
      seen += counts_[ns];
      if (seen >= rank) {
        p.value = static_cast<double>(ns);
        p.ok = true;
        return p;
      }
    }
    std::vector<double> slow = slow_;
    const std::size_t i = rank - seen - 1;
    std::nth_element(slow.begin(), slow.begin() + static_cast<long>(i),
                     slow.end());
    p.value = slow[i];
    p.ok = true;
    return p;
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::vector<double> slow_;
  std::size_t count_ = 0;
  double sum_ns_ = 0.0;
};

/// Middle value (mean of the two middle values for even counts); 0 for an
/// empty set. Used for repeated measurements of the same work, where there
/// is no tail to guard.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perf
