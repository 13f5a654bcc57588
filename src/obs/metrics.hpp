// Deterministic metrics registry: counters, gauges, fixed-bucket histograms.
//
// Instrumented code looks metrics up by name once (function-local static
// reference) and then records through lock-free per-thread shards; readings
// merge the shards in index order. Because counters and histogram buckets
// hold integers and integer addition is associative and commutative, every
// *deterministic* metric reads identically no matter how many threads of the
// PR-1 execution layer produced it — the same contract the parallel layer
// gives result values.
//
// Metrics come in two kinds:
//   * Kind::kDeterministic (default) — derived from the work itself (cycles
//     found, paths migrated, patterns simulated). Thread-count invariant;
//     these feed the `metrics` section of the bench `--json` run reports,
//     which CI diffs across thread counts.
//   * Kind::kTiming — wall-clock or scheduling observations (queue waits,
//     request latencies, pool chunk counts). Inherently run-dependent;
//     exported separately as `timing_metrics` and never diffed.
//
// A work count (Dijkstra pops, cycle-search steps, CDG edge insertions) is
// recorded with Counter::tally(), which also adds it to the profile counter
// of the innermost open span (obs/profile), so the registry total and the
// profile tree read the same numbers. Event counts (requests served, faults
// queued, journal records) use add() and stay out of the profile.
//
// Recording costs one relaxed atomic add on a thread-private cache line, so
// instrumentation stays in the noise even on hot paths; the hot kernels
// additionally aggregate in locals and flush once per pass (see sssp.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dfsssp::obs {

/// Per-thread shard slots per metric. Threads hash onto slots (wrapping
/// beyond kMaxShards); sharing a slot costs contention, never correctness.
inline constexpr std::size_t kMaxShards = 64;

enum class Kind : std::uint8_t {
  kDeterministic,  // thread-count invariant by construction
  kTiming,         // wall-clock / scheduling; varies run to run
};

namespace detail {

/// Stable per-thread shard index in [0, kMaxShards).
std::size_t shard_index();

struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonically increasing count. add() is wait-free on a thread-private
/// slot; value() sums the slots in index order.
class Counter {
 public:
  void add(std::uint64_t n) {
    slots_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// add(n) and, for a Kind::kDeterministic counter, the same n on the
  /// profile counter of this name at the calling thread's innermost open
  /// span — one call records a unit of work in both places. Costs one more
  /// relaxed atomic load than add() while no profiling session is active.
  void tally(std::uint64_t n);

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const detail::Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class Registry;
  Counter(std::string name, Kind kind)
      : name_(std::move(name)), kind_(kind) {}
  std::string name_;
  Kind kind_;
  std::array<detail::Slot, kMaxShards> slots_;
};

/// Last-written value. Unsharded: gauges must be set from serial code (or
/// points that are serial per the determinism contract), where last-write
/// order is well defined.
class Gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;
  std::atomic<std::uint64_t> v_{0};
};

/// Merged reading of a Histogram.
struct HistogramValue {
  /// Ascending inclusive upper bounds; counts[i] tallies values v with
  /// edges[i-1] < v <= edges[i]. counts.back() is the overflow bucket
  /// (v > edges.back()), so counts.size() == edges.size() + 1.
  std::vector<std::uint64_t> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;  // total recorded values
  std::uint64_t sum = 0;    // sum of recorded values
  std::uint64_t max = 0;    // largest recorded value (0 when count == 0)
};

/// Fixed-bucket histogram over unsigned integer samples (counts, sizes,
/// nanoseconds). Bucket edges are fixed at creation, so merged counts are
/// exact integers and thread-count invariant for deterministic workloads.
class Histogram {
 public:
  void record(std::uint64_t v);
  HistogramValue value() const;
  const std::vector<std::uint64_t>& edges() const { return edges_; }

 private:
  friend class Registry;
  explicit Histogram(std::vector<std::uint64_t> edges);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;  // edges + overflow
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };

  std::vector<std::uint64_t> edges_;
  std::array<Shard, kMaxShards> shards_;
};

/// `start, start*factor, start*factor^2, ...` rounded to integers —
/// the usual shape for nanosecond and size histograms.
std::vector<std::uint64_t> exponential_buckets(std::uint64_t start,
                                               double factor, std::size_t n);

/// Quantile estimate from a merged histogram reading: finds the bucket
/// holding the q-th sample and interpolates linearly inside it (overflow
/// bucket reports `max`). Returns 0 when the histogram is empty. q is
/// clamped to [0, 1].
double histogram_quantile(const HistogramValue& h, double q);

/// One metric's merged reading inside a Snapshot.
struct MetricValue {
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram };
  Type type = Type::kCounter;
  Kind kind = Kind::kDeterministic;
  std::uint64_t value = 0;  // counter / gauge reading
  HistogramValue hist;      // histogram reading
};

/// Name -> merged reading; std::map so iteration (and hence JSON output)
/// is deterministic.
using Snapshot = std::map<std::string, MetricValue>;

/// Owns all metrics. Lookup by name takes a mutex (call sites cache the
/// returned reference in a function-local static); recording is lock-free.
/// Re-registering a name returns the existing metric; a name registered as
/// a different type throws std::logic_error.
class Registry {
 public:
  Counter& counter(const std::string& name,
                   Kind kind = Kind::kDeterministic);
  Gauge& gauge(const std::string& name, Kind kind = Kind::kDeterministic);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> edges,
                       Kind kind = Kind::kDeterministic);
  /// Histogram with exponential nanosecond buckets (1us .. ~4.4min),
  /// Kind::kTiming: the service's per-request latency distributions.
  Histogram& timing_histogram(const std::string& name);

  /// Merged reading of every registered metric.
  Snapshot snapshot() const;

 private:
  struct Entry {
    Kind kind = Kind::kDeterministic;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// The process-wide registry all instrumentation records into, and the
/// only one outside the registry's own tests: a caller isolates one run's
/// contribution with snapshot_delta.
Registry& registry();

/// `after - before`, for isolating one run's contribution on the global
/// registry: counters and histogram tallies subtract; gauges and histogram
/// `max` keep the `after` reading (they are not accumulative). Metrics
/// absent from `before` pass through unchanged.
Snapshot snapshot_delta(const Snapshot& after, const Snapshot& before);

}  // namespace dfsssp::obs
