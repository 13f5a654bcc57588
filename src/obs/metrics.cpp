#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profile/profile.hpp"

namespace dfsssp::obs {

namespace detail {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return index;
}

}  // namespace detail

// ---- Counter ----------------------------------------------------------------

void Counter::tally(std::uint64_t n) {
  add(n);
  if (kind_ == Kind::kDeterministic) profile_count(name_.c_str(), n);
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<std::uint64_t> edges)
    : edges_(std::move(edges)) {
  if (edges_.empty()) throw std::logic_error("Histogram needs >= 1 edge");
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::logic_error("Histogram edges must be strictly ascending");
  }
  for (Shard& s : shards_) {
    s.counts =
        std::make_unique<std::atomic<std::uint64_t>[]>(edges_.size() + 1);
  }
}

void Histogram::record(std::uint64_t v) {
  // First edge >= v; values above the last edge land in the overflow slot.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), v) - edges_.begin());
  Shard& s = shards_[detail::shard_index()];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t cur = s.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramValue Histogram::value() const {
  HistogramValue out;
  out.edges = edges_;
  out.counts.assign(edges_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b <= edges_.size(); ++b) {
      out.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(out.max, s.max.load(std::memory_order_relaxed));
  }
  for (std::uint64_t c : out.counts) out.count += c;
  return out;
}

std::vector<std::uint64_t> exponential_buckets(std::uint64_t start,
                                               double factor, std::size_t n) {
  std::vector<std::uint64_t> edges;
  edges.reserve(n);
  double edge = static_cast<double>(start);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rounded = static_cast<std::uint64_t>(std::llround(edge));
    // factor close to 1 can round two consecutive edges together; keep them
    // strictly ascending.
    edges.push_back(edges.empty() ? rounded
                                  : std::max(rounded, edges.back() + 1));
    edge *= factor;
  }
  return edges;
}

double histogram_quantile(const HistogramValue& h, double q) {
  if (h.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, nearest-rank).
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(h.count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const std::uint64_t in_bucket = h.counts[b];
    if (seen + in_bucket < rank) {
      seen += in_bucket;
      continue;
    }
    if (b >= h.edges.size()) return static_cast<double>(h.max);  // overflow
    // Linear interpolation between the bucket's bounds by the rank's
    // position inside it.
    const double lo =
        b == 0 ? 0.0 : static_cast<double>(h.edges[b - 1]);
    const double hi = static_cast<double>(h.edges[b]);
    const double frac = in_bucket == 0
                            ? 1.0
                            : static_cast<double>(rank - seen) /
                                  static_cast<double>(in_bucket);
    // Bucket resolution can place the estimate above the largest value
    // actually observed; the tracked max is a tighter upper bound.
    return std::min(lo + (hi - lo) * frac, static_cast<double>(h.max));
  }
  return static_cast<double>(h.max);
}

// ---- Registry ---------------------------------------------------------------

Counter& Registry::counter(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (!e.counter) {
    if (e.gauge || e.histogram) {
      throw std::logic_error("metric '" + name + "' is not a counter");
    }
    e.kind = kind;
    e.counter.reset(new Counter(name, kind));
  }
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  if (!e.gauge) {
    if (e.counter || e.histogram) {
      throw std::logic_error("metric '" + name + "' is not a gauge");
    }
    e.kind = kind;
    e.gauge.reset(new Gauge());
  }
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::uint64_t> edges, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = metrics_.find(name); it != metrics_.end()) {
    if (!it->second.histogram) {
      throw std::logic_error("metric '" + name + "' is not a histogram");
    }
    return *it->second.histogram;
  }
  // Construct before inserting: rejected edges must not leave an empty
  // entry behind for snapshot() to dereference.
  std::unique_ptr<Histogram> h(new Histogram(std::move(edges)));
  Entry& e = metrics_[name];
  e.kind = kind;
  e.histogram = std::move(h);
  return *e.histogram;
}

Histogram& Registry::timing_histogram(const std::string& name) {
  // 1us .. ~4.4min in x4 steps: coarse, but timing histograms are for
  // orders of magnitude, not microbenchmarking.
  return histogram(name, exponential_buckets(1000, 4.0, 14), Kind::kTiming);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, e] : metrics_) {
    MetricValue v;
    v.kind = e.kind;
    if (e.counter) {
      v.type = MetricValue::Type::kCounter;
      v.value = e.counter->value();
    } else if (e.gauge) {
      v.type = MetricValue::Type::kGauge;
      v.value = e.gauge->value();
    } else {
      v.type = MetricValue::Type::kHistogram;
      v.hist = e.histogram->value();
    }
    snap.emplace(name, std::move(v));
  }
  return snap;
}

Registry& registry() {
  static Registry r;
  return r;
}

Snapshot snapshot_delta(const Snapshot& after, const Snapshot& before) {
  Snapshot delta = after;
  for (auto& [name, v] : delta) {
    auto it = before.find(name);
    if (it == before.end()) continue;
    const MetricValue& b = it->second;
    switch (v.type) {
      case MetricValue::Type::kCounter:
        v.value -= std::min(v.value, b.value);
        break;
      case MetricValue::Type::kGauge:
        break;  // last reading stands
      case MetricValue::Type::kHistogram:
        if (b.hist.counts.size() == v.hist.counts.size()) {
          for (std::size_t i = 0; i < v.hist.counts.size(); ++i) {
            v.hist.counts[i] -= std::min(v.hist.counts[i], b.hist.counts[i]);
          }
          v.hist.count -= std::min(v.hist.count, b.hist.count);
          v.hist.sum -= std::min(v.hist.sum, b.hist.sum);
        }
        break;  // hist.max stands (not accumulative)
    }
  }
  return delta;
}

}  // namespace dfsssp::obs
