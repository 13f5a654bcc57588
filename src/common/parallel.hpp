// Deterministic parallel execution layer.
//
// Everything downstream that loops over independent work items (bisection
// patterns, virtual layers, destination terminals, roster cells) takes an
// ExecContext and runs the loop through parallel_for / parallel_map_reduce.
// Determinism is a hard contract: results must be bitwise identical at any
// thread count. The layer guarantees its half of that contract —
//
//   * work item i is identified by its index, never by arrival order;
//   * parallel_map materialises results into slot i of a pre-sized vector;
//   * parallel_map_reduce folds those slots serially in index order, so
//     floating-point reduction order never depends on scheduling.
//
// Callers supply the other half: any randomness inside a work item must come
// from a generator seeded from the item index (see Rng), never from a stream
// shared across items.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/profile/profile.hpp"

// Clang thread-safety annotations (-Wthread-safety): which mutex guards
// which member, and which functions require it held. GCC and MSVC compile
// them away. The standard library's lock guards are opaque to the static
// analysis (libstdc++ carries no capability attributes), so the few
// functions that juggle a std::unique_lock carry
// DFS_NO_THREAD_SAFETY_ANALYSIS with an explanation; the ThreadSanitizer
// CI job covers those paths dynamically.
#if defined(__clang__)
#define DFS_CAPABILITY(x) __attribute__((capability(x)))
#define DFS_GUARDED_BY(x) __attribute__((guarded_by(x)))
#define DFS_REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))
#define DFS_ACQUIRE(...) __attribute__((acquire_capability(__VA_ARGS__)))
#define DFS_RELEASE(...) __attribute__((release_capability(__VA_ARGS__)))
#define DFS_TRY_ACQUIRE(...) \
  __attribute__((try_acquire_capability(__VA_ARGS__)))
#define DFS_NO_THREAD_SAFETY_ANALYSIS \
  __attribute__((no_thread_safety_analysis))
#else
#define DFS_CAPABILITY(x)
#define DFS_GUARDED_BY(x)
#define DFS_REQUIRES(...)
#define DFS_ACQUIRE(...)
#define DFS_RELEASE(...)
#define DFS_TRY_ACQUIRE(...)
#define DFS_NO_THREAD_SAFETY_ANALYSIS
#endif

namespace dfsssp {

/// std::mutex with Clang capability annotations, so GUARDED_BY/REQUIRES
/// declarations on ThreadPool members are statically checkable. Usable
/// with std::lock_guard/std::unique_lock (waits go through
/// std::condition_variable_any).
class DFS_CAPABILITY("mutex") Mutex {
 public:
  void lock() DFS_ACQUIRE() { mu_.lock(); }
  void unlock() DFS_RELEASE() { mu_.unlock(); }
  bool try_lock() DFS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// A persistent pool of worker threads executing one chunked loop at a time.
/// Workers grab contiguous index chunks from a shared cursor, so uneven work
/// items (e.g. patterns of different path lengths) still balance.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(unsigned num_threads);

  /// Joins all workers. Safe while no run_chunked() call is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Covers [0, n) with calls body(begin, end) of at most `chunk` indices,
  /// distributed over the workers plus the calling thread. Blocks until all
  /// chunks finished; rethrows the first exception a chunk threw (remaining
  /// chunks are abandoned, in-flight ones run to completion).
  /// Serialized: concurrent run_chunked() calls queue on an internal mutex.
  /// Excluded from static analysis: it hands a std::unique_lock to
  /// drain_job and the condition-variable waits.
  void run_chunked(std::size_t n, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body)
      DFS_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct Job {
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::size_t cursor = 0;        // next unclaimed index
    std::size_t in_flight = 0;     // chunks currently executing
    std::uint64_t generation = 0;  // bumps once per run_chunked call
    std::uint64_t posted_ns = 0;   // when run_chunked published the job
    // Submitter's profiler position: chunks executed on workers attribute
    // their spans and tallies to the same tree node the submitting
    // thread was in, keeping attribution thread-count invariant.
    obs::ProfileContext prof_ctx;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::exception_ptr error;
  };

  /// Excluded from static analysis for the same std::unique_lock reason as
  /// run_chunked; ThreadSanitizer covers the wait/wake protocol.
  void worker_loop() DFS_NO_THREAD_SAFETY_ANALYSIS;
  /// Claims and runs chunks until the job is drained. Called with `mu_`
  /// held; releases it around body execution.
  void drain_job(std::unique_lock<Mutex>& lock) DFS_REQUIRES(mu_);

  Mutex run_mu_;  // serializes run_chunked callers
  Mutex mu_;
  std::condition_variable_any work_cv_;  // workers wait for a new generation
  std::condition_variable_any done_cv_;  // run_chunked waits for drain
  Job job_ DFS_GUARDED_BY(mu_);
  bool stopping_ DFS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// The largest worker count a --threads flag accepts: far above any core
/// count the benches run on, far below a request that would exhaust the
/// process's threads.
inline constexpr unsigned kMaxThreads = 256;

/// Execution policy handed through the library's public APIs. Copyable and
/// cheap to pass by value; copies share the same underlying pool. The
/// default context is serial — existing call sites keep their exact
/// single-threaded behavior and pay no synchronization cost.
class ExecContext {
 public:
  /// Serial context: body runs inline on the calling thread.
  ExecContext() = default;

  /// `num_threads` == 1: serial (no pool). 0: one thread per hardware core.
  explicit ExecContext(unsigned num_threads);

  static ExecContext serial() { return ExecContext(1); }
  static ExecContext hardware() { return ExecContext(0); }

  unsigned num_threads() const { return threads_; }
  bool is_serial() const { return threads_ <= 1; }

  /// Null when serial.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  unsigned threads_ = 1;
  std::shared_ptr<ThreadPool> pool_;
};

/// Runs body(begin, end) over contiguous chunks covering [0, n).
/// Serial contexts call body(0, n) inline.
void parallel_for_chunks(const ExecContext& exec, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>&
                             body);

/// Runs body(i) for every i in [0, n), chunked under the hood.
template <typename Body>
void parallel_for(const ExecContext& exec, std::size_t n, Body&& body) {
  parallel_for_chunks(exec, n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Maps fn over [0, n) into a vector whose slot i holds fn(i) — output
/// order is index order regardless of scheduling.
template <typename MapFn>
auto parallel_map(const ExecContext& exec, std::size_t n, MapFn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  parallel_for(exec, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Maps fn over [0, n) in parallel, then folds the results serially in
/// index order: acc = reduce(acc, fn(0)), reduce(acc, fn(1)), ... — the
/// fold a serial loop would produce, bit for bit.
template <typename Acc, typename MapFn, typename ReduceFn>
Acc parallel_map_reduce(const ExecContext& exec, std::size_t n, Acc acc,
                        MapFn&& fn, ReduceFn&& reduce) {
  auto mapped = parallel_map(exec, n, std::forward<MapFn>(fn));
  for (auto& item : mapped) acc = reduce(std::move(acc), std::move(item));
  return acc;
}

}  // namespace dfsssp
