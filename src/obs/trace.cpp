#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/timer.hpp"
#include "obs/report/json_value.hpp"

namespace dfsssp::obs {

namespace {

struct Event {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t tid;
};

/// Per-thread span buffer. Appended only by the owning thread; the little
/// mutex exists so stop_tracing() can collect from another thread.
struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> active{false};
  std::mutex mu;
  std::string path;
  // Buffers are registered once per thread and never deallocated: worker
  // threads (ThreadPool) can outlive a session, and their thread_local
  // pointer must stay valid.
  std::deque<std::unique_ptr<ThreadBuf>> bufs;
  std::uint32_t next_tid = 0;
  bool atexit_registered = false;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: usable during atexit
  return *s;
}

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.bufs.push_back(std::make_unique<ThreadBuf>());
    buf = s.bufs.back().get();
    buf->tid = s.next_tid++;
  }
  return *buf;
}

// The one JSON document not built as a JsonValue: a trace can hold
// millions of spans, so the events stream straight to the file.
void write_chrome_trace(std::ostream& out, std::vector<Event> events) {
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;  // parents first
    return a.tid < b.tid;
  });
  const std::uint64_t epoch = events.empty() ? 0 : events.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"dfsssp\"}}";
  char buf[64];
  for (const Event& e : events) {
    // Chrome trace timestamps are microseconds; keep ns resolution with
    // three decimals.
    out << ",\n{\"name\": " << json_quote(e.name)
        << ", \"cat\": \"dfsssp\", \"ph\": \"X\", \"ts\": ";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.start_ns - epoch) / 1000.0);
    out << buf << ", \"dur\": ";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(e.end_ns - e.start_ns) / 1000.0);
    out << buf << ", \"pid\": 1, \"tid\": " << e.tid << "}";
  }
  out << "\n]}\n";
}

}  // namespace

bool tracing_active() {
  return state().active.load(std::memory_order_relaxed);
}

void start_tracing(std::string path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = std::move(path);
  for (auto& buf : s.bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->events.clear();
  }
  if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit([] { stop_tracing(); });
  }
  s.active.store(true, std::memory_order_relaxed);
}

std::size_t stop_tracing() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active.load(std::memory_order_relaxed)) return 0;
  s.active.store(false, std::memory_order_relaxed);
  std::vector<Event> events;
  for (auto& buf : s.bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    events.insert(events.end(), buf->events.begin(), buf->events.end());
    buf->events.clear();
  }
  std::ofstream out(s.path);
  if (!out) throw std::runtime_error("cannot open trace output: " + s.path);
  const std::size_t n = events.size();
  write_chrome_trace(out, std::move(events));
  return n;
}

TraceSpan::TraceSpan(const char* name) : start_ns_(Timer::now_ns()) {
  if (tracing_active()) name_ = name;
  prof_node_ = profile_enter(name);
}

double TraceSpan::seconds() const {
  return static_cast<double>(Timer::now_ns() - start_ns_) * 1e-9;
}

TraceSpan::~TraceSpan() {
  if (name_ == nullptr && prof_node_ == kNoProfileNode) return;
  const std::uint64_t end_ns = Timer::now_ns();
  if (prof_node_ != kNoProfileNode) {
    profile_exit(prof_node_, end_ns - start_ns_);
  }
  if (name_ == nullptr || !tracing_active()) return;
  ThreadBuf& buf = local_buf();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back({name_, start_ns_, end_ns, buf.tid});
}

}  // namespace dfsssp::obs
