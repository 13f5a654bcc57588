// Scoped trace spans with a Chrome trace_event JSON exporter.
//
// `obs::TraceSpan span("dfsssp/cycle_search");` opens a span for the
// enclosing scope. A span is the one clock of its phase: it always reads
// its start time, span.seconds() is the phase's elapsed wall time (what the
// routing engines report in RoutingStats), and on close it feeds whichever
// sessions are active. Spans nest lexically and are timed with
// Timer::now_ns(). With no session active (the default) a span costs one
// clock read and two relaxed atomic loads. Bench binaries and dfcheck
// activate a trace session with --trace=FILE; the file loads in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <string>

#include "obs/profile/profile.hpp"

namespace dfsssp::obs {

/// True while a trace session is collecting spans.
bool tracing_active();

/// Starts collecting spans; they are buffered in memory and written to
/// `path` by stop_tracing(). A session left active at process exit is
/// flushed by an atexit hook, so callers may simply start and forget.
/// Starting while active restarts the session (prior spans are dropped).
void start_tracing(std::string path);

/// Writes the Chrome trace_event JSON file and ends the session. No-op when
/// no session is active. Returns the number of spans written.
std::size_t stop_tracing();

/// RAII span. `name` must outlive the span (string literals in practice).
/// Feeds two consumers: the Chrome-trace event buffer (when a trace
/// session is active) and the hierarchical profiler (when a profiling
/// session is active) — either, both, or neither.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Wall seconds since the span opened.
  double seconds() const;

 private:
  const char* name_ = nullptr;  // set only when a trace session records it
  std::uint64_t start_ns_ = 0;
  std::uint32_t prof_node_ = kNoProfileNode;
};

}  // namespace dfsssp::obs
