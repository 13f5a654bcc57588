// Hierarchical span-tree profiler with deterministic work attribution.
//
// A profiling session aggregates the TraceSpan stream into a canonical
// call tree: every span entered while profiling is active becomes (or
// revisits) a node keyed by its name under the innermost enclosing span.
// Each node carries
//
//   * invocations — how many times the span opened (deterministic),
//   * total/self wall time — Kind::kTiming, never exact-compared,
//   * deterministic cost counters — obs::Counter::tally() work counts
//     (cycle-search steps, heap pushes/pops, edge relaxations, re-layer
//     attempts, CDG edge insertions) attributed to the innermost enclosing
//     span; the same call adds them to the metrics registry.
//
// The deterministic columns (invocations + counters) are bitwise identical
// at any --threads=N. Two mechanisms make that hold:
//
//   1. The current tree position lives in a thread_local cursor, and the
//      ThreadPool propagates the submitting thread's cursor to workers
//      (ProfileContext captured in run_chunked, applied by a
//      ProfileTaskScope around each chunk) — so spans opened inside a
//      parallel region attach to the same parent regardless of which
//      thread runs the work item.
//   2. Instrumentation only opens spans and flushes counters at work-item
//      granularity (per pass, per pattern, per layer), never per pool
//      chunk, so invocation counts do not depend on the chunking.
//
// Wall times do vary run to run and thread to thread; they are exported
// separately as timing stats ("prof/<path>/total_ms", "prof/<path>/self_ms")
// and only ever compared through the MAD noise model.
//
// Like tracing, an inactive profiler costs one relaxed atomic load per
// span and per tally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dfsssp::obs {

/// Sentinel: "span not recorded" (profiler inactive at entry).
inline constexpr std::uint32_t kNoProfileNode = 0xFFFFFFFFu;

/// True while a profiling session is aggregating spans.
bool profiling_active();

/// Starts (or restarts) a profiling session. The tree resets to a single
/// root node; span node ids from a previous session become invalid (their
/// exits are dropped via a generation check, so restarting mid-span on
/// another thread is safe).
void start_profiling();

/// Opens a span named `name` under the calling thread's current node and
/// returns the node id, or kNoProfileNode when inactive. `name` must
/// outlive the session (string literals in practice). Called by TraceSpan.
std::uint32_t profile_enter(const char* name);

/// Closes a span previously returned by profile_enter, adding its elapsed
/// wall time to the node. No-op on kNoProfileNode or when the session
/// restarted in between.
void profile_exit(std::uint32_t node, std::uint64_t elapsed_ns);

/// Adds `delta` to the deterministic counter `counter` on the calling
/// thread's innermost enclosing span (the root when none is open).
/// Counter names follow the registry convention ("family/name").
/// Instrumented code calls it through obs::Counter::tally().
void profile_count(const char* counter, std::uint64_t delta);

/// The calling thread's position in the tree, capturable before handing
/// work to another thread. generation == 0 means "no session".
struct ProfileContext {
  std::uint64_t generation = 0;
  std::uint32_t node = 0;
};

ProfileContext profile_current_context();

/// Applies a captured ProfileContext to the current thread for a scope —
/// used by the ThreadPool so worker-side spans attach to the submitter's
/// node. Purely thread-local; no-op for an empty context.
class ProfileTaskScope {
 public:
  explicit ProfileTaskScope(const ProfileContext& ctx);
  ~ProfileTaskScope();

  ProfileTaskScope(const ProfileTaskScope&) = delete;
  ProfileTaskScope& operator=(const ProfileTaskScope&) = delete;

 private:
  std::uint64_t saved_gen_ = 0;
  std::uint32_t saved_node_ = 0;
  bool applied_ = false;
};

/// One aggregated call-tree node in canonical order (DFS preorder,
/// children sorted by name). `path` joins span names from the root with
/// ';' — the collapsed-stack convention, e.g.
/// "root;dfsssp/layering;dfsssp/cycle_search".
struct ProfileNode {
  std::string path;
  std::string name;
  std::uint32_t depth = 0;
  std::uint64_t invocations = 0;
  std::uint64_t total_ns = 0;  // kTiming: wall clock, noisy
  std::uint64_t self_ns = 0;   // total minus children, clamped at 0
  std::map<std::string, std::uint64_t> counters;  // deterministic
};

struct Profile {
  std::vector<ProfileNode> nodes;  // nodes[0] is always the root
};

/// Snapshots the current session's tree (session stays active; totals keep
/// accumulating). The root's total is the session wall clock so far.
/// Returns an empty profile when inactive.
Profile collect_profile();

/// Snapshots the tree and ends the session.
Profile stop_profiling();

/// Fraction of the root's wall time attributed to spans below it:
/// 1 - root_self / root_total. 0 for an empty or zero-length profile.
double attributed_fraction(const Profile& profile);

/// Top-N nodes by self time as an aligned text table (self/total ms,
/// invocations, deterministic counter totals, path).
void write_profile_text(std::ostream& out, const Profile& profile,
                        std::size_t top_n);

/// Collapsed-stack flamegraph format: one "path value" line per node with
/// nonzero self time, value in nanoseconds. Feed to flamegraph.pl or
/// speedscope.
void write_folded(std::ostream& out, const Profile& profile);

}  // namespace dfsssp::obs
