// Tests for the span-tree profiler: canonical aggregation of nested spans
// into the call tree, thread-count invariance of the deterministic columns
// (the contract the perf gate exact-diffs), tallies that reach registry and
// profile in one call, session restart safety, the two export formats, and
// the schema 2 -> 3 report upgrade path.
#include "obs/profile/profile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/report/report.hpp"
#include "obs/trace.hpp"

namespace dfsssp::obs {
namespace {

/// Ends any session a prior test (or fixture ordering) left active so
/// every test starts from a clean tree.
struct ProfileTest : ::testing::Test {
  void SetUp() override { stop_profiling(); }
  void TearDown() override { stop_profiling(); }
};

/// Builds a small synthetic tree with hand-chosen elapsed times:
///   root
///     outer            (1000 ns, counter x/steps=5)
///       alpha          (25 ns)
///       inner          (2 calls, 100+50 ns, counter x/steps=7)
Profile synthetic_session() {
  start_profiling();
  const std::uint32_t outer = profile_enter("outer");
  profile_count("x/steps", 5);
  const std::uint32_t inner1 = profile_enter("inner");
  profile_count("x/steps", 7);
  profile_exit(inner1, 100);
  const std::uint32_t inner2 = profile_enter("inner");
  profile_exit(inner2, 50);
  const std::uint32_t alpha = profile_enter("alpha");
  profile_exit(alpha, 25);
  profile_exit(outer, 1000);
  return stop_profiling();
}

TEST_F(ProfileTest, InactiveProfilerRecordsNothing) {
  EXPECT_FALSE(profiling_active());
  EXPECT_EQ(profile_enter("ignored"), kNoProfileNode);
  profile_count("ignored/counter", 3);  // must not crash
  EXPECT_TRUE(collect_profile().nodes.empty());
}

TEST_F(ProfileTest, AggregatesNestedSpansIntoCanonicalTree) {
  const Profile p = synthetic_session();
  ASSERT_EQ(p.nodes.size(), 4U);

  // DFS preorder with children sorted by name: alpha before inner even
  // though inner opened first.
  EXPECT_EQ(p.nodes[0].path, "root");
  EXPECT_EQ(p.nodes[1].path, "root;outer");
  EXPECT_EQ(p.nodes[2].path, "root;outer;alpha");
  EXPECT_EQ(p.nodes[3].path, "root;outer;inner");
  EXPECT_EQ(p.nodes[3].name, "inner");
  EXPECT_EQ(p.nodes[3].depth, 2U);

  const ProfileNode& outer = p.nodes[1];
  EXPECT_EQ(outer.invocations, 1U);
  EXPECT_EQ(outer.total_ns, 1000U);
  // self = total minus the 175 ns spent in children.
  EXPECT_EQ(outer.self_ns, 825U);
  // The counter flushed before entering `inner` lands on `outer`, the
  // innermost enclosing span at the time.
  ASSERT_EQ(outer.counters.count("x/steps"), 1U);
  EXPECT_EQ(outer.counters.at("x/steps"), 5U);

  const ProfileNode& inner = p.nodes[3];
  EXPECT_EQ(inner.invocations, 2U);
  EXPECT_EQ(inner.total_ns, 150U);
  EXPECT_EQ(inner.self_ns, 150U);
  EXPECT_EQ(inner.counters.at("x/steps"), 7U);

  // Root spans the whole session wall clock; everything below it counts as
  // attributed time.
  EXPECT_EQ(p.nodes[0].invocations, 1U);
  EXPECT_GT(attributed_fraction(p), 0.0);
}

TEST_F(ProfileTest, SessionRestartDropsStaleExits) {
  start_profiling();
  const std::uint32_t stale = profile_enter("old");
  start_profiling();  // restart: `stale` belongs to a dead generation
  profile_exit(stale, 500);
  const Profile p = stop_profiling();
  ASSERT_EQ(p.nodes.size(), 1U);
  EXPECT_EQ(p.nodes[0].path, "root");
}

TEST_F(ProfileTest, FoldedExportEmitsSelfTimes) {
  const Profile p = synthetic_session();
  std::ostringstream out;
  write_folded(out, p);
  const std::string text = out.str();
  EXPECT_NE(text.find("root;outer 825\n"), std::string::npos);
  EXPECT_NE(text.find("root;outer;alpha 25\n"), std::string::npos);
  EXPECT_NE(text.find("root;outer;inner 150\n"), std::string::npos);
}

TEST_F(ProfileTest, TextTableListsCountersAndPaths) {
  const Profile p = synthetic_session();
  std::ostringstream out;
  write_profile_text(out, p, 10);
  const std::string text = out.str();
  EXPECT_NE(text.find("root;outer;inner"), std::string::npos);
  EXPECT_NE(text.find("x/steps"), std::string::npos);
}

/// The deterministic columns of a profile: everything the perf gate
/// exact-diffs, nothing that depends on wall clock.
using DetRow =
    std::tuple<std::string, std::uint64_t, std::map<std::string, std::uint64_t>>;

std::vector<DetRow> deterministic_columns(const Profile& p) {
  std::vector<DetRow> rows;
  rows.reserve(p.nodes.size());
  for (const ProfileNode& n : p.nodes) {
    rows.emplace_back(n.path, n.invocations, n.counters);
  }
  return rows;
}

/// 64 work items under one span, each with its own span and two tallies
/// into `reg`.
std::vector<DetRow> run_workload(unsigned threads, Registry& reg) {
  Counter& items = reg.counter("test/items");
  Counter& cost = reg.counter("test/cost");
  start_profiling();
  ExecContext exec(threads);
  {
    TraceSpan work("test/work");
    parallel_for(exec, 64, [&](std::size_t i) {
      // One span + tally per work item — the instrumentation granularity
      // the determinism contract requires.
      TraceSpan item("test/item");
      items.tally(1);
      cost.tally(static_cast<std::uint64_t>(i));
    });
  }
  return deterministic_columns(stop_profiling());
}

TEST_F(ProfileTest, DeterministicColumnsAreThreadCountInvariant) {
  Registry reg;
  const std::vector<DetRow> serial = run_workload(1, reg);

  // The worker-side spans must attach under the submitting thread's
  // cursor, so the tree shape and every deterministic column are
  // identical at any pool width.
  ASSERT_EQ(serial.size(), 3U);  // root, test/work, test/work;test/item
  EXPECT_EQ(std::get<0>(serial[2]), "root;test/work;test/item");
  EXPECT_EQ(std::get<1>(serial[2]), 64U);
  EXPECT_EQ(std::get<2>(serial[2]).at("test/items"), 64U);
  EXPECT_EQ(std::get<2>(serial[2]).at("test/cost"), 64U * 63U / 2U);

  // One tally per item reached the registry with the same totals.
  EXPECT_EQ(reg.counter("test/items").value(), 64U);
  EXPECT_EQ(reg.counter("test/cost").value(), 64U * 63U / 2U);

  for (unsigned threads : {2U, 8U}) {
    Registry wide;
    EXPECT_EQ(run_workload(threads, wide), serial) << threads << " threads";
    EXPECT_EQ(wide.counter("test/items").value(), 64U);
    EXPECT_EQ(wide.counter("test/cost").value(), 64U * 63U / 2U);
  }
}

TEST_F(ProfileTest, TallyReachesRegistryAndInnermostSpan) {
  Registry reg;
  Counter& steps = reg.counter("test/steps");
  start_profiling();
  {
    TraceSpan outer("outer");
    steps.tally(5);
    {
      TraceSpan inner("inner");
      steps.tally(7);
    }
  }
  const Profile p = stop_profiling();
  ASSERT_EQ(p.nodes.size(), 3U);
  EXPECT_EQ(p.nodes[1].path, "root;outer");
  EXPECT_EQ(p.nodes[1].counters.at("test/steps"), 5U);
  EXPECT_EQ(p.nodes[2].path, "root;outer;inner");
  EXPECT_EQ(p.nodes[2].counters.at("test/steps"), 7U);
  EXPECT_EQ(steps.value(), 12U);
}

TEST_F(ProfileTest, TallyWithoutSessionReachesOnlyRegistry) {
  Registry reg;
  Counter& steps = reg.counter("test/steps");
  {
    TraceSpan span("test/span");
    steps.tally(5);  // no session: registry only
  }
  EXPECT_EQ(steps.value(), 5U);

  // A later session sees only its own tallies.
  start_profiling();
  {
    TraceSpan span("test/span");
    steps.tally(2);
  }
  const Profile p = stop_profiling();
  ASSERT_EQ(p.nodes.size(), 2U);
  EXPECT_TRUE(p.nodes[0].counters.empty());
  EXPECT_EQ(p.nodes[1].counters.at("test/steps"), 2U);
  EXPECT_EQ(steps.value(), 7U);
}

TEST_F(ProfileTest, AddAndTimingCountersNeverReachTheProfile) {
  Registry reg;
  Counter& events = reg.counter("test/events");
  Counter& waits = reg.counter("test/waits", Kind::kTiming);
  start_profiling();
  {
    TraceSpan span("test/span");
    events.add(3);  // an event count: registry only
    events.inc();
    waits.tally(4);  // timing kind: registry only even through tally()
  }
  const Profile p = stop_profiling();
  ASSERT_EQ(p.nodes.size(), 2U);
  EXPECT_TRUE(p.nodes[0].counters.empty());
  EXPECT_TRUE(p.nodes[1].counters.empty());
  EXPECT_EQ(events.value(), 4U);
  EXPECT_EQ(waits.value(), 4U);
}

// ---- report schema upgrade --------------------------------------------------

TEST_F(ProfileTest, Schema2ReportsUpgradeWithEmptyProfile) {
  // A report written before the profiler existed: no `profile` key.
  const std::string v2 = R"({
    "schema_version": 2,
    "bench": "bench_fig9",
    "tables_deterministic": true,
    "metrics": {"dfsssp/layers": 4},
    "timing_metrics": {},
    "wall_seconds": 1.5
  })";
  const RunReport r = parse_run_report(v2);
  EXPECT_EQ(r.schema_version, kReportSchemaVersion);
  ASSERT_TRUE(r.profile.is_array());
  EXPECT_EQ(r.profile.size(), 0U);
}

TEST_F(ProfileTest, ProfileSectionRoundTripsThroughReport) {
  const Profile p = synthetic_session();
  RunReport report;
  report.bench = "test";
  report.profile = profile_to_json(p);
  profile_timing_stats(p, report.timing_stats);

  std::ostringstream out;
  write_run_report(report, out);
  const RunReport back = parse_run_report(out.str());
  EXPECT_EQ(back.schema_version, kReportSchemaVersion);
  EXPECT_EQ(back.profile, report.profile);
  ASSERT_EQ(back.timing_stats.count("prof/root;outer/total_ms"), 1U);
  EXPECT_DOUBLE_EQ(back.timing_stats.at("prof/root;outer/total_ms").median_ms,
                   1000.0 / 1e6);
  EXPECT_DOUBLE_EQ(back.timing_stats.at("prof/root;outer/self_ms").median_ms,
                   825.0 / 1e6);
}

TEST_F(ProfileTest, AggregateRejectsDivergentProfiles) {
  RunReport a;
  a.bench = "test";
  a.profile = profile_to_json(synthetic_session());
  RunReport b = a;
  ASSERT_NO_THROW(aggregate_runs({a, b}));

  // Same tree, one drifted counter: a determinism-contract violation.
  b.profile.items()[1].set("invocations", JsonValue::integer(2));
  EXPECT_THROW(aggregate_runs({a, b}), std::runtime_error);
}

}  // namespace
}  // namespace dfsssp::obs
