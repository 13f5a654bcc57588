// Versioned bench run reports — the continuous-benchmarking schema behind
// the committed BENCH_*.json trajectory and the dfbench regression gate.
//
// Schema (version 3):
//   {
//     "schema_version": 3,
//     "bench": "bench_fig9_vl_random",
//     "git_rev": "2a7720f1c9e4",          // configure-time, see build_info
//     "build_flags": "Release ",
//     "repetitions": 3,
//     "tables_deterministic": true,        // false when cells hold wall time
//     "config": {"full": false, "patterns": 100, "seeds": 3, "threads": 0},
//     "wall_seconds": 6.12,                // median over repetitions
//     "tables": [{"title", "columns", "rows"}, ...],
//     "metrics": {...},                    // deterministic section, exact
//     "timing_metrics": {...},             // rep-0 raw timing-kind metrics
//     "timing_stats": {                    // median/MAD over repetitions
//       "bench/wall_ms": {"median_ms": 6120.0, "mad_ms": 31.2, "reps": 3},
//       "service/lookup_ns": {...},        // from a timing histogram
//       "prof/root;dfsssp/layering/total_ms": {...}  // phase wall times
//     },
//     "profile": [                         // schema 3: span-tree profile,
//       {"path": "root", "invocations": 1, "counters": {}},
//       {"path": "root;dfsssp/layering",   // deterministic columns only
//        "invocations": 6,
//        "counters": {"dfsssp/acyclicity_checks": 1234}},
//       ...
//     ]
//   }
//
// The `metrics` section (plus `tables` when tables_deterministic, plus the
// `profile` node list) is the quality gate: derived from the work itself,
// bitwise identical at any --threads=N, so ANY diff against a baseline is
// a real behavior change. Everything under timing_* is wall clock and only
// ever compared through the MAD-scaled noise model in compare.hpp; profile
// wall times live in timing_stats as "prof/<path>/{total,self}_ms", never
// in the profile section itself.
//
// The reader also accepts the schema-1 documents PR 3's benches emitted
// (no schema_version field) — their timing_stats are derived from the
// timing histogram sums — and schema-2 documents (no profile section);
// both upgrade in place so old trajectory points stay comparable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile/profile.hpp"
#include "obs/report/json_value.hpp"

namespace dfsssp::obs {

inline constexpr int kReportSchemaVersion = 3;

/// Median/MAD of one wall-clock quantity over a run's repetitions, in
/// milliseconds. reps == 1 pins mad_ms to 0 (the zero-MAD path: compare
/// then falls back to its relative/absolute floors).
struct TimingStat {
  double median_ms = 0.0;
  double mad_ms = 0.0;
  std::uint32_t reps = 1;
};

struct RunReport {
  int schema_version = kReportSchemaVersion;
  std::string bench;
  std::string git_rev = "unknown";
  std::string build_flags = "unknown";
  std::uint32_t repetitions = 1;
  bool tables_deterministic = true;
  JsonValue config = JsonValue::object();
  double wall_seconds = 0.0;
  JsonValue tables = JsonValue::array();
  JsonValue metrics = JsonValue::object();
  JsonValue timing_metrics = JsonValue::object();
  std::map<std::string, TimingStat> timing_stats;
  /// Schema 3: deterministic span-tree profile (array of {path,
  /// invocations, counters} in canonical preorder). Empty array when the
  /// bench ran without profiling or the document predates schema 3.
  JsonValue profile = JsonValue::array();
};

/// Parses a schema-1, -2, or -3 document. Throws std::runtime_error on
/// malformed input or an unknown (newer) schema_version.
RunReport parse_run_report(const std::string& text);
RunReport read_run_report(const std::string& path);

void write_run_report(const RunReport& report, std::ostream& out);
void write_run_report(const RunReport& report, const std::string& path);

/// Fills report.timing_stats from its timing_metrics histograms (one
/// sample per histogram: the summed nanoseconds, as milliseconds) plus the
/// "bench/wall_ms" entry from wall_seconds. Used by single-repetition
/// emitters and by the schema-1 upgrade path; existing entries are kept.
void derive_timing_stats(RunReport& report);

/// Collapses N repetitions of the same bench into one canonical report:
/// config/tables/metrics must be identical across repetitions (any
/// mismatch throws — a bench whose deterministic sections differ between
/// identical invocations is broken); timing_stats become median/MAD over
/// the per-repetition medians and wall_seconds becomes the median wall
/// clock. timing_metrics keeps repetition 0's raw histograms.
RunReport aggregate_runs(const std::vector<RunReport>& reps);

/// The obs registry metrics of one kind as a JSON object in name order:
/// {"name": count, "hist": {edges, counts, count, sum, max}}. The `metrics`
/// and `timing_metrics` sections of run reports and of the daemon's
/// `stats` reply.
JsonValue metrics_to_json(const Snapshot& snap, Kind kind);

/// The deterministic columns of a collected profile as the schema-3
/// `profile` section: [{path, invocations, counters}, ...] in canonical
/// preorder. Wall times are deliberately absent.
JsonValue profile_to_json(const Profile& profile);

/// Adds the profile's wall times to a timing_stats map as
/// "prof/<path>/total_ms" and "prof/<path>/self_ms" single-rep entries,
/// where they aggregate and compare exactly like any other timing.
void profile_timing_stats(const Profile& profile,
                          std::map<std::string, TimingStat>& out);

}  // namespace dfsssp::obs
