#include "obs/report/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/report/stats.hpp"

namespace dfsssp::obs {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "PASS";
    case Verdict::kImproved: return "IMPROVED";
    case Verdict::kRegressed: return "REGRESSED";
    case Verdict::kNew: return "NEW";
    case Verdict::kMissing: return "MISSING";
  }
  return "?";
}

namespace {

// Rendered for a value one side lacks. A char rather than "-": GCC 12 at
// -O3 reports a false -Wrestrict on std::string = "literal" here.
constexpr char kAbsent = '-';

std::string render(const JsonValue& v) {
  if (v.is_object() && v.contains("count") && v.contains("sum")) {
    // Histograms render as their invariants, not the full bucket vector.
    return "hist{count=" + v.at("count").dump() + ", sum=" +
           v.at("sum").dump() + ", max=" + v.at("max").dump() + "}";
  }
  std::string s = v.dump();
  if (s.size() > 48) s = s.substr(0, 45) + "...";
  return s;
}

std::string render_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", ms);
  return buf;
}

}  // namespace

CompareResult compare_reports(const RunReport& baseline, const RunReport& run,
                              const CompareOptions& opts) {
  CompareResult out;

  // ---- deterministic quality metrics: exact equality --------------------
  if (baseline.metrics.is_object() && run.metrics.is_object()) {
    for (const JsonValue::Member& m : baseline.metrics.members()) {
      Finding f;
      f.metric = m.first;
      f.baseline = render(m.second);
      const JsonValue* other = run.metrics.find(m.first);
      if (other == nullptr) {
        f.verdict = Verdict::kMissing;
        f.run = kAbsent;
        f.note = "metric disappeared from the run";
        ++out.quality_drift;
      } else if (m.second == *other) {
        f.verdict = Verdict::kPass;
        f.run = f.baseline;
      } else {
        f.verdict = Verdict::kRegressed;
        f.run = render(*other);
        f.note = "deterministic metric must match the baseline exactly";
        ++out.quality_drift;
      }
      out.findings.push_back(std::move(f));
    }
    for (const JsonValue::Member& m : run.metrics.members()) {
      if (baseline.metrics.contains(m.first)) continue;
      Finding f;
      f.metric = m.first;
      f.verdict = Verdict::kNew;
      f.baseline = kAbsent;
      f.run = render(m.second);
      f.note = "not in the baseline; refresh baselines to start tracking";
      ++out.new_metrics;
      out.findings.push_back(std::move(f));
    }
  }

  // ---- tables: exact equality when both sides vouch for determinism -----
  if (baseline.tables_deterministic && run.tables_deterministic) {
    Finding f;
    f.metric = "tables";
    if (baseline.tables == run.tables) {
      f.verdict = Verdict::kPass;
      f.baseline = f.run = std::to_string(baseline.tables.size()) + " table(s)";
    } else {
      f.verdict = Verdict::kRegressed;
      f.baseline = std::to_string(baseline.tables.size()) + " table(s)";
      f.run = std::to_string(run.tables.size()) + " table(s)";
      f.note = "deterministic table cells differ from the baseline";
      ++out.quality_drift;
    }
    out.findings.push_back(std::move(f));
  }

  // ---- profile: deterministic attribution, exact per node path ----------
  // Only the deterministic columns live in the profile section
  // (invocations + cost counters); they obey the same contract as
  // `metrics`, so any drift against a non-empty baseline profile gates.
  // Baselines recorded before schema 3 carry an empty profile and skip
  // the section entirely.
  if (baseline.profile.is_array() && baseline.profile.size() > 0) {
    std::map<std::string, const JsonValue*> run_nodes;
    if (run.profile.is_array()) {
      for (const JsonValue& node : run.profile.items()) {
        const JsonValue* path = node.find("path");
        if (path != nullptr && path->is_string()) {
          run_nodes[path->as_string()] = &node;
        }
      }
    }
    for (const JsonValue& node : baseline.profile.items()) {
      const JsonValue* path = node.find("path");
      if (path == nullptr || !path->is_string()) continue;
      Finding f;
      f.metric = "profile:" + path->as_string();
      f.baseline = render(node);
      auto it = run_nodes.find(path->as_string());
      if (it == run_nodes.end()) {
        f.verdict = Verdict::kMissing;
        f.run = kAbsent;
        f.note = "profile node disappeared from the run";
        ++out.quality_drift;
      } else if (node == *it->second) {
        f.verdict = Verdict::kPass;
        f.run = f.baseline;
        run_nodes.erase(it);
      } else {
        f.verdict = Verdict::kRegressed;
        f.run = render(*it->second);
        f.note = "deterministic profile attribution must match exactly";
        ++out.quality_drift;
        run_nodes.erase(it);
      }
      out.findings.push_back(std::move(f));
    }
    for (const auto& [path, node] : run_nodes) {
      Finding f;
      f.metric = "profile:" + path;
      f.verdict = Verdict::kNew;
      f.baseline = kAbsent;
      f.run = render(*node);
      f.note = "not in the baseline; refresh baselines to start tracking";
      ++out.new_metrics;
      out.findings.push_back(std::move(f));
    }
  }

  // ---- timing stats: MAD-scaled noise model -----------------------------
  for (const auto& [name, base] : baseline.timing_stats) {
    auto it = run.timing_stats.find(name);
    Finding f;
    f.metric = name;
    f.deterministic = false;
    f.baseline = render_ms(base.median_ms);
    if (it == run.timing_stats.end()) {
      // A vanished timing is not a quality failure (instrumentation may
      // move); surface it without gating.
      f.verdict = Verdict::kMissing;
      f.run = kAbsent;
      out.findings.push_back(std::move(f));
      continue;
    }
    const TimingStat& cur = it->second;
    const double threshold =
        std::max({opts.mad_k * kMadToSigma * base.mad_ms,
                  opts.rel_epsilon * std::fabs(base.median_ms),
                  opts.abs_epsilon_ms});
    const double delta = cur.median_ms - base.median_ms;
    f.run = render_ms(cur.median_ms);
    char note[96];
    std::snprintf(note, sizeof(note), "delta %+0.3f ms vs threshold %.3f ms",
                  delta, threshold);
    f.note = note;
    if (delta > threshold) {
      f.verdict = Verdict::kRegressed;
      ++out.timing_regressions;
    } else if (delta < -threshold) {
      f.verdict = Verdict::kImproved;
      ++out.timing_improvements;
    } else {
      f.verdict = Verdict::kPass;
    }
    out.findings.push_back(std::move(f));
  }
  for (const auto& [name, cur] : run.timing_stats) {
    if (baseline.timing_stats.count(name) != 0) continue;
    Finding f;
    f.metric = name;
    f.deterministic = false;
    f.verdict = Verdict::kNew;
    f.baseline = kAbsent;
    f.run = render_ms(cur.median_ms);
    out.findings.push_back(std::move(f));
  }

  return out;
}

}  // namespace dfsssp::obs
