// Observability subsystem: registry merge determinism across thread counts,
// histogram bucket semantics, trace-span JSON export (validity + nesting),
// Table::write_json, and the snapshot helpers behind the bench run reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {
namespace {

// ---- minimal JSON validator -------------------------------------------------
// Recursive-descent checker for RFC 8259 structure. No DOM: we only need a
// yes/no so tests can assert every emitter produces loadable JSON without
// the repo growing a parser dependency.

class JsonLint {
 public:
  explicit JsonLint(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }

  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) { return peek(c); }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonLint(text).valid(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string metrics_json(const obs::Snapshot& snap, obs::Kind kind) {
  std::ostringstream out;
  obs::write_metrics_json(out, snap, kind);
  return out.str();
}

TEST(JsonLint, SanityOnItself) {
  EXPECT_TRUE(json_valid("{\"a\": [1, 2.5, -3e4], \"b\": {\"c\": \"d\\n\"}}"));
  EXPECT_TRUE(json_valid("[]"));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("{'a': 1}"));
  EXPECT_FALSE(json_valid("{\"a\": 1} trailing"));
}

// ---- registry ---------------------------------------------------------------

TEST(ObsRegistry, CounterAccumulatesAndTypeIsChecked) {
  obs::Counter& c = obs::registry().counter("test/basic_counter");
  const std::uint64_t before = c.value();
  c.inc();
  c.add(9);
  EXPECT_EQ(c.value(), before + 10);
  EXPECT_THROW(obs::registry().gauge("test/basic_counter"), std::logic_error);
  EXPECT_THROW(obs::registry().histogram("test/basic_counter", {1, 2}),
               std::logic_error);
}

TEST(ObsRegistry, GaugeHoldsLastValue) {
  obs::Gauge& g = obs::registry().gauge("test/gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
}

// A private registry, so the readings hold however often the test runs in
// one process.
TEST(ObsRegistry, HistogramBucketEdges) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("test/hist_edges", {10, 20, 40});
  for (std::uint64_t v : {0ull, 10ull, 11ull, 20ull, 21ull, 40ull, 41ull,
                          1000ull}) {
    h.record(v);
  }
  const obs::HistogramValue r = h.value();
  ASSERT_EQ(r.edges, (std::vector<std::uint64_t>{10, 20, 40}));
  ASSERT_EQ(r.counts.size(), 4u);          // three buckets + overflow
  EXPECT_EQ(r.counts[0], 2u);              // 0, 10    (v <= 10)
  EXPECT_EQ(r.counts[1], 2u);              // 11, 20   (10 < v <= 20)
  EXPECT_EQ(r.counts[2], 2u);              // 21, 40   (20 < v <= 40)
  EXPECT_EQ(r.counts[3], 2u);              // 41, 1000 (overflow)
  EXPECT_EQ(r.count, 8u);
  EXPECT_EQ(r.sum, 0u + 10 + 11 + 20 + 21 + 40 + 41 + 1000);
  EXPECT_EQ(r.max, 1000u);
}

TEST(ObsRegistry, RejectsUnsortedHistogramEdges) {
  EXPECT_THROW(obs::registry().histogram("test/bad_edges", {5, 5}),
               std::logic_error);
  EXPECT_THROW(obs::registry().histogram("test/bad_edges2", {7, 3}),
               std::logic_error);
  // A rejected registration leaves no entry behind: snapshot() must not
  // trip over it, and the names stay free.
  const obs::Snapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.count("test/bad_edges"), 0u);
  EXPECT_EQ(snap.count("test/bad_edges2"), 0u);
}

TEST(ObsRegistry, ExponentialBucketsAscendStrictly) {
  const auto edges = obs::exponential_buckets(1, 1.3, 12);
  ASSERT_EQ(edges.size(), 12u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

// The registry half of the PR-1 determinism contract: identical work items
// produce identical merged readings at any thread count.
TEST(ObsRegistry, MergeIsThreadCountInvariant) {
  obs::Counter& c = obs::registry().counter("test/merge_counter");
  obs::Histogram& h =
      obs::registry().histogram("test/merge_hist", {4, 16, 64, 256});
  auto run = [&](unsigned threads) {
    const obs::Snapshot before = obs::registry().snapshot();
    ExecContext exec(threads);
    parallel_for(exec, 997, [&](std::size_t i) {
      c.add(i % 5);
      h.record((i * i) % 300);
    });
    return obs::snapshot_delta(obs::registry().snapshot(), before);
  };
  const obs::Snapshot one = run(1);
  const obs::Snapshot two = run(2);
  const obs::Snapshot eight = run(8);
  const std::string a = metrics_json(one, obs::Kind::kDeterministic);
  EXPECT_EQ(a, metrics_json(two, obs::Kind::kDeterministic));
  EXPECT_EQ(a, metrics_json(eight, obs::Kind::kDeterministic));
  EXPECT_EQ(one.at("test/merge_counter").value,
            eight.at("test/merge_counter").value);
  EXPECT_EQ(one.at("test/merge_hist").hist.counts,
            eight.at("test/merge_hist").hist.counts);
}

TEST(ObsRegistry, SnapshotDeltaSubtractsCountersKeepsGauges) {
  obs::Counter& c = obs::registry().counter("test/delta_counter");
  obs::Gauge& g = obs::registry().gauge("test/delta_gauge");
  c.add(5);
  g.set(11);
  const obs::Snapshot before = obs::registry().snapshot();
  c.add(3);
  g.set(13);
  const obs::Snapshot delta =
      obs::snapshot_delta(obs::registry().snapshot(), before);
  EXPECT_EQ(delta.at("test/delta_counter").value, 3u);
  EXPECT_EQ(delta.at("test/delta_gauge").value, 13u);
}

TEST(ObsRegistry, MetricsJsonIsValid) {
  obs::Registry reg;
  reg.counter("test/json_counter").add(2);
  reg.histogram("test/json_hist", {1, 2, 3}).record(2);
  reg.timing_histogram("test/json_timing").record(1234);
  const obs::Snapshot snap = reg.snapshot();
  const std::string det = metrics_json(snap, obs::Kind::kDeterministic);
  const std::string timing = metrics_json(snap, obs::Kind::kTiming);
  EXPECT_TRUE(json_valid(det)) << det;
  EXPECT_TRUE(json_valid(timing)) << timing;
  EXPECT_NE(det.find("\"test/json_counter\": 2"), std::string::npos);
  EXPECT_NE(timing.find("test/json_timing"), std::string::npos);
  // Kinds are disjoint sections.
  EXPECT_EQ(det.find("test/json_timing"), std::string::npos);
  EXPECT_EQ(timing.find("test/json_counter"), std::string::npos);
}

TEST(ObsRegistry, ScopedTimerRecordsIntoTimingHistogram) {
  const obs::Snapshot before = obs::registry().snapshot();
  {
    ScopedTimer t(obs::registry().timing_histogram("test/scoped_timer_ns"));
    EXPECT_GE(t.elapsed_ns(), 0u);
  }
  const obs::Snapshot after = obs::registry().snapshot();
  EXPECT_EQ(after.at("test/scoped_timer_ns").hist.count,
            (before.count("test/scoped_timer_ns")
                 ? before.at("test/scoped_timer_ns").hist.count
                 : 0) +
                1);
  EXPECT_EQ(after.at("test/scoped_timer_ns").kind, obs::Kind::kTiming);
}

// ---- tracing ----------------------------------------------------------------

struct ParsedSpan {
  std::string name;
  double ts = 0, dur = 0;
};

std::vector<ParsedSpan> parse_spans(const std::string& text) {
  // The exporter writes one event object per line; scrape name/ts/dur.
  std::vector<ParsedSpan> spans;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t name_at = line.find("\"name\": \"");
    const std::size_t ts_at = line.find("\"ts\": ");
    const std::size_t dur_at = line.find("\"dur\": ");
    if (name_at == std::string::npos || ts_at == std::string::npos ||
        dur_at == std::string::npos) {
      continue;
    }
    ParsedSpan s;
    const std::size_t name_from = name_at + 9;
    s.name = line.substr(name_from, line.find('"', name_from) - name_from);
    s.ts = std::strtod(line.c_str() + ts_at + 6, nullptr);
    s.dur = std::strtod(line.c_str() + dur_at + 7, nullptr);
    spans.push_back(std::move(s));
  }
  return spans;
}

TEST(ObsTrace, ChromeTraceIsValidJsonAndSpansNest) {
  const std::string path = "test_obs_trace.json";
  obs::start_tracing(path);
  ASSERT_TRUE(obs::tracing_active());
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner"); }
    { obs::TraceSpan inner2("inner2"); }
  }
  const std::size_t spans = obs::stop_tracing();
  EXPECT_FALSE(obs::tracing_active());
  EXPECT_EQ(spans, 3u);

  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text)) << text;
  const std::vector<ParsedSpan> parsed = parse_spans(text);
  ASSERT_EQ(parsed.size(), 3u);

  const auto find = [&](const std::string& name) {
    for (const ParsedSpan& s : parsed) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "span not found: " << name;
    return ParsedSpan{};
  };
  const ParsedSpan outer = find("outer");
  const ParsedSpan inner = find("inner");
  const ParsedSpan inner2 = find("inner2");
  // Lexical nesting must show as interval containment.
  EXPECT_LE(outer.ts, inner.ts);
  EXPECT_GE(outer.ts + outer.dur, inner.ts + inner.dur);
  EXPECT_LE(outer.ts, inner2.ts);
  EXPECT_GE(outer.ts + outer.dur, inner2.ts + inner2.dur);
  // inner ran before inner2.
  EXPECT_LE(inner.ts, inner2.ts);
  std::remove(path.c_str());
}

TEST(ObsTrace, SpansFromPoolWorkersAreCollected) {
  const std::string path = "test_obs_trace_pool.json";
  obs::start_tracing(path);
  ExecContext exec(4);
  parallel_for(exec, 32,
               [](std::size_t) { obs::TraceSpan span("pool_item"); });
  const std::size_t spans = obs::stop_tracing();
  EXPECT_EQ(spans, 32u);
  const std::string text = slurp(path);
  EXPECT_TRUE(json_valid(text));
  std::remove(path.c_str());
}

TEST(ObsTrace, InactiveSessionsAreFree) {
  ASSERT_FALSE(obs::tracing_active());
  { obs::TraceSpan span("dropped"); }
  EXPECT_EQ(obs::stop_tracing(), 0u);  // no session: no-op
}

// ---- Table::write_json ------------------------------------------------------

TEST(TableJson, WriteJsonIsValidAndRoundTrips) {
  Table t("Figure X: \"quoted\"", {"links", "LASH", "DFSSSP"});
  t.row().cell(140u).cell("1/2.00/3").cell("4/5.00/6");
  t.row().cell(700u).cell("-");  // short row pads
  std::ostringstream out;
  t.write_json(out);
  const std::string text = out.str();
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("[\"140\", \"1/2.00/3\", \"4/5.00/6\"]"),
            std::string::npos);
  EXPECT_NE(text.find("[\"700\", \"-\", \"\"]"), std::string::npos);

  const std::string path = "test_obs_table.json";
  t.write_json(path);
  EXPECT_TRUE(json_valid(slurp(path)));
  std::remove(path.c_str());
}

TEST(TableJson, EmptyTableIsValid) {
  Table t("empty", {"a", "b"});
  std::ostringstream out;
  t.write_json(out);
  EXPECT_TRUE(json_valid(out.str())) << out.str();
}

}  // namespace
}  // namespace dfsssp
