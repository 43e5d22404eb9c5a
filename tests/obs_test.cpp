// Unit tests for the observability layer (src/obs/): trace-span nesting and
// cross-thread ordering, histogram bucket geometry and percentile math,
// counter overflow semantics, and well-formedness of the exported
// Chrome/Perfetto trace JSON (parsed back with the repo's own JSON parser).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/json.h"

namespace record::obs {
namespace {

// Every trace test owns the process-wide tracer for its duration: start from
// an empty buffer, and leave tracing off for whoever runs next.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().clear();
    Tracer::instance().enable();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

const TraceEvent* find_event(const std::vector<TraceEvent>& events,
                             std::string_view name) {
  for (const TraceEvent& e : events)
    if (e.name == name) return &e;
  return nullptr;
}

// --- spans -----------------------------------------------------------------

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  {
    Span outer("outer");
    outer.note("k", "v");
    {
      Span inner("inner");
      { OBS_SPAN("leaf"); }
    }
  }
  std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);

  const TraceEvent* outer = find_event(events, "outer");
  const TraceEvent* inner = find_event(events, "inner");
  const TraceEvent* leaf = find_event(events, "leaf");
  ASSERT_TRUE(outer && inner && leaf);

  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(leaf->depth, 2u);
  EXPECT_EQ(outer->tid, inner->tid);

  // Timestamp containment: child starts and ends within the parent.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);
  EXPECT_GE(leaf->start_ns, inner->start_ns);

  // snapshot() is start-ordered: the outer span opened first.
  EXPECT_EQ(events.front().name, "outer");
  ASSERT_EQ(outer->args.size(), 1u);
  EXPECT_EQ(outer->args[0].first, "k");
  EXPECT_EQ(outer->args[0].second, "v");
}

TEST_F(TraceTest, EndClosesEarlyAndIsIdempotent) {
  Span a("first");
  a.end();
  Span b("second");
  a.end();  // no second event
  b.end();
  std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // "first" ended before "second" opened, so they do not nest.
  const TraceEvent* first = find_event(events, "first");
  const TraceEvent* second = find_event(events, "second");
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->depth, second->depth);
  EXPECT_GE(second->start_ns, first->start_ns + first->dur_ns);
}

TEST_F(TraceTest, ThreadsGetDistinctTracksWithLocalNesting) {
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      Span outer(("thread" + std::to_string(t)).c_str());
      OBS_SPAN("work");
    });
  for (std::thread& th : threads) th.join();

  std::vector<TraceEvent> events = Tracer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u * kThreads);
  for (int t = 0; t < kThreads; ++t) {
    const TraceEvent* outer =
        find_event(events, "thread" + std::to_string(t));
    ASSERT_TRUE(outer);
    // Depth counters are thread-local: every thread's root span is depth 0,
    // and its nested span (same tid) is depth 1.
    EXPECT_EQ(outer->depth, 0u);
    for (const TraceEvent& e : events) {
      if (e.name == "work" && e.tid == outer->tid) {
        EXPECT_EQ(e.depth, 1u);
      }
    }
  }
  // Threads were registered as distinct tracks.
  std::vector<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::instance().disable();
  {
    Span s("ghost");
    s.note("k", std::int64_t{1});
  }
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
}

TEST_F(TraceTest, RecentReturnsLastCompletedSpans) {
  for (int i = 0; i < 5; ++i) {
    Span s(("s" + std::to_string(i)).c_str());
  }
  std::vector<TraceEvent> last = Tracer::instance().recent(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].name, "s3");  // oldest-first within the window
  EXPECT_EQ(last[1].name, "s4");
  // A parent completes after its children: recent(1) sees the parent.
  {
    Span outer("outer");
    OBS_SPAN("inner");
  }
  std::vector<TraceEvent> one = Tracer::instance().recent(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].name, "outer");
}

// --- Chrome/Perfetto export -------------------------------------------------

TEST_F(TraceTest, ChromeTraceJsonParsesBackWithEscapes) {
  {
    Span s("select \"label\"");                  // quotes in the name
    s.note("path", "a\\b\nc");                   // backslash + newline value
    s.note("nodes", std::int64_t{42});
    OBS_SPAN("child");
  }
  std::string json = Tracer::instance().chrome_trace_json();

  std::string error;
  std::optional<service::Json> parsed = service::Json::parse(json, &error);
  ASSERT_TRUE(parsed) << "trace JSON does not parse: " << error;
  ASSERT_TRUE(parsed->is_object());
  const service::Json& events = (*parsed)["traceEvents"];
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.size(), 2u);

  bool saw_named = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const service::Json& e = events.at(i);
    EXPECT_EQ(e["ph"].as_string(), "X");  // complete events only
    EXPECT_EQ(e["ts"].kind(), service::Json::Kind::Number);
    EXPECT_EQ(e["dur"].kind(), service::Json::Kind::Number);
    EXPECT_EQ(e["pid"].kind(), service::Json::Kind::Number);
    EXPECT_EQ(e["tid"].kind(), service::Json::Kind::Number);
    if (e["name"].as_string() == "select \"label\"") {
      saw_named = true;
      EXPECT_EQ(e["args"]["path"].as_string(), "a\\b\nc");
      EXPECT_EQ(e["args"]["nodes"].as_string(), "42");
    }
  }
  EXPECT_TRUE(saw_named);
}

// --- counters / gauges ------------------------------------------------------

TEST(MetricsTest, CounterWrapsModulo64Bits) {
  Counter c;
  c.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
  c.add(2);  // documented: wraps modulo 2^64 (consumers diff snapshots)
  EXPECT_EQ(c.value(), 1u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsTest, RegistryHandsOutStableNamedMetrics) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(&reg.counter("x"), &a);  // same storage on re-lookup
  reg.gauge("g").set(-7);
  reg.histogram("h").record(5);

  MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "x");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

// --- histogram geometry -----------------------------------------------------

TEST(HistogramTest, BucketBoundariesTileThePositiveRange) {
  // Exact region: one bucket per value below kLinearLimit.
  for (std::int64_t v = 0; v < Histogram::kLinearLimit; ++v)
    EXPECT_EQ(Histogram::bucket_of(v), static_cast<std::size_t>(v));
  EXPECT_EQ(Histogram::bucket_of(-5), 0u);  // negatives clamp

  // Every bucket's [lo, hi] range maps back to that bucket, and hi+1 lands
  // in the next one — no gaps, no overlaps, over the whole int64 span.
  for (std::size_t i = 0; i + 1 < Histogram::kBucketCount; ++i) {
    auto [lo, hi] = Histogram::bucket_range(i);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(Histogram::bucket_of(lo), i) << "lo of bucket " << i;
    EXPECT_EQ(Histogram::bucket_of(hi), i) << "hi of bucket " << i;
    EXPECT_EQ(Histogram::bucket_of(hi + 1), i + 1) << "succ of bucket " << i;
    auto [next_lo, next_hi] = Histogram::bucket_range(i + 1);
    EXPECT_EQ(next_lo, hi + 1);
    (void)next_hi;
  }
  auto [top_lo, top_hi] = Histogram::bucket_range(Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_of(top_lo), Histogram::kBucketCount - 1);
  EXPECT_EQ(top_hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Histogram::bucket_of(top_hi), Histogram::kBucketCount - 1);

  // Log region keeps ~12.5% relative resolution: 8 sub-buckets per octave.
  auto [lo64, hi64] = Histogram::bucket_range(Histogram::bucket_of(64));
  EXPECT_EQ(lo64, 64);
  EXPECT_EQ(hi64, 71);
}

TEST(HistogramTest, ExactStatsInTheLinearRegion) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0);  // empty
  for (int i = 0; i < 90; ++i) h.record(1);
  for (int i = 0; i < 10; ++i) h.record(10);
  HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 190);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.mean, 1.9);
  // Below kLinearLimit every value has its own bucket: exact percentiles.
  EXPECT_EQ(s.p50, 1);
  EXPECT_EQ(s.p90, 1);
  EXPECT_EQ(s.p99, 10);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.stats().min, 0);
}

TEST(HistogramTest, QuantilesWithinBucketResolutionAbove) {
  // Uniform 0..9999: p50 ~ 5000, p90 ~ 9000, p99 ~ 9900, all within one
  // log sub-bucket (12.5% relative error bound).
  Histogram h;
  for (std::int64_t v = 0; v < 10000; ++v) h.record(v);
  HistogramStats s = h.stats();
  EXPECT_NEAR(static_cast<double>(s.p50), 5000.0, 5000.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(s.p90), 9000.0, 9000.0 * 0.125);
  EXPECT_NEAR(static_cast<double>(s.p99), 9900.0, 9900.0 * 0.125);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 9999);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(1.0));
  // q=1 lands in the bucket holding the maximum recorded value.
  EXPECT_GE(h.quantile(1.0), Histogram::bucket_range(
                                 Histogram::bucket_of(9999)).first);
}

TEST_F(TraceTest, HostileNamesSurviveAsValidJsonAndUtf8) {
  // Control characters, a raw DEL byte, and an INVALID UTF-8 sequence
  // (lone continuation byte + truncated lead byte). Strict JSON consumers
  // reject unescaped control bytes and invalid UTF-8, so the export must
  // neutralise all of them.
  const std::string hostile = std::string("sel\x01\x7f\"quoted\"\\") +
                              '\x80' + '\xC3';  // invalid UTF-8 tail
  {
    Span s(hostile.c_str());
    s.note(hostile, hostile);
  }
  std::string json = Tracer::instance().chrome_trace_json();

  std::string error;
  std::optional<service::Json> parsed = service::Json::parse(json, &error);
  ASSERT_TRUE(parsed) << "trace JSON does not parse: " << error;
  // Invalid UTF-8 input bytes were \u00XX-escaped, and the hostile string
  // contained no VALID multi-byte sequences — so the whole export is ASCII.
  for (unsigned char c : json)
    EXPECT_LT(c, 0x80u) << "raw non-ASCII byte leaked into the export";
  // Round-trip: the name survives with its control/quote/backslash portion
  // intact (the invalid bytes come back as U+0080/U+00C3 code points, which
  // is the documented lossy-but-valid mapping).
  const service::Json& e = (*parsed)["traceEvents"].at(0);
  EXPECT_EQ(e["name"].as_string().substr(0, hostile.size() - 2),
            hostile.substr(0, hostile.size() - 2));
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4, kPer = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPer; ++i) h.record(i % 100);
    });
  for (std::thread& th : threads) th.join();
  HistogramStats s = h.stats();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 99);
}

// --- selection coverage -----------------------------------------------------

CoverageMap::Config small_config() {
  CoverageMap::Config c;
  c.rules = 4;
  c.states = 3;
  c.transitions = 3;
  c.rule_names = {"r0", "r1", "r2", "r3"};
  return c;
}

TEST(CoverageTest, RecordsHitsDistinctAndOverflow) {
  CoverageMap map("t", small_config());
  map.record_rule_matched(0);
  map.record_rule_matched(0);
  map.record_rule_matched(2);
  map.record_rule_chosen(2);
  map.record_state(1);
  map.record_transition(0);
  map.record_transition(7);   // beyond capacity -> overflow, not UB
  map.record_rule_chosen(-1); // negative ids overflow too
  map.record_cold_transition();
  map.record_variant(CoverageVariant::kCompactMerge, 5);
  map.record_variant(CoverageVariant::kSpillPark, 0);  // no-op

  CoverageDistinct d = map.distinct();
  EXPECT_EQ(d.rules_matched, 2u);
  EXPECT_EQ(d.rules_chosen, 1u);
  EXPECT_EQ(d.states, 1u);
  EXPECT_EQ(d.transitions, 1u);
  EXPECT_EQ(d.total(), 5u);

  CoverageSnapshot s = map.snapshot();
  EXPECT_EQ(s.target, "t");
  EXPECT_EQ(s.counts.rules_matched[0], 2u);
  EXPECT_EQ(s.counts.rules_matched[2], 1u);
  EXPECT_EQ(s.rules_matched_covered(), 2u);
  EXPECT_EQ(s.rules_chosen_covered(), 1u);
  EXPECT_EQ(s.states_covered(), 1u);
  EXPECT_EQ(s.transitions_covered(), 1u);
  EXPECT_EQ(s.counts.transition_overflow, 1u);
  EXPECT_EQ(s.counts.cold_transitions, 1u);
  EXPECT_EQ(s.counts.variants[static_cast<std::size_t>(
                CoverageVariant::kCompactMerge)],
            5u);
  EXPECT_EQ(s.counts.variants[static_cast<std::size_t>(
                CoverageVariant::kSpillPark)],
            0u);
  // Uncovered = never CHOSEN: rules 0, 1, 3 (2 was chosen).
  EXPECT_EQ(s.uncovered_rules(), (std::vector<int>{0, 1, 3}));
}

TEST(CoverageTest, DiffSubtractsAndMergeAccumulates) {
  CoverageMap map("t", small_config());
  map.record_rule_chosen(0);
  CoverageSnapshot before = map.snapshot();
  map.record_rule_chosen(0);
  map.record_rule_chosen(1);
  map.record_state(2);
  // The first id source to claim the map owns it; any other is foreign.
  EXPECT_TRUE(map.claim_ids(7));
  EXPECT_FALSE(map.claim_ids(8));
  EXPECT_TRUE(map.claim_ids(7));
  map.record_foreign_id();
  map.record_foreign_id();
  CoverageSnapshot after = map.snapshot();
  EXPECT_EQ(after.counts.foreign_ids, 2u);
  EXPECT_NE(coverage_report_text(after).find(
                "ids from other tables instances: 2"),
            std::string::npos);

  CoverageSnapshot delta = coverage_diff(before, after);
  EXPECT_EQ(delta.counts.rules_chosen[0], 1u);
  EXPECT_EQ(delta.counts.rules_chosen[1], 1u);
  EXPECT_EQ(delta.counts.states[2], 1u);
  EXPECT_EQ(delta.counts.foreign_ids, 2u);
  EXPECT_EQ(delta.rules_chosen_covered(), 2u);

  // Merging the delta back onto `before` reproduces `after`'s counts.
  CoverageSnapshot total = before;
  coverage_merge(total, delta);
  EXPECT_EQ(total.counts.rules_chosen, after.counts.rules_chosen);
  EXPECT_EQ(total.counts.states, after.counts.states);
  EXPECT_EQ(total.counts.foreign_ids, after.counts.foreign_ids);
  EXPECT_EQ(total.rules_total, 4u);
}

TEST(CoverageTest, RegistryCreatesOncePerTargetAndSnapshotsSorted) {
  CoverageRegistry reg;
  int factory_calls = 0;
  auto factory = [&factory_calls] {
    ++factory_calls;
    return small_config();
  };
  CoverageMap& b = reg.map_for("bravo", factory);
  CoverageMap& a = reg.map_for("alpha", factory);
  EXPECT_EQ(&reg.map_for("bravo", factory), &b);  // no second factory run
  EXPECT_EQ(factory_calls, 2);
  EXPECT_EQ(reg.find("alpha"), &a);
  EXPECT_EQ(reg.find("missing"), nullptr);

  a.record_rule_chosen(1);
  std::vector<CoverageSnapshot> all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].target, "alpha");  // name-sorted
  EXPECT_EQ(all[1].target, "bravo");

  reg.clear();
  EXPECT_EQ(reg.find("alpha"), nullptr);
  EXPECT_TRUE(reg.snapshot_all().empty());
}

TEST(CoverageTest, ConcurrentHitsLoseNothing) {
  CoverageMap::Config c;
  c.rules = 64;
  c.states = 64;
  c.transitions = 64;
  CoverageMap map("t", std::move(c));
  constexpr int kThreads = 4, kPer = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&map] {
      for (int i = 0; i < kPer; ++i) {
        map.record_rule_chosen(i % 64);
        map.record_transition(i % 7);
      }
    });
  for (std::thread& th : threads) th.join();
  CoverageSnapshot s = map.snapshot();
  std::uint64_t rule_hits = 0;
  for (std::uint64_t h : s.counts.rules_chosen) rule_hits += h;
  EXPECT_EQ(rule_hits, static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_EQ(map.distinct().rules_chosen, 64u);
  EXPECT_EQ(map.distinct().transitions, 7u);
}

TEST(CoverageTest, ReportJsonParsesWithHostileTargetName) {
  CoverageMap map("gen\"x\"\x01\\", small_config());
  map.record_rule_chosen(0);
  std::string json = coverage_report_json({map.snapshot()});
  std::string error;
  std::optional<service::Json> parsed = service::Json::parse(json, &error);
  ASSERT_TRUE(parsed) << "coverage JSON does not parse: " << error;
  const service::Json& t = (*parsed)["coverage"].at(0);
  EXPECT_EQ(t["target"].as_string(), "gen\"x\"\x01\\");
  EXPECT_EQ(t["rules_chosen"]["covered"].as_number(), 1.0);
  EXPECT_EQ(t["rules_chosen"]["total"].as_number(), 4.0);

  std::string text = coverage_report_text(map.snapshot());
  EXPECT_NE(text.find("rules chosen"), std::string::npos);
  EXPECT_NE(text.find("#1  r1"), std::string::npos);  // uncovered, by name
}

}  // namespace
}  // namespace record::obs
