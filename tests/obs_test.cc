// Unit tests for the observability layer: the metric registry, snapshot
// deltas, trace span trees, and the LpStatus string round-trip.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "constraint/simplex.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "obs/trace.h"

namespace lyric {
namespace obs {
namespace {

TEST(RegistryTest, GetCounterReturnsSameInstance) {
  Counter& a = Registry::Global().GetCounter("test.same_instance");
  Counter& b = Registry::Global().GetCounter("test.same_instance");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "test.same_instance");
}

TEST(RegistryTest, CounterIsMonotonic) {
  Counter& c = Registry::Global().GetCounter("test.monotonic");
  uint64_t before = c.value();
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), before + 42);
}

TEST(RegistryTest, SnapshotDelta) {
  Counter& c = Registry::Global().GetCounter("test.delta");
  MetricsSnapshot before = Registry::Global().Snapshot();
  c.Increment(7);
  MetricsSnapshot after = Registry::Global().Snapshot();
  MetricsSnapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.counters.at("test.delta"), 7u);
}

TEST(RegistryTest, SnapshotJsonContainsMetrics) {
  Registry::Global().GetCounter("test.json_counter").Increment(3);
  Registry::Global().GetHistogram("test.json_histogram").Record(1000);
  std::string json = Registry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  Counter& c = Registry::Global().GetCounter("test.concurrent");
  uint64_t before = c.value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    // Each thread re-fetches the counter by name, exercising the
    // registry's get-or-create lock under contention too.
    threads.emplace_back([] {
      Counter& mine = Registry::Global().GetCounter("test.concurrent");
      for (int k = 0; k < kIncrements; ++k) mine.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), before + kThreads * kIncrements);
}

TEST(RegistryTest, CountMacroIncrements) {
  uint64_t before =
      Registry::Global().GetCounter("test.macro_counter").value();
  LYRIC_OBS_COUNT("test.macro_counter");
  LYRIC_OBS_COUNT_N("test.macro_counter", 4);
  EXPECT_EQ(Registry::Global().GetCounter("test.macro_counter").value(),
            before + 5);
}

TEST(TraceTest, SpanWithoutCollectorIsNoOp) {
  Span span("orphan");  // Must not crash or allocate a tree anywhere.
  SUCCEED();
}

TEST(TraceTest, CollectsNestedSpans) {
  TraceCollector collector;
  QueryContext context;
  context.trace = &collector;
  {
    QueryContextScope scope(&context);
    {
      Span outer("from");
      Span inner("where");
    }
    Span select("select");
  }
  Span after("after");  // The context is gone: records nowhere.
  const SpanNode& root = collector.root();
  EXPECT_EQ(root.name, "query");
  ASSERT_EQ(root.children.size(), 2u);
  const SpanNode* from = root.FindChild("from");
  ASSERT_NE(from, nullptr);
  EXPECT_NE(from->FindChild("where"), nullptr);
  EXPECT_NE(root.FindChild("select"), nullptr);
  EXPECT_EQ(root.CountChildren("from"), 1u);
  EXPECT_EQ(root.CountChildren("nope"), 0u);
}

TEST(TraceTest, ChromeTraceJsonShape) {
  TraceCollector collector;
  QueryContext context;
  context.trace = &collector;
  {
    QueryContextScope scope(&context);
    Span s("parse");
  }
  collector.Finish();
  std::string json = collector.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
}

TEST(TraceTest, PrettyStringListsStages) {
  TraceCollector collector;
  QueryContext context;
  context.trace = &collector;
  {
    QueryContextScope scope(&context);
    Span s("from");
  }
  collector.Finish();
  std::string pretty = collector.ToPrettyString();
  EXPECT_NE(pretty.find("query"), std::string::npos);
  EXPECT_NE(pretty.find("from"), std::string::npos);
}

TEST(TraceTest, ContextScopesNest) {
  TraceCollector outer_collector;
  TraceCollector inner_collector;
  QueryContext outer_context;
  outer_context.trace = &outer_collector;
  QueryContext inner_context;
  inner_context.trace = &inner_collector;
  {
    QueryContextScope outer(&outer_context);
    {
      QueryContextScope inner(&inner_context);
      EXPECT_EQ(QueryContext::Current(), &inner_context);
      Span s("inner_stage");
    }
    EXPECT_EQ(QueryContext::Current(), &outer_context);
    Span s("outer_stage");
  }
  EXPECT_EQ(QueryContext::Current(), nullptr);
  { Span s("orphan"); }
  EXPECT_NE(inner_collector.root().FindChild("inner_stage"), nullptr);
  EXPECT_EQ(inner_collector.root().children.size(), 1u);
  EXPECT_NE(outer_collector.root().FindChild("outer_stage"), nullptr);
  EXPECT_EQ(outer_collector.root().children.size(), 1u);
}

TEST(LpStatusTest, StringRoundTrip) {
  for (LpStatus s : {LpStatus::kOptimal, LpStatus::kInfeasible,
                     LpStatus::kUnbounded}) {
    auto back = LpStatusFromString(LpStatusToString(s));
    ASSERT_TRUE(back.has_value()) << LpStatusToString(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(LpStatusFromString("no-such-status").has_value());
  EXPECT_FALSE(LpStatusFromString("").has_value());
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
}

// Golden escaping table: every class of byte the Chrome-trace exporter
// can meet (span names come from query text via indexed spans). The
// escaped form must parse as a JSON string literal — quotes and
// backslashes escaped, control characters as \u00xx, invalid UTF-8
// replaced, never passed through raw.
TEST(JsonEscapeTest, GoldenEscapes) {
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape(std::string("a\x01")), "a\\u0001");
  EXPECT_EQ(JsonEscape(std::string("\x1f")), "\\u001f");
  EXPECT_EQ(JsonEscape(std::string("\x7f")), "\\u007f");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape("say \"hi\"\\now"), "say \\\"hi\\\"\\\\now");
  // Well-formed UTF-8 passes through untouched.
  EXPECT_EQ(JsonEscape("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(JsonEscape("\xE2\x86\x92"), "\xE2\x86\x92");  // U+2192 arrow
  // Invalid bytes are replaced with U+FFFD, one per bad byte.
  EXPECT_EQ(JsonEscape(std::string("\xFF")), "\xEF\xBF\xBD");
  EXPECT_EQ(JsonEscape(std::string("\xC0\xAF")),  // overlong encoding
            "\xEF\xBF\xBD\xEF\xBF\xBD");
  EXPECT_EQ(JsonEscape(std::string("\xC3")), "\xEF\xBF\xBD");  // truncated
  EXPECT_EQ(JsonEscape(std::string("\xED\xA0\x80")),  // UTF-16 surrogate
            "\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD");
}

TEST(GaugeTest, SetAddAndSnapshot) {
  Gauge& g = Registry::Global().GetGauge("test.gauge_basic");
  g.Set(42);
  g.Add(-2);
  EXPECT_EQ(g.value(), 40);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.gauges.at("test.gauge_basic"), 40);
  g.Set(-7);  // Gauges are signed; negative values survive the snapshot.
  EXPECT_EQ(Registry::Global().Snapshot().gauges.at("test.gauge_basic"), -7);
}

TEST(GaugeTest, DeltaKeepsLaterValue) {
  Gauge& g = Registry::Global().GetGauge("test.gauge_delta");
  g.Set(5);
  MetricsSnapshot before = Registry::Global().Snapshot();
  g.Set(3);
  MetricsSnapshot delta = Registry::Global().Snapshot().DeltaSince(before);
  // Point-in-time semantics: a delta reports the current reading, not a
  // meaningless subtraction.
  EXPECT_EQ(delta.gauges.at("test.gauge_delta"), 3);
}

TEST(HistogramTest, BucketIndexExactBelowSixteen) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), static_cast<size_t>(v));
    EXPECT_EQ(Histogram::BucketUpperEdge(v), v);
  }
}

TEST(HistogramTest, BucketEdgesContainTheirValues) {
  // Every value must land in a bucket whose upper edge is >= the value
  // and whose predecessor's upper edge is < the value, across the full
  // uint64 range (powers of two are the boundary-heavy cases).
  std::vector<uint64_t> samples;
  for (int p = 0; p < 64; ++p) {
    uint64_t v = uint64_t{1} << p;
    samples.push_back(v);
    samples.push_back(v - 1);
    samples.push_back(v + 1);
    samples.push_back(v + v / 3);
  }
  samples.push_back(UINT64_MAX);
  for (uint64_t v : samples) {
    size_t idx = Histogram::BucketIndex(v);
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    EXPECT_GE(Histogram::BucketUpperEdge(idx), v) << v;
    if (idx > 0) {
      EXPECT_LT(Histogram::BucketUpperEdge(idx - 1), v) << v;
    }
  }
}

TEST(HistogramTest, PercentilesOfUniformDistribution) {
  Histogram& h = Registry::Global().GetHistogram("test.hist_uniform");
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  const auto& stats = snap.histograms.at("test.hist_uniform");
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_EQ(stats.sum, 500500u);
  EXPECT_EQ(stats.max, 1000u);
  EXPECT_EQ(stats.mean(), 500u);
  // Log-linear contract: the reported quantile is the bucket upper edge,
  // so it is >= the true order statistic and within one sub-bucket
  // (1/16th of magnitude) above it.
  struct { double q; uint64_t truth; } cases[] = {
      {0.50, 500}, {0.90, 900}, {0.99, 990}, {0.999, 999}};
  for (const auto& c : cases) {
    uint64_t got = stats.ValueAtQuantile(c.q);
    EXPECT_GE(got, c.truth) << c.q;
    EXPECT_LE(got, c.truth + c.truth / 8 + 1) << c.q;
  }
}

TEST(HistogramTest, SmallSampleHighQuantilesAreExact) {
  Histogram& h = Registry::Global().GetHistogram("test.hist_small");
  h.Record(3);
  h.Record(7);
  h.Record(11);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  const auto& stats = snap.histograms.at("test.hist_small");
  // Values below 16 get exact buckets, and high quantiles clamp to the
  // observed max — small samples report exact order statistics.
  EXPECT_EQ(stats.p50(), 7u);
  EXPECT_EQ(stats.p90(), 11u);
  EXPECT_EQ(stats.p99(), 11u);
  EXPECT_EQ(stats.p999(), 11u);
  EXPECT_EQ(stats.ValueAtQuantile(0.0), 3u);
}

TEST(HistogramTest, SingleValueReportsItselfEverywhere) {
  Histogram& h = Registry::Global().GetHistogram("test.hist_single");
  h.Record(123456789);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  const auto& stats = snap.histograms.at("test.hist_single");
  // The max clamp makes every quantile of a single sample exact even
  // though the value itself sits mid-bucket.
  EXPECT_EQ(stats.p50(), 123456789u);
  EXPECT_EQ(stats.p999(), 123456789u);
  EXPECT_EQ(stats.max, 123456789u);
}

TEST(HistogramTest, DeltaSubtractsBuckets) {
  Histogram& h = Registry::Global().GetHistogram("test.hist_delta");
  for (int i = 0; i < 100; ++i) h.Record(10);
  MetricsSnapshot before = Registry::Global().Snapshot();
  for (int i = 0; i < 50; ++i) h.Record(1000000);
  MetricsSnapshot delta = Registry::Global().Snapshot().DeltaSince(before);
  const auto& stats = delta.histograms.at("test.hist_delta");
  // Only the interval's recordings remain, so the delta's percentiles
  // describe just the new values.
  EXPECT_EQ(stats.count, 50u);
  EXPECT_GE(stats.p50(), 1000000u);
}

// The registry under concurrent get-or-create, recording, and snapshot
// readers — the TSan CI job runs this binary, so a data race anywhere in
// the counter/gauge/histogram hot paths or the snapshot copy fails there.
TEST(RegistryTest, ConcurrentGetRecordAndSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  Histogram& h = Registry::Global().GetHistogram("test.conc_mixed_hist");
  MetricsSnapshot before = Registry::Global().Snapshot();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        Registry::Global()
            .GetHistogram("test.conc_mixed_hist")
            .Record(static_cast<uint64_t>(i));
        Registry::Global().GetCounter("test.conc_mixed_counter").Increment();
        Registry::Global()
            .GetGauge("test.conc_mixed_gauge")
            .Set(static_cast<int64_t>(i));
        if (i % 256 == t) {
          MetricsSnapshot snap = Registry::Global().Snapshot();
          // Reader sees an atomically-copied value set; count can lag sum
          // but the structures themselves must be coherent.
          EXPECT_LE(snap.histograms.at("test.conc_mixed_hist").count,
                    static_cast<uint64_t>(kThreads) * kIters);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MetricsSnapshot delta = Registry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.histograms.at("test.conc_mixed_hist").count,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(delta.counters.at("test.conc_mixed_counter"),
            static_cast<uint64_t>(kThreads) * kIters);
  (void)h;
}

TEST(PrometheusTest, ExportIsWellFormedAndCarriesSeries) {
  Registry::Global().GetCounter("test.prom.counter").Increment(3);
  Registry::Global().GetGauge("test.prom.gauge").Set(-4);
  Histogram& h = Registry::Global().GetHistogram("test.prom.hist");
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 1000);
  std::string text = Registry::Global().ExportPrometheus();
  std::string error;
  EXPECT_TRUE(ValidatePrometheusExposition(text, &error)) << error;
  // Names are sanitized into the lyric_ namespace; counters get _total,
  // histograms become summaries with quantile series in nanoseconds.
  EXPECT_NE(text.find("lyric_test_prom_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("lyric_test_prom_gauge -4"), std::string::npos);
  EXPECT_NE(text.find("lyric_test_prom_hist_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lyric_test_prom_hist_ns{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lyric_test_prom_hist_ns_count 100"),
            std::string::npos);
  EXPECT_NE(text.find("lyric_test_prom_hist_ns_max 100000"),
            std::string::npos);
}

TEST(PrometheusValidatorTest, AcceptsWellFormedLines) {
  std::string error;
  EXPECT_TRUE(ValidatePrometheusExposition("", &error)) << error;
  EXPECT_TRUE(ValidatePrometheusExposition(
      "# HELP foo help text\n# TYPE foo counter\nfoo 1\n"
      "bar{quantile=\"0.5\"} 2.5\nbar{quantile=\"0.9\"} 3\n"
      "bar_sum 10\nbar_count 4\nbaz +Inf\nqux 1.5e9 1700000000\n",
      &error))
      << error;
}

TEST(PrometheusValidatorTest, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(ValidatePrometheusExposition("9leading_digit 1\n", &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ValidatePrometheusExposition("foo bar\n", &error));
  EXPECT_FALSE(ValidatePrometheusExposition("foo\n", &error));
  EXPECT_FALSE(ValidatePrometheusExposition("foo{a=\"b} 1\n", &error));
  EXPECT_FALSE(ValidatePrometheusExposition("foo{a=\"b\" 1\n", &error));
}

TEST(PrometheusValidatorTest, RejectsDuplicateSeries) {
  std::string error;
  EXPECT_FALSE(ValidatePrometheusExposition("foo 1\nfoo 2\n", &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  // Same name with different labels is a different series — allowed.
  EXPECT_TRUE(ValidatePrometheusExposition(
      "foo{q=\"a\"} 1\nfoo{q=\"b\"} 2\n", &error))
      << error;
}

}  // namespace
}  // namespace obs
}  // namespace lyric
