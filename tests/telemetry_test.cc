// Tests for the telemetry layer: histogram bucket boundaries, counter
// aggregation across threads (meaningful under TSan), span-tree nesting,
// the ConvergenceTrace ring buffer, and a golden-file check that ToJson
// under a FakeClock is byte-stable.

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "common/telemetry.h"
#include "core/instrumentation.h"

namespace clustagg {
namespace {

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  // Every bucket edge: 2^k - 1 lands in bucket k, 2^k in bucket k + 1.
  for (std::size_t k = 1; k < 64; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketIndex(edge - 1), k);
    EXPECT_EQ(Histogram::BucketIndex(edge), k + 1);
    EXPECT_EQ(Histogram::BucketLowerBound(k + 1), edge);
  }
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(~std::uint64_t{0}), 64u);
}

TEST(HistogramTest, ObserveFillsCountSumAndBuckets) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // the 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // the 1
  EXPECT_EQ(h.bucket_count(3), 2u);  // the 5s, [4, 8)
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(TelemetryTest, CountersAggregateExactlyAcrossThreads) {
  Telemetry telemetry;
  Counter* counter = telemetry.counter("shared");
  Histogram* histogram = telemetry.histogram("latency");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&telemetry, counter, histogram, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter->Add(1);
        histogram->Observe(static_cast<std::uint64_t>(t));
        // Registry lookups from workers must also be safe: same name
        // resolves to the same cell regardless of thread.
        telemetry.counter("shared")->Add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter->value(),
            static_cast<std::uint64_t>(2 * kThreads * kAddsPerThread));
  EXPECT_EQ(histogram->count(),
            static_cast<std::uint64_t>(kThreads * kAddsPerThread));
}

TEST(TelemetryTest, GaugeIsLastWriteWins) {
  Telemetry telemetry;
  Gauge* g = telemetry.gauge("g");
  g->Set(7);
  g->Set(-3);
  EXPECT_EQ(g->value(), -3);
  EXPECT_EQ(telemetry.gauge("g"), g);
}

TEST(TelemetryTest, SpanTreeRecordsNestingAndTimes) {
  FakeClock clock(100, 10);
  Telemetry telemetry(&clock);
  const std::size_t root = telemetry.BeginSpan("aggregate");  // t = 100
  const std::size_t build = telemetry.BeginSpan("build");     // t = 110
  telemetry.EndSpan(build);                                   // t = 120
  const std::size_t cluster = telemetry.BeginSpan("cluster");  // t = 130
  telemetry.EndSpan(cluster);                                  // t = 140
  telemetry.EndSpan(root);                                     // t = 150

  const std::vector<Span> spans = telemetry.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "aggregate");
  EXPECT_EQ(spans[0].parent, Span::kNoParent);
  EXPECT_EQ(spans[0].start_nanos, 100u);
  EXPECT_EQ(spans[0].end_nanos, 150u);
  EXPECT_EQ(spans[1].name, "build");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].start_nanos, 110u);
  EXPECT_EQ(spans[1].end_nanos, 120u);
  EXPECT_EQ(spans[2].name, "cluster");
  EXPECT_EQ(spans[2].parent, root);
}

TEST(TelemetryTest, EndSpanClosesOrphanedChildren) {
  FakeClock clock(0, 1);
  Telemetry telemetry(&clock);
  const std::size_t outer = telemetry.BeginSpan("outer");
  telemetry.BeginSpan("left-open");
  telemetry.EndSpan(outer);
  const std::vector<Span> spans = telemetry.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // The child the caller forgot (e.g. a sampling phase cut short by the
  // budget) is closed by the enclosing EndSpan, not left dangling.
  EXPECT_NE(spans[1].end_nanos, 0u);
  EXPECT_LE(spans[1].end_nanos, spans[0].end_nanos);
}

TEST(ConvergenceTraceTest, RingKeepsLatestPointsAndCountsDropped) {
  ConvergenceTrace trace(4);
  for (std::uint64_t step = 0; step < 10; ++step) {
    trace.Record(step, static_cast<double>(step) * 0.5, step);
  }
  EXPECT_EQ(trace.dropped(), 6u);
  const std::vector<ConvergencePoint> points = trace.Points();
  ASSERT_EQ(points.size(), 4u);
  // Oldest first, and the *latest* four survive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(points[i].step, 6 + i);
    EXPECT_DOUBLE_EQ(points[i].value, (6.0 + i) * 0.5);
    EXPECT_EQ(points[i].aux, 6 + i);
  }
}

TEST(ConvergenceTraceTest, UnderCapacityKeepsEverythingInOrder) {
  Telemetry telemetry;
  ConvergenceTrace* trace = telemetry.trace("t", 8);
  trace->Record(0, 1.0);
  trace->Record(1, 0.5);
  EXPECT_EQ(trace->dropped(), 0u);
  const std::vector<ConvergencePoint> points = trace->Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].step, 0u);
  EXPECT_EQ(points[1].step, 1u);
  // Same name returns the same trace; capacity sticks from first use.
  EXPECT_EQ(telemetry.trace("t"), trace);
}

// Golden-file test: the full JSON rendering under a FakeClock. Brittle
// on purpose — the JSON shape is the machine-readable contract
// documented in docs/observability.md, so a change here must be a
// deliberate format change.
TEST(TelemetryTest, ToJsonIsByteStableUnderFakeClock) {
  const auto render = [] {
    FakeClock clock(0, 1000);
    Telemetry telemetry(&clock);
    const std::size_t root = telemetry.BeginSpan("aggregate");
    const std::size_t build = telemetry.BeginSpan("build_instance");
    telemetry.EndSpan(build);
    telemetry.EndSpan(root);
    telemetry.counter("balls.clusters_opened")->Add(3);
    telemetry.gauge("aggregate.num_objects")->Set(128);
    telemetry.histogram("build.dense_nanos")->Observe(5);
    telemetry.trace("localsearch", 4)->Record(0, 2.25, 3);
    return telemetry.ToJson();
  };
  const std::string kGolden =
      "{\n"
      "  \"spans\": [\n"
      "    {\"name\": \"aggregate\", \"parent\": -1, \"start_ns\": 0, "
      "\"end_ns\": 3000},\n"
      "    {\"name\": \"build_instance\", \"parent\": 0, \"start_ns\": "
      "1000, \"end_ns\": 2000}\n"
      "  ],\n"
      "  \"counters\": {\n"
      "    \"balls.clusters_opened\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"aggregate.num_objects\": 128\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"build.dense_nanos\": {\"count\": 1, \"sum\": 5, \"buckets\": "
      "[{\"lo\": 4, \"n\": 1}]}\n"
      "  },\n"
      "  \"traces\": {\n"
      "    \"localsearch\": {\"dropped\": 0, \"points\": [{\"step\": 0, "
      "\"value\": 2.25, \"aux\": 3}]}\n"
      "  }\n"
      "}";
  const std::string first = render();
  EXPECT_EQ(first, kGolden);
  EXPECT_EQ(first, render());  // and stable across repeated renders
}

TEST(TelemetryTest, PrintTableRendersWithoutCrashing) {
  FakeClock clock(0, 500);
  Telemetry telemetry(&clock);
  ScopedSpan span(&telemetry, "aggregate");
  telemetry.counter("c")->Add(2);
  telemetry.trace("t", 4)->Record(0, 1.5, 1);
  std::ostringstream os;
  telemetry.PrintTable(os);
  EXPECT_NE(os.str().find("aggregate"), std::string::npos);
  EXPECT_NE(os.str().find("c"), std::string::npos);
}

// The instrumentation macros must be safe with a null sink — that is the
// telemetry-disabled fast path at every call-site.
TEST(InstrumentationTest, NullTelemetryIsSafe) {
  TelemetryCount(nullptr, "x");
  TelemetrySetGauge(nullptr, "x", 1);
  TelemetryObserve(nullptr, "x", 1);
  TelemetryTracePoint(nullptr, "x", 0, 0.0, 0);
  InstrumentedSpan span(nullptr, "x");
  InstrumentedTimer timer(nullptr, "x");
  RunContext run;
  EXPECT_EQ(run.telemetry(), nullptr);
}

TEST(InstrumentationTest, RunContextCarriesTelemetryThroughCopies) {
  Telemetry telemetry;
  RunContext run = RunContext().WithTelemetry(&telemetry);
  EXPECT_EQ(run.telemetry(), &telemetry);
  RunContext copy = run;  // copies share the borrowed sink
  EXPECT_EQ(copy.telemetry(), &telemetry);
  TelemetryCount(copy.telemetry(), "via_copy", 5);
  EXPECT_EQ(telemetry.counter("via_copy")->value(), 5u);
}

}  // namespace
}  // namespace clustagg
