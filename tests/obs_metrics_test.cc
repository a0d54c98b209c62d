// Metrics registry tests: histogram bucketing against hand-computed bounds,
// counter correctness under concurrent increments from many threads (the
// TSan preset runs this under -L obs), registry idempotence, and the two
// exposition formats.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/exposition.h"
#include "src/obs/json.h"

namespace icarus::obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry::Global().ResetAll();
  }
  void TearDown() override { SetEnabled(false); }
};

TEST_F(ObsMetricsTest, BucketBoundsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), std::ldexp(1.0, -20));
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(20), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(21), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(Histogram::kNumBuckets - 1), std::ldexp(1.0, 16));
}

TEST_F(ObsMetricsTest, BucketForMatchesBounds) {
  // A value exactly on a bound belongs to that bucket (le semantics).
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketBound(i)), i) << "bound " << i;
    // Just above a bound spills into the next bucket.
    EXPECT_EQ(Histogram::BucketFor(Histogram::BucketBound(i) * 1.0001),
              i + 1 <= Histogram::kNumBuckets ? i + 1 : Histogram::kNumBuckets)
        << "bound " << i;
  }
  // Zero, negatives, and subnormals all land in the first bucket.
  EXPECT_EQ(Histogram::BucketFor(0.0), 0);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0);
  EXPECT_EQ(Histogram::BucketFor(1e-30), 0);
  // Beyond the last finite bound is the overflow bucket.
  EXPECT_EQ(Histogram::BucketFor(1e9), Histogram::kNumBuckets);
}

TEST_F(ObsMetricsTest, HistogramCumulativeCountsAndSum) {
  Histogram* h = Registry::Global().GetHistogram("test_hist_seconds", "test");
  h->Observe(0.5);   // Bucket 19 (le 0.5).
  h->Observe(0.5);
  h->Observe(3.0);   // Bucket 22 (le 4).
  h->Observe(1e9);   // Overflow.
  EXPECT_EQ(h->Count(), 4);
  EXPECT_NEAR(h->Sum(), 1e9 + 4.0, 1.0);
  EXPECT_EQ(h->CumulativeCount(18), 0);
  EXPECT_EQ(h->CumulativeCount(19), 2);
  EXPECT_EQ(h->CumulativeCount(21), 2);
  EXPECT_EQ(h->CumulativeCount(22), 3);
  EXPECT_EQ(h->CumulativeCount(Histogram::kNumBuckets - 1), 3);
  EXPECT_EQ(h->CumulativeCount(Histogram::kNumBuckets), 4);  // +Inf.
}

TEST_F(ObsMetricsTest, RegistryIsIdempotentByName) {
  Counter* a = Registry::Global().GetCounter("test_idempotent_total", "first help");
  Counter* b = Registry::Global().GetCounter("test_idempotent_total", "second help");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->help(), "first help");  // First registration's help wins.
}

TEST_F(ObsMetricsTest, ConcurrentCountersSumExactly) {
  // 8 threads x 100k increments on one counter plus per-thread histogram
  // observations; the sharded hot path must lose nothing. TSan-clean.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  Counter* c = Registry::Global().GetCounter("test_concurrent_total", "test");
  Histogram* h = Registry::Global().GetHistogram("test_concurrent_hist", "test");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c, h] {
      for (int i = 0; i < kIncrements; ++i) {
        c->Add(1);
        if (i % 1000 == 0) {
          h->Observe(0.001);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(h->Count(), int64_t{kThreads} * (kIncrements / 1000));
}

TEST_F(ObsMetricsTest, GaugeSetAndAdd) {
  Gauge* g = Registry::Global().GetGauge("test_gauge", "test");
  g->Set(42);
  EXPECT_EQ(g->Value(), 42);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 40);
}

TEST_F(ObsMetricsTest, PrometheusExposition) {
  Registry::Global().GetCounter("test_expo_total", "a counter")->Add(7);
  Histogram* h = Registry::Global().GetHistogram("test_expo_seconds", "a histogram");
  h->Observe(0.25);
  std::string text = Registry::Global().RenderPrometheus();
  EXPECT_NE(text.find("# HELP test_expo_total a counter"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE test_expo_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_expo_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_count 1"), std::string::npos);
}

TEST_F(ObsMetricsTest, JsonExportIsWellFormed) {
  Registry::Global().GetCounter("test_json_total", "c")->Add(3);
  Registry::Global().GetHistogram("test_json_hist", "h")->Observe(2.0);
  std::string json = Registry::Global().RenderJson();
  // Structural spot checks (no JSON parser in the test deps): balanced
  // braces, the three sections, and the recorded values.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\":3"), std::string::npos) << json;
}

TEST_F(ObsMetricsTest, DisabledMeansNoRecording) {
  Counter* c = Registry::Global().GetCounter("test_disabled_total", "test");
  SetEnabled(false);
  // The guard is the caller's job: the idiomatic site checks Enabled() before
  // touching the instrument, so a disabled run never reaches Add().
  if (Enabled()) {
    c->Add(1);
  }
  EXPECT_EQ(c->Value(), 0);
}

TEST_F(ObsMetricsTest, JsonWriterEscapesAndFormats) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\nd\x01");
  w.Key("i");
  w.Int(-42);
  w.Key("d");
  w.Double(0.5);
  w.Key("nan");
  w.Double(std::nan(""));
  w.Key("b");
  w.Bool(true);
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"i\":-42,\"d\":0.5,\"nan\":null,\"b\":true}");
}

TEST_F(ObsMetricsTest, ParsePrometheusRoundTripsTheRegistry) {
  Registry::Global().GetCounter("test_parse_total", "requests served")->Add(7);
  Registry::Global().GetGauge("test_parse_gauge", "queue occupancy")->Set(5);
  Histogram* h = Registry::Global().GetHistogram("test_parse_seconds", "latency");
  h->Observe(0.5);
  h->Observe(0.5);
  h->Observe(3.0);
  auto parsed = ParsePrometheus(Registry::Global().RenderPrometheus());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Exposition& exp = parsed.value();

  const ExpositionScalar* counter = exp.FindCounter("test_parse_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 7);
  EXPECT_EQ(counter->help, "requests served");
  const ExpositionScalar* gauge = exp.FindGauge("test_parse_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 5);
  const ExpositionHistogram* hist = exp.FindHistogram("test_parse_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3);
  EXPECT_NEAR(hist->sum, 4.0, 1e-9);
  ASSERT_EQ(hist->cumulative.size(), static_cast<size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(hist->cumulative[Histogram::BucketFor(0.5)], 2);
  EXPECT_EQ(hist->cumulative[Histogram::BucketFor(3.0)], 3);
}

TEST_F(ObsMetricsTest, ParsePrometheusRejectsForeignShapes) {
  // Labels other than le, and le bounds off the shared scheme, are errors —
  // this is an internal exchange format, not a general scraper.
  EXPECT_FALSE(ParsePrometheus("x_total{worker=\"w0\"} 1\n").ok());
  EXPECT_FALSE(ParsePrometheus("x_bucket{le=\"0.123\"} 1\n").ok());
  EXPECT_FALSE(ParsePrometheus("x_total notanumber\n").ok());
}

TEST_F(ObsMetricsTest, ExpositionQuantiles) {
  ExpositionHistogram h;
  h.cumulative.assign(Histogram::kNumBuckets, 0);
  // 8 observations, all inside the (0.5, 1.0] bucket.
  int bucket = Histogram::BucketFor(1.0);
  for (int i = bucket; i < Histogram::kNumBuckets; ++i) {
    h.cumulative[i] = 8;
  }
  h.count = 8;
  // Linear interpolation inside the bucket: p50 is the bucket midpoint.
  EXPECT_NEAR(h.Quantile(0.5), 0.75, 1e-9);
  EXPECT_NEAR(h.Quantile(1.0), 1.0, 1e-9);
  // Empty histogram answers 0, not a division by zero.
  ExpositionHistogram empty;
  empty.cumulative.assign(Histogram::kNumBuckets, 0);
  EXPECT_EQ(empty.Quantile(0.5), 0);
  // All mass in the overflow bucket: the largest finite bound is the honest
  // answer ("at least this much").
  ExpositionHistogram overflow;
  overflow.cumulative.assign(Histogram::kNumBuckets, 0);
  overflow.count = 4;
  EXPECT_DOUBLE_EQ(overflow.Quantile(0.99),
                   Histogram::BucketBound(Histogram::kNumBuckets - 1));
}

}  // namespace
}  // namespace icarus::obs
