#include "obs/metrics.h"

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace ff {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndAddWrapModulo64) {
  Counter c;
  c.Increment();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  c.Add(~uint64_t{0});  // +2^64-1 == -1 mod 2^64
  EXPECT_EQ(c.value(), 4u);
}

TEST(HistogramTest, BucketingAndTotals) {
  Histogram h({10.0, 20.0, 30.0});
  for (double x : {5.0, 10.0, 15.0, 25.0, 99.0}) h.Observe(x);
  // Bounds are inclusive upper edges; the 4th bucket is overflow.
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 154.0);
}

TEST(HistogramTest, QuantileInterpolatesInsideBucket) {
  Histogram h({100.0, 200.0});
  for (int i = 0; i < 10; ++i) h.Observe(50.0);   // bucket [0, 100]
  for (int i = 0; i < 10; ++i) h.Observe(150.0);  // bucket (100, 200]
  // rank = q*(n-1)+1; within-bucket linear interpolation.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 105.0);  // rank 10.5 -> 0.05 into b1
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 181.0);  // rank 18.1 -> 0.81 into b1
  EXPECT_DOUBLE_EQ(Histogram({1.0}).Quantile(0.5), 0.0);  // empty
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry m;
  Counter* c = m.counter("a");
  c->Increment();
  EXPECT_EQ(m.counter("a"), c);
  EXPECT_EQ(m.FindCounter("a")->value(), 1u);
  EXPECT_EQ(m.FindCounter("missing"), nullptr);
  m.gauge("g")->Set(2.5);
  EXPECT_DOUBLE_EQ(m.FindGauge("g")->value(), 2.5);
}

TEST(MetricsRegistryTest, SampleAllSnapshotsInNameOrder) {
  MetricsRegistry m;
  m.counter("z.count")->Add(7);
  m.gauge("a.depth")->Set(3.0);
  m.histogram("h", {10.0})->Observe(4.0);
  m.SampleAll(100.0);
  // Deterministic order: counters, gauges, histograms each in name order.
  std::vector<std::string> names;
  for (const auto& s : m.samples()) names.push_back(m.metric_name(s.metric));
  EXPECT_EQ(names, (std::vector<std::string>{"z.count", "a.depth", "h.count",
                                             "h.sum"}));
  for (const auto& s : m.samples()) EXPECT_DOUBLE_EQ(s.time, 100.0);
}

TEST(MetricsRegistryTest, RecordAndSeriesValues) {
  MetricsRegistry m;
  m.Record(1.0, "walltime.tide", 100.0);
  m.Record(2.0, "walltime.tide", 110.0);
  m.Record(2.0, "walltime.other", 55.0);
  EXPECT_EQ(m.SeriesValues("walltime.tide"),
            (std::vector<double>{100.0, 110.0}));
  ASSERT_EQ(m.SeriesSamples("walltime.other").size(), 1u);
  EXPECT_DOUBLE_EQ(m.SeriesSamples("walltime.other")[0].value, 55.0);
  EXPECT_TRUE(m.SeriesValues("missing").empty());
}

TEST(CachedCounterTest, RevalidatesOnEpochChange) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  CachedCounter cache;
  MetricsRegistry m1;
  {
    ScopedObservability scope(nullptr, &m1);
    cache.Get(&m1, "hits")->Increment();
    EXPECT_EQ(cache.Get(&m1, "hits"), m1.FindCounter("hits"));
  }
  EXPECT_EQ(m1.FindCounter("hits")->value(), 1u);
  MetricsRegistry m2;
  {
    // New install epoch: the cache must resolve against m2, not keep the
    // stale m1 pointer (which may even be a reused address in real use).
    ScopedObservability scope(nullptr, &m2);
    cache.Get(&m2, "hits")->Increment();
  }
  EXPECT_EQ(m1.FindCounter("hits")->value(), 1u);
  ASSERT_NE(m2.FindCounter("hits"), nullptr);
  EXPECT_EQ(m2.FindCounter("hits")->value(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace ff
