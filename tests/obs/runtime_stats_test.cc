#include "obs/runtime_stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "parallel/thread_pool.h"

namespace ff {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// RuntimeHistogram

TEST(RuntimeHistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(RuntimeHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(1023), 10u);
  EXPECT_EQ(RuntimeHistogram::BucketIndex(1024), 11u);
  // Values beyond the covered range clamp into the last bucket.
  EXPECT_EQ(RuntimeHistogram::BucketIndex(~0ull),
            RuntimeHistogram::kBuckets - 1);
}

TEST(RuntimeHistogramTest, BucketLowIsInclusiveLowerBound) {
  EXPECT_EQ(RuntimeHistogram::BucketLowNs(0), 0u);
  EXPECT_EQ(RuntimeHistogram::BucketLowNs(1), 1u);
  EXPECT_EQ(RuntimeHistogram::BucketLowNs(2), 2u);
  EXPECT_EQ(RuntimeHistogram::BucketLowNs(3), 4u);
  for (size_t b = 1; b < RuntimeHistogram::kBuckets; ++b) {
    EXPECT_EQ(RuntimeHistogram::BucketIndex(RuntimeHistogram::BucketLowNs(b)),
              b)
        << "bucket " << b;
  }
}

TEST(RuntimeHistogramTest, RecordAndSnapshot) {
  RuntimeHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(1000);
  h.Record(1000);
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_EQ(h.SumNs(), 2001u);
  RuntimeHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum_ns, 2001u);
  EXPECT_DOUBLE_EQ(s.MeanNs(), 2001.0 / 4.0);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[10], 2u);  // 1000 has bit_width 10
}

TEST(RuntimeHistogramTest, QuantilesAreMonotoneAndBracketed) {
  RuntimeHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  RuntimeHistogram::Snapshot s = h.Snap();
  double p50 = s.QuantileNs(0.50);
  double p95 = s.QuantileNs(0.95);
  double p99 = s.QuantileNs(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Log2 buckets: each estimate is right to within a factor of two.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_EQ(RuntimeHistogram::Snapshot{}.QuantileNs(0.5), 0.0);
}

TEST(RuntimeHistogramTest, SinceSubtractsCounters) {
  RuntimeHistogram h;
  h.Record(10);
  h.Record(20);
  RuntimeHistogram::Snapshot before = h.Snap();
  h.Record(30);
  RuntimeHistogram::Snapshot delta = h.Snap().Since(before);
  EXPECT_EQ(delta.count, 1u);
  EXPECT_EQ(delta.sum_ns, 30u);
  EXPECT_EQ(delta.buckets[5], 1u);  // 30 has bit_width 5
}

TEST(RuntimeHistogramTest, MergeFromSumsBuckets) {
  RuntimeHistogram a, b;
  a.Record(10);
  b.Record(10);
  b.Record(1000);
  RuntimeHistogram::Snapshot s = a.Snap();
  s.MergeFrom(b.Snap());
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum_ns, 1020u);
  EXPECT_EQ(s.buckets[4], 2u);
  EXPECT_EQ(s.buckets[10], 1u);
}

// The profiler's core concurrency claim: Record() from many threads at
// once loses no increments and tears no counters. Run under TSan in CI.
TEST(RuntimeHistogramTest, ConcurrentWritersLoseNothing) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  RuntimeHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  RuntimeHistogram::Snapshot s = h.Snap();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// Concurrent snapshots while writers are live must be internally usable
// (no torn vector state, monotone counts) — readers use relaxed loads.
TEST(RuntimeHistogramTest, SnapshotDuringWritesIsMonotone) {
  RuntimeHistogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) h.Record(42);
  });
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    uint64_t now = h.Snap().count;
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// ---------------------------------------------------------------------------
// Pool runtime profile + the steals() shim.

TEST(PoolRuntimeProfileTest, CountsTasksAndMatchesStealsShim) {
  parallel::ThreadPool pool(4);
  std::atomic<uint64_t> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  PoolRuntimeProfile p = pool.RuntimeProfile();
  EXPECT_EQ(ran.load(), 200u);
  EXPECT_EQ(p.num_threads, 4u);
  EXPECT_EQ(p.workers.size(), 4u);
  EXPECT_EQ(p.TotalTasks(), 200u);
  // The legacy accessor is a shim over the same per-worker counters —
  // and stays live even with FF_PROFILING=OFF.
  EXPECT_EQ(pool.steals(), p.TotalSteals());
  if constexpr (kProfilingCompiledIn) {
    EXPECT_GT(p.lifetime_ns, 0u);
    EXPECT_GT(p.TotalRunNs(), 0u);
    EXPECT_EQ(p.MergedTaskNs().count, 200u);
    EXPECT_GT(p.Occupancy(), 0.0);
    EXPECT_LE(p.Occupancy(), 1.0);
  } else {
    EXPECT_EQ(p.TotalRunNs(), 0u);
    EXPECT_EQ(p.MergedTaskNs().count, 0u);
  }
}

TEST(PoolRuntimeProfileTest, SinceWindowsTheCounters) {
  parallel::ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) pool.Submit([] {});
  pool.Wait();
  PoolRuntimeProfile before = pool.RuntimeProfile();
  for (int i = 0; i < 30; ++i) pool.Submit([] {});
  pool.Wait();
  PoolRuntimeProfile window = pool.RuntimeProfile().Since(before);
  EXPECT_EQ(window.num_threads, 2u);
  EXPECT_EQ(window.TotalTasks(), 30u);
  if constexpr (kProfilingCompiledIn) {
    EXPECT_EQ(window.MergedTaskNs().count, 30u);
  }
}

// A park is credited to idle_ns when it ends, and RuntimeProfile()
// adds the running part of an ongoing one, so a window opened while the
// workers are parked counts only the idle time inside the window.
TEST(PoolRuntimeProfileTest, WindowOpenedMidParkCountsOnlyItsOwnIdle) {
  parallel::ThreadPool pool(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  PoolRuntimeProfile before = pool.RuntimeProfile();
  pool.Submit([] {});
  pool.Wait();
  PoolRuntimeProfile window = pool.RuntimeProfile().Since(before);
  EXPECT_EQ(window.TotalTasks(), 1u);
  if constexpr (kProfilingCompiledIn) {
    EXPECT_LE(window.TotalIdleNs(), window.lifetime_ns * window.num_threads)
        << "lifetime_ns=" << window.lifetime_ns;
  }
}

TEST(PoolRuntimeProfileTest, EmptyPoolProfileIsZero) {
  PoolRuntimeProfile p;
  EXPECT_EQ(p.TotalTasks(), 0u);
  EXPECT_EQ(p.TotalSteals(), 0u);
  EXPECT_DOUBLE_EQ(p.Occupancy(), 0.0);
}

// ---------------------------------------------------------------------------
// OperatorProfile / QueryProfile.

TEST(OperatorProfileTest, SelfNsClampsWhenChildrenExceedWall) {
  // Under a parallel unit, child wall_ns is CPU time summed across
  // morsels and can exceed the coordinator's wall clock.
  OperatorProfile op;
  op.wall_ns = 100;
  op.AddChild()->wall_ns = 250;
  EXPECT_EQ(op.SelfNs(), 0u);
  op.wall_ns = 400;
  EXPECT_EQ(op.SelfNs(), 150u);
}

TEST(OperatorProfileTest, MergeFromFoldsMorselProfiles) {
  OperatorProfile merged;
  OperatorProfile m1, m2;
  m1.name = "Scan(runs)";
  m1.is_scan = true;
  m1.rows_out = 10;
  m1.batches = 1;
  m1.wall_ns = 100;
  m1.chunks_scanned = 2;
  m2.name = "Scan(runs)";
  m2.is_scan = true;
  m2.rows_out = 30;
  m2.batches = 2;
  m2.wall_ns = 300;
  m2.chunks_scanned = 3;
  merged.MergeFrom(m1);
  merged.MergeFrom(m2);
  EXPECT_EQ(merged.name, "Scan(runs)");
  EXPECT_TRUE(merged.is_scan);
  EXPECT_EQ(merged.rows_out, 40u);
  EXPECT_EQ(merged.batches, 3u);
  EXPECT_EQ(merged.wall_ns, 400u);
  EXPECT_EQ(merged.chunks_scanned, 5u);
}

TEST(QueryProfileTest, RenderShowsEngineAndTree) {
  QueryProfile prof;
  prof.engine = "parallel";
  prof.total_ns = 1500000;  // 1.5ms
  prof.root = std::make_unique<OperatorProfile>();
  prof.root->name = "Limit(5)";
  prof.root->rows_out = 5;
  prof.root->batches = 1;
  OperatorProfile* scan = prof.root->AddChild();
  scan->name = "Scan(runs)";
  scan->is_scan = true;
  scan->rows_out = 100;
  scan->batches = 1;
  scan->chunks_scanned = 1;
  scan->chunks_pruned = 5;
  std::vector<std::string> lines = prof.RenderLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("engine=parallel"), 0u);
  EXPECT_EQ(lines[1].find("  Limit(5)"), 0u);
  EXPECT_EQ(lines[2].find("    Scan(runs)"), 0u);
  if constexpr (kProfilingCompiledIn) {
    EXPECT_NE(lines[0].find("total=1.500ms"), std::string::npos);
    EXPECT_NE(lines[1].find("rows=5"), std::string::npos);
    EXPECT_NE(lines[2].find("chunks=1 pruned=5"), std::string::npos);
  } else {
    EXPECT_NE(lines[0].find("profiling compiled out"), std::string::npos);
    EXPECT_EQ(lines[2].find("pruned"), std::string::npos);
  }
}

TEST(FormatNsAsMsTest, FixedThreeDecimalMs) {
  EXPECT_EQ(FormatNsAsMs(0), "0.000ms");
  EXPECT_EQ(FormatNsAsMs(1234567), "1.235ms");
  EXPECT_EQ(FormatNsAsMs(2500000000ull), "2500.000ms");
}

TEST(RuntimeClockTest, MonotoneNonDecreasing) {
  int64_t a = RuntimeNowNs();
  int64_t b = RuntimeNowNs();
  EXPECT_GE(b, a);
  if constexpr (!kProfilingCompiledIn) {
    SUCCEED() << "profiling compiled out; clock still required to exist";
  }
}

}  // namespace
}  // namespace obs
}  // namespace ff
