// The kernel's observable queue behaviour, pinned. The metrics CSV of
// every traced campaign samples `sim.queue_depth` (heap size, tombstones
// included) and `sim.queue_compactions`, so when and how far the heap is
// compacted is part of the output, not an implementation detail. The
// goldens below were taken from the kernel whose handles were
// reference-counted state objects; slot-plus-sequence handles must
// reproduce them exactly. The handle tests pin what `pending()` and
// `Cancel` promise.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "cluster/ps_resource.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ff {
namespace sim {
namespace {

struct QueueSeries {
  std::vector<double> depth;
  std::vector<double> compactions;
  uint64_t events = 0;
};

// Timers cancelled at random beside a processor-sharing resource whose
// every admission and removal cancels its pending completion event;
// sampled every 10 s of virtual time.
QueueSeries RunCancelScenario() {
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(nullptr, &metrics);
  Simulator s;
  cluster::PsResource res(&s, "r", 2.0, 1.0);
  util::Rng rng(20240);
  std::vector<EventHandle> timers;
  for (int i = 1; i <= 300; ++i) {
    timers.push_back(s.ScheduleAt(5.0 * i, [] {}));
  }
  std::vector<cluster::JobId> jobs;
  std::function<void()> tick = [&] {
    for (int k = 0; k < 2; ++k) {
      jobs.push_back(res.Add(rng.Uniform(2.0, 30.0), nullptr));
    }
    if (rng.Bernoulli(0.3)) (void)res.Remove(jobs[rng.Index(jobs.size())]);
    for (int k = 0; k < 8; ++k) {
      (void)s.Cancel(timers[rng.Index(timers.size())]);
    }
    timers.push_back(s.ScheduleAfter(rng.Uniform(0.0, 200.0), [] {}));
    metrics.SampleAll(s.now());
    if (s.now() < 600.0) s.ScheduleAfter(10.0, tick);
  };
  s.ScheduleAt(0.5, tick);
  s.Run();
  return QueueSeries{metrics.SeriesValues("sim.queue_depth"),
                     metrics.SeriesValues("sim.queue_compactions"),
                     s.events_processed()};
}

TEST(QueueGoldenTest, DepthAndCompactionsMatchGoldens) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  // One sample per tick. The one compaction runs during the 25th tick's
  // cancels; the depth gauge is set at dispatch, so the halved heap shows
  // from the 26th sample on.
  const std::vector<double> kDepth = {
      300, 301, 302, 297, 295, 296, 293, 292, 291, 289, 287, 288, 285,
      283, 281, 282, 279, 279, 279, 274, 276, 273, 269, 267, 266, 131,
      131, 130, 125, 127, 129, 125, 124, 124, 121, 122, 117, 115, 116,
      115, 115, 115, 116, 112, 113, 110, 110, 108, 109, 106, 106, 102,
      102, 103, 98, 97, 93, 95, 93, 93, 92};
  std::vector<double> compactions(61, 1.0);
  std::fill(compactions.begin(), compactions.begin() + 24, 0.0);
  QueueSeries got = RunCancelScenario();
  EXPECT_EQ(got.depth, kDepth);
  EXPECT_EQ(got.compactions, compactions);
  EXPECT_EQ(got.events, 329u);
}

TEST(EventHandleTest, PendingUntilFiredOrCancelled) {
  Simulator s;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  int fired = 0;
  EventHandle a = s.ScheduleAt(1.0, [&] { ++fired; });
  EventHandle b = s.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  EXPECT_TRUE(s.Cancel(b));
  EXPECT_FALSE(b.pending());
  EXPECT_FALSE(s.Cancel(b));  // cancelling twice
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(a.pending());  // after fire
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_FALSE(s.Step());  // only b's tombstone was left
  EXPECT_EQ(fired, 1);
}

TEST(EventHandleTest, NotPendingInsideItsOwnCallback) {
  Simulator s;
  EventHandle h;
  bool pending_inside = true;
  h = s.ScheduleAt(1.0, [&] { pending_inside = h.pending(); });
  s.Run();
  EXPECT_FALSE(pending_inside);
}

TEST(EventHandleTest, CopiesNameTheSameEvent) {
  Simulator s;
  bool fired = false;
  EventHandle original = s.ScheduleAt(5.0, [&] { fired = true; });
  EventHandle copy = original;
  EXPECT_TRUE(copy.pending());
  EXPECT_TRUE(s.Cancel(copy));
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(s.Cancel(original));
  s.Run();
  EXPECT_FALSE(fired);
}

TEST(EventHandleTest, StaleHandleIgnoresTheEventReusingItsSlot) {
  Simulator s;
  EventHandle old = s.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(s.Cancel(old));
  // The next event may take the freed slot; the stale handle must neither
  // report it pending nor cancel it.
  bool fired = false;
  EventHandle fresh = s.ScheduleAt(2.0, [&] { fired = true; });
  EXPECT_FALSE(old.pending());
  EXPECT_FALSE(s.Cancel(old));
  EXPECT_TRUE(fresh.pending());
  s.Run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(fresh.pending());
  EXPECT_EQ(s.events_processed(), 1u);
}

}  // namespace
}  // namespace sim
}  // namespace ff
