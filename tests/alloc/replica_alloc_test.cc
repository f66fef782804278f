// Allocation budget of one what-if replica: a 30-day campaign of a
// 20-forecast CORIE fleet on 4 nodes with trace and metrics recording on,
// the replica the factory benchmark's `sweep` workload runs 32 of per
// decision. The hot path allocates per replica (recorders, result
// records, reserved vectors), not per simulated event, so the count must
// stay near the per-run output rather than grow with events dispatched.
//
// This binary replaces the global operator new to count allocations, so
// it is kept apart from every other test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "factory/campaign.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workload/fleet.h"

namespace {
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ff {
namespace factory {
namespace {

constexpr int kDays = 30;
constexpr int kFleet = 20;
constexpr int kNodes = 4;

// Allocations of one replica as the sweep runs it: fresh recorders, the
// campaign built and run, the records handed back.
uint64_t ReplicaAllocations(uint64_t* events) {
  util::Rng rng(2024);
  auto fleet = workload::MakeCorieFleet(kFleet, &rng);
  const uint64_t before = g_allocs.load();
  {
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    obs::ScopedObservability scope(&trace, &metrics);
    CampaignConfig cfg;
    cfg.num_days = kDays;
    cfg.metrics_sample_period = 4.0 * 3600.0;
    cfg.seed = 11;
    Campaign campaign(cfg);
    for (int i = 0; i < kNodes; ++i) {
      EXPECT_TRUE(campaign.AddNode("f" + std::to_string(i + 1)).ok());
    }
    for (int i = 0; i < kFleet; ++i) {
      EXPECT_TRUE(campaign
                      .AddForecast(fleet[static_cast<size_t>(i)],
                                   "f" + std::to_string(i % kNodes + 1))
                      .ok());
    }
    auto result = campaign.Run();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->records.size(), static_cast<size_t>(kDays * kFleet));
    const obs::Counter* c = metrics.FindCounter("sim.events_dispatched");
    *events = c != nullptr ? c->value() : 0;
  }
  return g_allocs.load() - before;
}

TEST(ReplicaAllocTest, StaysWithinPerReplicaBudget) {
  uint64_t events = 0;
  ReplicaAllocations(&events);  // warm up function-local statics
  const uint64_t allocs = ReplicaAllocations(&events);
  std::printf("replica: %llu allocations, %llu events dispatched\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events));
  // Post-change count plus 25% headroom; a per-event allocation (one per
  // scheduled event, task start or completion) blows through it.
  constexpr uint64_t kBudget = 1283;  // 1,026 measured x 1.25
  EXPECT_LE(allocs, kBudget);
}

}  // namespace
}  // namespace factory
}  // namespace ff
