// Tests of the benchmark's own helpers: exact-rank and windowed
// percentiles, due-time latency accounting under a generator stall, span
// self time, and that the generated inputs are a pure function of the
// seed.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test      # exit 0 when every check passes

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace ff {
namespace bench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

void TestExactPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(ExactPercentile(v, 0.50) == 50);
  CHECK(ExactPercentile(v, 0.99) == 99);
  CHECK(ExactPercentile(v, 0.995) == 100);
  CHECK(ExactPercentile(v, 1.0) == 100);
  CHECK(ExactPercentile(v, 0.0) == 1);
  CHECK(ExactPercentile({7.5}, 0.99) == 7.5);
  CHECK(ExactPercentile({}, 0.5) == 0);
  // Always a sample that happened: no interpolation between 1 and 3.
  CHECK(ExactPercentile({1, 3}, 0.5) == 1);
  CHECK(ExactPercentile({1, 3}, 0.51) == 3);
  CHECK(Median({5, 1, 4, 2, 3}) == 3);
}

void TestWindowedPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 300; ++i) v.push_back(i);
  // Windows [1..100], [101..200], [201..300]: p99s 99, 199, 299.
  CHECK(WindowedPercentile(v, 100, 0.99) == 199);
  // A whole bad window moves the median of windows to the next one.
  for (int i = 100; i < 200; ++i) v[static_cast<size_t>(i)] += 1e6;
  CHECK(WindowedPercentile(v, 100, 0.99) == 299);
  CHECK(ExactPercentile(v, 0.99) > 1e6);
  // Fewer than two windows: the percentile of everything.
  CHECK(WindowedPercentile({1, 2, 3, 4}, 3, 0.5) == 2);
}

// A clock that only moves when told to: sleeping jumps to the target,
// and each request takes a scripted service time.
struct FakeClock {
  int64_t t = 0;
  int64_t now() const { return t; }
  void sleep_until(int64_t ns) {
    if (ns > t) t = ns;
  }
};

void TestDueTimeLatencyUnderStall() {
  constexpr int64_t kMs = 1'000'000;
  FakeClock clock;
  // Request 3 stalls for 55 ms; every other request takes 1 ms.
  auto samples = RunOpenLoop(0, 10 * kMs, 100 * kMs, clock, [&](size_t i) {
    clock.t += (i == 3 ? 55 : 1) * kMs;
    return true;
  });
  // Open loop: the schedule, not the stall, decides how many were sent.
  CHECK(samples.size() == 10);
  CHECK(samples[2].LatencyMs() == 1.0);
  CHECK(samples[2].LagMs() == 0.0);
  CHECK(samples[3].LatencyMs() == 55.0);
  // Request 4 was due at 40 ms but sent at 85 ms: its latency counts
  // the 45 ms it waited behind the stall, not just its 1 ms service.
  CHECK(samples[4].due_ns == 40 * kMs);
  CHECK(samples[4].LagMs() == 45.0);
  CHECK(samples[4].LatencyMs() == 46.0);
  CHECK(samples[5].LatencyMs() == 37.0);
  CHECK(samples[7].LatencyMs() == 19.0);
  // Caught up again: request 9 leaves on time.
  CHECK(samples[9].LagMs() == 0.0);
  CHECK(samples[9].LatencyMs() == 1.0);
  std::vector<double> lat;
  for (const auto& s : samples) lat.push_back(s.LatencyMs());
  CHECK(ExactPercentile(lat, 0.9) == 46.0);
  CHECK(ExactPercentile(lat, 1.0) == 55.0);
}

void TestSelfTime() {
  std::vector<Span> spans;
  spans.push_back({1, 0, 1, UINT32_MAX, Layer::kBench, "root", 0, 100});
  spans.push_back({2, 1, 1, UINT32_MAX, Layer::kNet, "a", 10, 30});
  spans.push_back({3, 1, 1, UINT32_MAX, Layer::kNet, "b", 20, 50});
  spans.push_back({4, 1, 1, UINT32_MAX, Layer::kStatsdb, "c", 90, 120});
  spans.push_back({5, 2, 1, UINT32_MAX, Layer::kStatsdb, "d", 12, 18});
  const std::vector<int64_t> self = SelfTimeByLayer(spans);
  // Root: 100 minus the union [10,50] and [90,100] (clipped) = 50.
  CHECK(self[static_cast<size_t>(Layer::kBench)] == 50);
  // net: a = 20 - 6 (child d), b = 30.
  CHECK(self[static_cast<size_t>(Layer::kNet)] == 44);
  CHECK(self[static_cast<size_t>(Layer::kStatsdb)] == 30 + 6);
}

void TestTracerCollects() {
  Tracer tracer;
  SetActiveTracer(&tracer);
  {
    ScopedSpan outer(Layer::kBench, "outer", 7);
    ScopedSpan inner(Layer::kNet, "inner", 7);
  }
  SetActiveTracer(nullptr);
  { ScopedSpan off(Layer::kNet, "untraced", 8); }
  const std::vector<Span> spans = tracer.Collect();
  CHECK(spans.size() == 2);
  if (spans.size() == 2) {
    CHECK(spans[1].parent == spans[0].id);
    CHECK(spans[0].parent == 0);
    CHECK(spans[0].request == 7 && spans[1].request == 7);
  }
  // The nesting was unwound: a new span is a root again.
  SetActiveTracer(&tracer);
  { ScopedSpan again(Layer::kNet, "again", 9); }
  SetActiveTracer(nullptr);
  const std::vector<Span> all = tracer.Collect();
  CHECK(all.size() == 3 && all.back().parent == 0);
}

bool SameReads(const std::vector<ReadOp>& a, const std::vector<ReadOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape != b[i].shape || a[i].forecast != b[i].forecast ||
        a[i].day != b[i].day) {
      return false;
    }
  }
  return true;
}

std::string WritesText(const std::vector<WriteOp>& ops) {
  std::string s;
  for (const auto& op : ops) s += op.InsertSql() + ";" + op.UpdateSql() + ";";
  return s;
}

std::string FleetText(const std::vector<ReplicaInput>& in) {
  std::string s;
  for (const auto& r : in) {
    s += std::to_string(r.campaign_seed) + ":";
    for (const auto& f : r.fleet) {
      s += f.name + "/" + std::to_string(f.timesteps) + "/" +
           std::to_string(f.mesh_sides) + "/" + f.code_version + "/" +
           std::to_string(f.deadline) + ";";
    }
  }
  return s;
}

double RowsSum(const std::vector<logdata::LogRecord>& rows) {
  double s = 0;
  for (const auto& r : rows) s += r.walltime * static_cast<double>(r.day);
  return s;
}

void TestInputsArePureFunctionsOfSeed() {
  ServedSpec spec;
  spec.forecasts = 50;
  spec.days = 40;
  CHECK(SameReads(MakeReadOps(spec, 11, 0, 500), MakeReadOps(spec, 11, 0, 500)));
  CHECK(!SameReads(MakeReadOps(spec, 11, 0, 500), MakeReadOps(spec, 12, 0, 500)));
  CHECK(!SameReads(MakeReadOps(spec, 11, 0, 500), MakeReadOps(spec, 11, 1, 500)));
  CHECK(WritesText(MakeWriteOps(spec, 11, 0, 20, 10)) ==
        WritesText(MakeWriteOps(spec, 11, 0, 20, 10)));
  CHECK(WritesText(MakeWriteOps(spec, 11, 0, 20, 10)) !=
        WritesText(MakeWriteOps(spec, 12, 0, 20, 10)));
  CHECK(RowsSum(MakeServedRows(spec, 11)) == RowsSum(MakeServedRows(spec, 11)));
  CHECK(RowsSum(MakeServedRows(spec, 11)) != RowsSum(MakeServedRows(spec, 12)));
  CHECK(FleetText(MakeReplicaInputs(11, 4, 20)) ==
        FleetText(MakeReplicaInputs(11, 4, 20)));
  CHECK(FleetText(MakeReplicaInputs(11, 4, 20)) !=
        FleetText(MakeReplicaInputs(12, 4, 20)));
  // Replica i depends only on (seed, i), not on how many were made.
  const auto four = MakeReplicaInputs(11, 4, 20);
  const auto two = MakeReplicaInputs(11, 2, 20);
  CHECK(FleetText({four[0], four[1]}) == FleetText(two));
  // Writers own disjoint days.
  for (const auto& a : MakeWriteOps(spec, 11, 0, 30, 10)) {
    for (const auto& b : MakeWriteOps(spec, 11, 1, 30, 10)) {
      CHECK(a.day != b.day);
    }
    CHECK(a.day > spec.days);
  }
}

void TestZipfSkew() {
  const ZipfSampler zipf(1000, 1.1);
  util::Rng rng(3);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 20000; ++i) ++hits[zipf.Sample(&rng)];
  CHECK(hits[0] > hits[1] && hits[1] > hits[10] && hits[10] > hits[500]);
}

void TestResultJson() {
  const std::string j =
      ResultJson(true, 10, 0, {{"p50_ms", 1.25, "ms"}, {"setup_s", 2, "s"}});
  CHECK(j ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
        "{\"value\": 2, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace bench
}  // namespace ff

int main() {
  using namespace ff::bench;
  TestExactPercentile();
  TestWindowedPercentile();
  TestDueTimeLatencyUnderStall();
  TestSelfTime();
  TestTracerCollects();
  TestInputsArePureFunctionsOfSeed();
  TestZipfSkew();
  TestResultJson();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
