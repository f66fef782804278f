// Parallel sweep throughput — wall time for a fleet of independent
// campaign replicas on the work-stealing SweepRunner, serial vs 2/4/8
// workers, plus the byte-determinism gate on every merged artifact.
//
// Workload: each replica is a complete factory campaign (4 nodes, a
// 10-forecast CORIE fleet, 20 noisy days) with full tracing + metrics
// recording — the "run the factory N times tonight" what-if study. The
// sweep fans the replicas across workers; after the barrier the traces,
// metric series and log records are merged deterministically
// (obs/merge.h) and the records bulk-loaded into a statsdb table.
//
// Determinism gate: for every worker count, the merged Chrome-trace
// JSON, the merged metric-samples CSV and the result of a statsdb query
// over the sweep_runs table must be byte-identical to the serial run's.
// A scheduling leak anywhere (completion-order merge, shared RNG,
// worker-dependent seeding) fails the bench, not just a unit test.
//
// Speedup floors (>=3x at 4 workers, >=5x at 8) are enforced only when
// the host actually has that many cores — hardware_concurrency is
// recorded in the JSON so the acceptance evidence names its hardware —
// and never in --smoke mode (CI liveness).
//
// Timing: min over kReps reps, reps interleaved round-robin across the
// worker counts (bench_common.h). Usage: perf_sweep [--smoke] [json_path]
//
// Two lanes explain per-replica cost at each worker count:
//   allocs_per_replica — operator new calls inside the replica function
//     (campaign build, run, records), counted per thread by this binary's
//     replacement of the global operator new; identical at every worker
//     count by construction;
//   replica_inflation — the mean replica wall at this worker count over
//     the serial one (min over reps of each rep's mean); 1.0 means
//     replicas run as fast side by side as alone.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "factory/campaign.h"
#include "obs/chrome_trace.h"
#include "obs/profiler.h"
#include "parallel/sweep.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/sql.h"
#include "util/rng.h"
#include "workload/fleet.h"

namespace {
// Allocations made by the calling thread (replaced operator new below).
thread_local uint64_t t_allocs = 0;
// Summed over the replicas of the sweep in flight.
std::atomic<uint64_t> g_replica_allocs{0};

void* CountedNew(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ff {
namespace {

constexpr int kNumDays = 20;
constexpr int kFleetSize = 20;
// 4h telemetry ticks: the per-replica compute scales with the fleet
// while the merged sample volume scales with the tick rate, so this
// pins the serial merge at a few percent of the sweep (Amdahl).
constexpr double kSamplePeriod = 4.0 * 3600.0;

// One replica = one full campaign, seeded from the replica's private
// stream (worker-count independent by construction).
void RunReplica(parallel::ReplicaContext& ctx) {
  const uint64_t allocs_before = t_allocs;
  factory::CampaignConfig cfg;
  cfg.num_days = kNumDays;
  cfg.metrics_sample_period = kSamplePeriod;
  cfg.seed = ctx.rng.Next();
  factory::Campaign campaign(cfg);
  for (int i = 1; i <= 4; ++i) {
    if (!campaign.AddNode("f" + std::to_string(i)).ok()) std::abort();
  }
  util::Rng fleet_rng(ctx.rng.Next());
  auto fleet = workload::MakeCorieFleet(kFleetSize, &fleet_rng);
  for (int i = 0; i < kFleetSize; ++i) {
    if (!campaign
             .AddForecast(fleet[static_cast<size_t>(i)],
                          "f" + std::to_string(i % 4 + 1))
             .ok()) {
      std::abort();
    }
  }
  auto result = campaign.Run();
  if (!result.ok()) std::abort();
  *ctx.records = std::move(result->records);
  g_replica_allocs.fetch_add(t_allocs - allocs_before,
                             std::memory_order_relaxed);
}

// The three merged artifacts whose bytes must not depend on the worker
// count: Chrome trace JSON, metric samples CSV, and a statsdb query over
// the bulk-loaded sweep_runs table.
struct Artifacts {
  std::string chrome_json;
  std::string metrics_csv;
  std::string query_csv;
};

Artifacts MakeArtifacts(const parallel::SweepOutputs& outputs) {
  Artifacts a;
  a.chrome_json = obs::ChromeTraceJson(*outputs.merged_trace,
                                       outputs.merged_metrics.get());
  std::ostringstream csv;
  obs::WriteMetricSamplesCsv(*outputs.merged_metrics, &csv);
  a.metrics_csv = csv.str();

  statsdb::Database db;
  auto table = parallel::LoadSweepRuns(&db, outputs);
  if (!table.ok()) std::abort();
  auto plan = statsdb::PlanSql(
      "SELECT replica, node, COUNT(*) AS n, AVG(walltime) AS avg_w "
      "FROM sweep_runs WHERE status = 'completed' "
      "GROUP BY replica, node ORDER BY replica, node");
  if (!plan.ok()) std::abort();
  auto rs = statsdb::ExecutePlan(*plan, db);
  if (!rs.ok()) std::abort();
  a.query_csv = rs->ToCsv();
  return a;
}

}  // namespace
}  // namespace ff

int main(int argc, char** argv) {
  using namespace ff;
  bool smoke = false;
  const char* json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const size_t kReplicas = smoke ? 8 : 32;
  const int kReps = smoke ? 2 : 5;
  const std::vector<size_t> kWorkers = {1, 2, 4, 8};
  // Acceptance floors, applied only when the host has >= that many cores.
  const double kFloor4 = 3.0, kFloor8 = 5.0;
  const size_t hw = std::thread::hardware_concurrency();

  // One sweep per worker count per rep; the last rep's outputs feed the
  // determinism gate, so the gate checks exactly what was timed.
  std::vector<Artifacts> artifacts(kWorkers.size());
  std::vector<uint64_t> steals(kWorkers.size(), 0);
  std::vector<obs::SweepRuntimeProfile> runtimes(kWorkers.size());
  std::vector<uint64_t> allocs_per_replica(kWorkers.size(), 0);
  std::vector<double> replica_ms(kWorkers.size(),
                                 std::numeric_limits<double>::infinity());
  std::vector<std::function<double()>> variants;
  for (size_t w = 0; w < kWorkers.size(); ++w) {
    variants.push_back([&, w] {
      parallel::SweepOptions opt;
      opt.num_workers = kWorkers[w];
      opt.base_seed = 4242;
      parallel::SweepRunner runner(opt);
      parallel::SweepOutputs outputs;
      g_replica_allocs.store(0);
      double ms = bench::WallMs(
          [&] { outputs = runner.Run(kReplicas, RunReplica); });
      allocs_per_replica[w] = g_replica_allocs.load() / kReplicas;
      if (!outputs.runtime.replicas.empty()) {
        double sum = 0.0;
        for (const auto& r : outputs.runtime.replicas) sum += r.wall_ms;
        replica_ms[w] = std::min(
            replica_ms[w],
            sum / static_cast<double>(outputs.runtime.replicas.size()));
      }
      steals[w] = outputs.steals;
      // Last rep wins, matching the artifacts the determinism gate sees.
      // The runtime profile is intentionally NOT part of that gate — it
      // is wall-clock and differs every run by construction.
      runtimes[w] = outputs.runtime;
      artifacts[w] = MakeArtifacts(outputs);
      return ms;
    });
  }
  auto timings = bench::MeasureInterleaved(variants, kReps);

  double serial_ms = timings[0].wall_ms;
  bool ok = true;
  std::printf("workers,wall_ms,wall_ms_max,speedup_vs_serial,steals,"
              "deterministic,allocs_per_replica,replica_ms,"
              "replica_inflation\n");
  std::string json_rows;
  for (size_t w = 0; w < kWorkers.size(); ++w) {
    double speedup =
        timings[w].wall_ms > 0.0 ? serial_ms / timings[w].wall_ms : 0.0;
    // 0 when the runtime profiler is compiled out (no replica walls).
    double mean_replica_ms =
        std::isfinite(replica_ms[w]) ? replica_ms[w] : 0.0;
    double inflation = mean_replica_ms > 0.0 && std::isfinite(replica_ms[0])
                           ? mean_replica_ms / replica_ms[0]
                           : 0.0;
    bool deterministic =
        artifacts[w].chrome_json == artifacts[0].chrome_json &&
        artifacts[w].metrics_csv == artifacts[0].metrics_csv &&
        artifacts[w].query_csv == artifacts[0].query_csv;
    if (!deterministic) {
      std::fprintf(stderr,
                   "workers=%zu: merged outputs differ from serial "
                   "(trace %s, metrics %s, query %s)\n",
                   kWorkers[w],
                   artifacts[w].chrome_json == artifacts[0].chrome_json
                       ? "ok" : "DIFF",
                   artifacts[w].metrics_csv == artifacts[0].metrics_csv
                       ? "ok" : "DIFF",
                   artifacts[w].query_csv == artifacts[0].query_csv
                       ? "ok" : "DIFF");
      ok = false;
    }
    bool floor_checked = false;
    double floor = 0.0;
    if (!smoke && hw >= kWorkers[w]) {
      if (kWorkers[w] == 4) floor = kFloor4, floor_checked = true;
      if (kWorkers[w] == 8) floor = kFloor8, floor_checked = true;
    }
    if (floor_checked && speedup < floor) {
      std::fprintf(stderr, "workers=%zu: speedup %.2fx below %.1fx floor\n",
                   kWorkers[w], speedup, floor);
      ok = false;
    }
    std::printf("%zu,%.3f,%.3f,%.2f,%llu,%s,%llu,%.3f,%.2f\n", kWorkers[w],
                timings[w].wall_ms, timings[w].wall_ms_max, speedup,
                static_cast<unsigned long long>(steals[w]),
                deterministic ? "yes" : "NO",
                static_cast<unsigned long long>(allocs_per_replica[w]),
                mean_replica_ms, inflation);
    char buf[448];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"workers\": %zu, \"wall_ms\": %.3f, \"wall_ms_max\": %.3f, "
        "\"speedup_vs_serial\": %.2f, \"steals\": %llu, "
        "\"deterministic\": %s, \"floor\": %.1f, \"floor_checked\": %s, "
        "\"allocs_per_replica\": %llu, \"replica_ms\": %.3f, "
        "\"replica_inflation\": %.2f, \"runtime\": ",
        kWorkers[w], timings[w].wall_ms, timings[w].wall_ms_max, speedup,
        static_cast<unsigned long long>(steals[w]),
        deterministic ? "true" : "false", floor,
        floor_checked ? "true" : "false",
        static_cast<unsigned long long>(allocs_per_replica[w]),
        mean_replica_ms, inflation);
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += buf;
    json_rows += bench::RuntimePoolJson(&runtimes[w].pool);
    json_rows += "}";
  }

  // Plain-text runtime summary artifact (wall-clock lane of the self-
  // observing bench): one section per worker count, also routed through
  // util logging's sink hook so embedders can capture it.
  {
    const std::string runtime_path = bench::RuntimeSummaryPath(json_path);
    std::FILE* rf = std::fopen(runtime_path.c_str(), "w");
    if (rf != nullptr) {
      for (size_t w = 0; w < kWorkers.size(); ++w) {
        std::string summary = obs::SweepRuntimeSummary(runtimes[w]);
        std::fprintf(rf, "== workers=%zu ==\n%s", kWorkers[w],
                     summary.c_str());
        obs::LogRuntimeSummary("perf_sweep", summary);
      }
      std::fclose(rf);
      std::printf("# wrote %s\n", runtime_path.c_str());
    }
  }

  std::FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"perf_sweep\",\n"
               "  \"smoke\": %s,\n"
               "  \"replicas\": %zu,\n"
               "  \"days_per_replica\": %d,\n"
               "  \"reps\": %d,\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"allocs_per_replica\": %llu,\n"
               "  \"results\": [\n%s\n  ]\n}\n",
               smoke ? "true" : "false", kReplicas, kNumDays, kReps, hw,
               static_cast<unsigned long long>(allocs_per_replica[0]),
               json_rows.c_str());
  std::fclose(f);
  std::printf("# wrote %s (%zu replicas, hw=%zu%s)\n", json_path, kReplicas,
              hw, smoke ? ", smoke" : "");
  return ok ? 0 : 1;
}
