// Columnar statsdb execution vs the row-at-a-time oracle.
//
// The PR's claim: rebuilding execution around column-chunk batches
// (vectorized expressions, zone-map pruning, dictionary-coded strings,
// predicate pushdown, top-k sorts) turns fleet-scale analytics over the
// runs table — 1,000 forecasts x 365 days = 365,000 run-day tuples, two
// orders beyond the paper's 100-forecast deployment — from tens of
// milliseconds per query into fractions of a millisecond. Each case runs
// the SAME logical plan through both engines:
//
//   oracle     — ExecuteRowOracle (tests/oracle), the test-only
//                row-at-a-time engine (materializes whole intermediates,
//                Value-by-Value).
//   columnar   — ExecutePlan: planner pass (pushdown, index selection,
//                top-k) + the vectorized batch executor.
//
// Cases:
//   filter_agg    — selective filter + grouped aggregate over the runs
//                   table (day band + timesteps predicate).
//   string_scan   — string-equality scan served by dictionary compare +
//                   zone-map chunk pruning (rows loaded day-outer, so
//                   code_version is chunk-homogeneous).
//   distinct      — DISTINCT over a low-cardinality string column.
//   topk          — ORDER BY walltime DESC LIMIT 20 (bounded heap vs
//                   full sort).
//   indexed_point — hash-index equality scan + residual conjuncts.
//
// A second section measures the morsel-parallel executor
// (statsdb/parallel_exec.h) on scan-heavy cases: serial vectorized vs
// 4 and 8 worker threads, with three gates —
//   determinism — parallel CSV output must be BYTE-identical to the
//                 serial vectorized engine at 1, 4 and 16 threads;
//   scaling     — >= 3x at 4 threads and >= 5x at 8, armed only on
//                 hosts that actually have that many cores (otherwise
//                 the measurement is recorded and the floor disarmed,
//                 with the host's hardware_concurrency in the JSON);
//   composition — 8 SweepRunner replicas issue parallel queries from
//                 inside pool tasks on ONE shared pool (nested
//                 TaskGroups, no oversubscription) and every replica
//                 must reproduce the expected bytes.
//
// Method: reps are interleaved engine-by-engine (ref, vec, ref, vec, ...)
// so machine-load drift hits both engines equally; each point reports the
// min over kReps reps (the classic "fastest rep is the least-disturbed
// rep" estimator, as in perf_kernel/perf_trace) and each engine's noise
// floor, the spread of its reps as a percentage of its best rep
// (bench::RepTiming::noise_pct, as in perf_trace). Both engines' results
// are rendered to CSV and must match before anything is timed.
//
// Usage: perf_statsdb [--smoke] [json_path]
//   --smoke: 20 forecasts, 2 reps, no speedup floor — a CI liveness run.
// Output: labelled CSV on stdout, BENCH_statsdb.json (default path).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "logdata/loader.h"
#include "obs/profiler.h"
#include "oracle/row_engine.h"
#include "parallel/sweep.h"
#include "parallel/thread_pool.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/parallel_exec.h"
#include "statsdb/plan.h"
#include "statsdb/planner.h"
#include "statsdb/sql.h"
#include "util/rng.h"

namespace ff {
namespace {

using bench::WallMs;

// Fleet-scale runs table, loaded day-outer: all forecasts for day 1, then
// day 2, ... Chunks therefore hold a narrow day range and a single
// code_version (= f(day)), which is exactly how an append-only log of
// daily production runs accretes — and what zone maps reward.
std::vector<logdata::LogRecord> MakeRecords(int n_forecasts, int n_days) {
  util::Rng rng(7);
  std::vector<logdata::LogRecord> out;
  out.reserve(static_cast<size_t>(n_forecasts) * n_days);
  for (int d = 1; d <= n_days; ++d) {
    for (int f = 0; f < n_forecasts; ++f) {
      logdata::LogRecord r;
      r.forecast = "forecast-" + std::to_string(f);
      r.region = "region-" + std::to_string(f % 20);
      r.day = d;
      r.node = "f" + std::to_string(f % 6 + 1);
      r.code_version = "v" + std::to_string(d / 60);
      r.mesh_sides = 5000 + (f % 26) * 1000;
      r.timesteps = f % 2 ? 5760 : 2880;
      r.start_time = d * 86400.0 + 3600.0;
      r.walltime = rng.Uniform(20000.0, 80000.0);
      r.end_time = r.start_time + r.walltime;
      r.status = logdata::RunStatus::kCompleted;
      out.push_back(std::move(r));
    }
  }
  return out;
}

struct Case {
  const char* name;
  const char* sql;
};

struct Point {
  std::string name;
  size_t result_rows = 0;
  double ref_ms = 1e300;  // min over reps, row-at-a-time oracle
  double vec_ms = 1e300;  // min over reps, planner + vectorized executor
  double ref_noise_pct = 0.0;  // rep spread over the best rep, oracle
  double vec_noise_pct = 0.0;  // and vectorized
  double speedup() const { return vec_ms > 0.0 ? ref_ms / vec_ms : 0.0; }
};

}  // namespace
}  // namespace ff

int main(int argc, char** argv) {
  using namespace ff;
  bool smoke = false;
  const char* json_path = "BENCH_statsdb.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const int kForecasts = smoke ? 20 : 1000;
  const int kDays = 365;
  const int kReps = smoke ? 2 : 5;
  const double kFloor = 5.0;  // required min speedup (checked cases only)

  statsdb::Database db;
  {
    auto records = MakeRecords(kForecasts, kDays);
    auto table = logdata::LoadRuns(&db, records);
    if (!table.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   table.status().ToString().c_str());
      return 1;
    }
  }

  const std::vector<Case> cases = {
      // (a) selective filter + aggregate: the day band lives in a few
      // chunks (day-outer load), the rest are zone-pruned; the residual
      // timesteps conjunct and the aggregation run vectorized.
      {"filter_agg",
       "SELECT node, COUNT(*) AS n, AVG(walltime) AS avg_w "
       "FROM runs WHERE day BETWEEN 100 AND 107 AND timesteps = 5760 "
       "GROUP BY node"},
      // (b) string equality served by dictionary compare + zone pruning.
      {"string_scan",
       "SELECT COUNT(*) AS n, AVG(walltime) AS avg_w "
       "FROM runs WHERE code_version = 'v2'"},
      // (c) DISTINCT on a low-cardinality column (dictionary-code dedupe
      // vs hashing materialized rows).
      {"distinct", "SELECT DISTINCT region FROM runs"},
      // Top-k: bounded heap vs full stable sort.
      {"topk",
       "SELECT forecast, day, walltime FROM runs "
       "ORDER BY walltime DESC LIMIT 20"},
      // Hash-index point lookup with residual conjuncts.
      {"indexed_point",
       "SELECT AVG(walltime) AS w FROM runs WHERE forecast = "
       "'forecast-17' AND node = 'f6' AND timesteps = 5760"},
  };
  // Cases the acceptance floor applies to (the PR's headline claims).
  // topk and indexed_point graduated from unchecked when their engines
  // gained result checks against the reference and stable >5x margins.
  const std::vector<std::string> checked = {
      "filter_agg", "string_scan", "distinct", "topk", "indexed_point"};

  std::printf("case,rows,ref_ms,vec_ms,speedup,ref_noise_pct,"
              "vec_noise_pct\n");
  std::vector<Point> points;
  std::string json_rows;
  bool ok = true;
  for (const auto& c : cases) {
    auto plan = statsdb::PlanSql(c.sql);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: parse failed: %s\n", c.name,
                   plan.status().ToString().c_str());
      return 1;
    }
    // Correctness gate: both engines must agree before timing means
    // anything.
    auto ref_rs = statsdb::ExecuteRowOracle(**plan, db);
    auto vec_rs = statsdb::ExecutePlan(*plan, db);
    if (!ref_rs.ok() || !vec_rs.ok() ||
        ref_rs->ToCsv() != vec_rs->ToCsv()) {
      std::fprintf(stderr, "%s: engines disagree\n", c.name);
      return 1;
    }

    Point pt;
    pt.name = c.name;
    pt.result_rows = ref_rs->rows.size();
    auto timings = bench::MeasureInterleaved(
        {[&] {
           return WallMs([&] {
             auto rs = statsdb::ExecuteRowOracle(**plan, db);
             if (!rs.ok()) std::abort();
           });
         },
         [&] {
           return WallMs([&] {
             auto rs = statsdb::ExecutePlan(*plan, db);
             if (!rs.ok()) std::abort();
           });
         }},
        kReps);
    pt.ref_ms = timings[0].wall_ms;
    pt.vec_ms = timings[1].wall_ms;
    pt.ref_noise_pct = timings[0].noise_pct();
    pt.vec_noise_pct = timings[1].noise_pct();
    std::printf("%s,%zu,%.3f,%.3f,%.1f,%.1f,%.1f\n", pt.name.c_str(),
                pt.result_rows, pt.ref_ms, pt.vec_ms, pt.speedup(),
                pt.ref_noise_pct, pt.vec_noise_pct);
    bool is_checked = std::find(checked.begin(), checked.end(), pt.name) !=
                      checked.end();
    if (!smoke && is_checked && pt.speedup() < kFloor) {
      std::fprintf(stderr, "%s: speedup %.1fx below the %.0fx floor\n",
                   pt.name.c_str(), pt.speedup(), kFloor);
      ok = false;
    }
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"case\": \"%s\", \"rows\": %zu, \"ref_ms\": %.3f, "
                  "\"vec_ms\": %.3f, \"speedup\": %.2f, "
                  "\"ref_noise_pct\": %.2f, \"vec_noise_pct\": %.2f, "
                  "\"checked\": %s}",
                  pt.name.c_str(), pt.result_rows, pt.ref_ms, pt.vec_ms,
                  pt.speedup(), pt.ref_noise_pct, pt.vec_noise_pct,
                  is_checked ? "true" : "false");
    if (!json_rows.empty()) json_rows += ",\n";
    json_rows += buf;
    points.push_back(pt);
  }

  // ----- Morsel-parallel executor: scaling, determinism, composition.
  const size_t hw = parallel::ThreadPool::DefaultThreads();
  const double kFloor4 = 3.0;  // min speedup vs serial vectorized at T=4
  const double kFloor8 = 5.0;  // and at T=8 (scan/agg cases only)
  parallel::ThreadPool pool4(4);
  parallel::ThreadPool pool8(8);
  parallel::ThreadPool pool16(16);
  auto par_config = [&](size_t threads,
                        parallel::ThreadPool* pool) {
    statsdb::ParallelConfig cfg;
    cfg.max_threads = threads;
    cfg.pool = pool;
    cfg.min_chunks = 2;  // smoke tables are only 2 chunks
    return cfg;
  };

  // Scan/agg/top-k shapes that touch every chunk — where fan-out has
  // something to scale. (filter_agg prunes to ~8 chunks; too little
  // work per thread to make a scaling claim.)
  const std::vector<Case> par_cases = {
      {"par_group_agg",
       "SELECT node, COUNT(*) AS n, AVG(walltime) AS avg_w, "
       "MIN(walltime) AS lo, MAX(walltime) AS hi "
       "FROM runs GROUP BY node"},
      {"par_filter_sum",
       "SELECT COUNT(*) AS n, SUM(walltime) AS s "
       "FROM runs WHERE timesteps = 5760"},
      {"par_topk",
       "SELECT forecast, day, walltime FROM runs "
       "ORDER BY walltime DESC LIMIT 20"},
  };

  std::printf("case,rows,serial_ms,par4_ms,par8_ms,speedup4,speedup8\n");
  std::string par_json_rows;
  std::vector<std::pair<statsdb::PlanPtr, std::string>> compose_expected;
  for (const auto& c : par_cases) {
    auto plan = statsdb::PlanSql(c.sql);
    if (!plan.ok()) {
      std::fprintf(stderr, "%s: parse failed: %s\n", c.name,
                   plan.status().ToString().c_str());
      return 1;
    }
    statsdb::PlanPtr optimized = statsdb::OptimizePlan(*plan, db);
    auto serial_rs = statsdb::ExecuteColumnar(*optimized, db);
    if (!serial_rs.ok()) {
      std::fprintf(stderr, "%s: serial execution failed: %s\n", c.name,
                   serial_rs.status().ToString().c_str());
      return 1;
    }
    const std::string expected = serial_rs->ToCsv();

    // Determinism gate: byte-identical output at 1, 4 and 16 threads.
    struct Variant {
      size_t threads;
      parallel::ThreadPool* pool;
    };
    for (const Variant& v :
         {Variant{1, nullptr}, Variant{4, &pool4}, Variant{16, &pool16}}) {
      auto rs =
          statsdb::ExecuteParallel(optimized, db, par_config(v.threads,
                                                             v.pool));
      if (!rs.ok() || rs->ToCsv() != expected) {
        std::fprintf(stderr,
                     "%s: parallel output at %zu threads diverges from "
                     "the serial vectorized engine\n",
                     c.name, v.threads);
        return 1;
      }
    }

    auto timings = bench::MeasureInterleaved(
        {[&] {
           return WallMs([&] {
             auto rs = statsdb::ExecuteColumnar(*optimized, db);
             if (!rs.ok()) std::abort();
           });
         },
         [&] {
           return WallMs([&] {
             auto rs = statsdb::ExecuteParallel(optimized, db,
                                                par_config(4, &pool4));
             if (!rs.ok()) std::abort();
           });
         },
         [&] {
           return WallMs([&] {
             auto rs = statsdb::ExecuteParallel(optimized, db,
                                                par_config(8, &pool8));
             if (!rs.ok()) std::abort();
           });
         }},
        kReps);
    double serial_ms = timings[0].wall_ms;
    double par4_ms = timings[1].wall_ms;
    double par8_ms = timings[2].wall_ms;
    double speedup4 = par4_ms > 0.0 ? serial_ms / par4_ms : 0.0;
    double speedup8 = par8_ms > 0.0 ? serial_ms / par8_ms : 0.0;
    std::printf("%s,%zu,%.3f,%.3f,%.3f,%.2f,%.2f\n", c.name,
                serial_rs->rows.size(), serial_ms, par4_ms, par8_ms,
                speedup4, speedup8);
    // The scaling floor only means something on a host with the cores
    // to scale onto; otherwise record the measurement, disarm the gate
    // and leave "hw" in the JSON to say why.
    bool floor4_armed = !smoke && hw >= 4;
    bool floor8_armed = !smoke && hw >= 8;
    if (floor4_armed && speedup4 < kFloor4) {
      std::fprintf(stderr, "%s: %.2fx at 4 threads below the %.0fx floor\n",
                   c.name, speedup4, kFloor4);
      ok = false;
    }
    if (floor8_armed && speedup8 < kFloor8) {
      std::fprintf(stderr, "%s: %.2fx at 8 threads below the %.0fx floor\n",
                   c.name, speedup8, kFloor8);
      ok = false;
    }
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"case\": \"%s\", \"rows\": %zu, \"serial_ms\": %.3f, "
        "\"par4_ms\": %.3f, \"par8_ms\": %.3f, \"speedup4\": %.2f, "
        "\"speedup8\": %.2f, \"floor4_armed\": %s, \"floor8_armed\": %s, "
        "\"deterministic\": true}",
        c.name, serial_rs->rows.size(), serial_ms, par4_ms, par8_ms,
        speedup4, speedup8, floor4_armed ? "true" : "false",
        floor8_armed ? "true" : "false");
    if (!par_json_rows.empty()) par_json_rows += ",\n";
    par_json_rows += buf;
    compose_expected.emplace_back(optimized, expected);
  }

  // Composition gate: replicas of a SweepRunner on a SHARED pool each
  // issue every parallel case from inside a pool task. The query's
  // morsel TaskGroups nest on the same workers (no second pool, no
  // oversubscription) and every replica must see the expected bytes.
  // The db is read-only here and const table access mutates nothing,
  // so the concurrent queries are data-race-free by construction.
  bool compose_ok = true;
  {
    const size_t kComposeReplicas = 8;
    parallel::ThreadPool shared(4);
    parallel::SweepOptions sopt;
    sopt.pool = &shared;
    sopt.record_traces = false;
    sopt.record_metrics = false;
    parallel::SweepRunner runner(sopt);
    std::atomic<int> mismatches{0};
    runner.Run(kComposeReplicas, [&](parallel::ReplicaContext&) {
      for (const auto& [plan, expected] : compose_expected) {
        auto rs =
            statsdb::ExecuteParallel(plan, db, par_config(4, &shared));
        if (!rs.ok() || rs->ToCsv() != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    compose_ok = mismatches.load() == 0;
    if (!compose_ok) {
      std::fprintf(stderr,
                   "sweep composition: %d replica queries diverged\n",
                   mismatches.load());
      ok = false;
    }
    std::printf("# sweep composition (%zu replicas, shared 4-thread "
                "pool): %s\n",
                kComposeReplicas, compose_ok ? "ok" : "FAILED");
  }

  // ----- Self-observation: EXPLAIN ANALYZE smoke + pool runtime lane.
  //
  // The profiled run must return byte-identical rows to the unprofiled
  // one (the profiled iterators are pass-through observers); the
  // annotated tree and the pool's occupancy summary go to stdout and the
  // *_runtime.txt artifact. Wall-clock numbers differ run to run — they
  // never feed a determinism gate.
  const obs::PoolRuntimeProfile pool8_profile = pool8.RuntimeProfile();
  {
    const auto& [topk_plan, topk_expected] = compose_expected.back();
    const statsdb::ParallelConfig saved_cfg = db.parallel_config();
    obs::QueryProfile serial_profile;
    statsdb::ParallelConfig serial_cfg;
    serial_cfg.enabled = false;
    db.set_parallel_config(serial_cfg);
    auto serial_rs = statsdb::ExecutePlan(topk_plan, db, &serial_profile);
    obs::QueryProfile par_profile;
    db.set_parallel_config(par_config(4, &pool4));
    auto par_rs = statsdb::ExecutePlan(topk_plan, db, &par_profile);
    db.set_parallel_config(saved_cfg);
    if (!serial_rs.ok() || serial_rs->ToCsv() != topk_expected ||
        !par_rs.ok() || par_rs->ToCsv() != topk_expected) {
      std::fprintf(stderr,
                   "EXPLAIN ANALYZE: profiled results diverge from the "
                   "unprofiled run\n");
      ok = false;
    }
    std::printf("# EXPLAIN ANALYZE par_topk (serial engine):\n");
    for (const auto& line : serial_profile.RenderLines()) {
      std::printf("#   %s\n", line.c_str());
    }
    std::printf("# EXPLAIN ANALYZE par_topk (parallel engine):\n");
    for (const auto& line : par_profile.RenderLines()) {
      std::printf("#   %s\n", line.c_str());
    }
    const std::string pool_summary = obs::PoolRuntimeSummary(pool8_profile);
    obs::LogRuntimeSummary("perf_statsdb", pool_summary);
    const std::string runtime_path = bench::RuntimeSummaryPath(json_path);
    std::FILE* rf = std::fopen(runtime_path.c_str(), "w");
    if (rf != nullptr) {
      std::fprintf(rf, "== EXPLAIN ANALYZE par_topk (serial) ==\n%s",
                   serial_profile.Render().c_str());
      std::fprintf(rf, "== EXPLAIN ANALYZE par_topk (parallel, 4 threads) "
                       "==\n%s",
                   par_profile.Render().c_str());
      std::fprintf(rf, "== pool8 lifetime ==\n%s", pool_summary.c_str());
      std::fclose(rf);
      std::printf("# wrote %s\n", runtime_path.c_str());
    }
  }

  // ----- Dashboard repeat-path: the two-tier query cache (cache.h).
  //
  // A dashboard reissues the same statistics queries continuously; this
  // section measures that loop through Database::Sql with
  // FF_STATSDB_CACHE-style full caching pinned on:
  //   cold        — empty cache: parse + plan + execute + store.
  //   warm        — repeat statement: served from the result cache.
  //   invalidated — a write touched the table (walltime = walltime, so
  //                 the bytes cannot change): epoch mismatch forces a
  //                 re-execute + re-store.
  // Gates: every cold/warm/invalidated result must be byte-identical to
  // a cache-off run, and warm must beat cold by >= kWarmFloor (armed
  // only outside --smoke; a result-map lookup against a 365k-row scan
  // should not be a photo finish).
  std::string dash_json_rows;
  const double kWarmFloor = 50.0;
  std::string cache_json = "{}";
  {
    statsdb::ParallelConfig dash_serial;
    dash_serial.enabled = false;
    db.set_parallel_config(dash_serial);
    statsdb::CacheConfig cache_off;  // mode kOff
    statsdb::CacheConfig cache_full;
    cache_full.mode = statsdb::CacheConfig::Mode::kFull;

    // The floor is armed on scan-shaped cases, where cold cost scales
    // with the table; dash_indexed_point is recorded disarmed — its
    // cold path is already an O(matches) index probe, so a fixed
    // multiplier over it measures the probe, not the cache.
    struct DashCase {
      const char* name;
      const char* sql;
      bool floor;
    };
    const std::vector<DashCase> dash_cases = {
        {"dash_filter_agg", cases[0].sql, true},
        {"dash_string_scan", cases[1].sql, true},
        {"dash_topk", cases[3].sql, true},
        {"dash_indexed_point", cases[4].sql, false},
    };
    std::printf("case,rows,cold_ms,warm_ms,invalidated_ms,warm_speedup\n");
    for (const auto& c : dash_cases) {
      db.set_cache_config(cache_off);
      auto off_rs = db.Sql(c.sql);
      if (!off_rs.ok()) {
        std::fprintf(stderr, "%s: cache-off run failed: %s\n", c.name,
                     off_rs.status().ToString().c_str());
        return 1;
      }
      const std::string expected = off_rs->ToCsv();

      db.set_cache_config(cache_full);
      double cold_ms = 1e300, warm_ms = 1e300, inv_ms = 1e300;
      bool identical = true;
      for (int r = 0; r < kReps; ++r) {
        db.cache().Clear();
        std::string got;
        cold_ms = std::min(cold_ms, WallMs([&] {
                             auto rs = db.Sql(c.sql);
                             if (!rs.ok()) std::abort();
                             got = rs->ToCsv();
                           }));
        identical = identical && got == expected;
        for (int w = 0; w < kReps; ++w) {
          warm_ms = std::min(warm_ms, WallMs([&] {
                               auto rs = db.Sql(c.sql);
                               if (!rs.ok()) std::abort();
                               got = rs->ToCsv();
                             }));
          identical = identical && got == expected;
        }
        // Self-assignment write: bumps the table epoch, changes no byte.
        if (!db.Sql("UPDATE runs SET walltime = walltime WHERE day = 1")
                 .ok()) {
          std::abort();
        }
        inv_ms = std::min(inv_ms, WallMs([&] {
                            auto rs = db.Sql(c.sql);
                            if (!rs.ok()) std::abort();
                            got = rs->ToCsv();
                          }));
        identical = identical && got == expected;
      }
      if (!identical) {
        std::fprintf(stderr,
                     "%s: cached results diverge from the cache-off run\n",
                     c.name);
        ok = false;
      }
      double warm_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 1e9;
      std::printf("%s,%zu,%.4f,%.4f,%.4f,%.1f\n", c.name,
                  off_rs->rows.size(), cold_ms, warm_ms, inv_ms,
                  warm_speedup);
      bool warm_floor_armed = !smoke && c.floor;
      if (warm_floor_armed && warm_speedup < kWarmFloor) {
        std::fprintf(stderr,
                     "%s: warm hit only %.1fx over cold, below the %.0fx "
                     "floor\n",
                     c.name, warm_speedup, kWarmFloor);
        ok = false;
      }
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"case\": \"%s\", \"rows\": %zu, \"cold_ms\": %.4f, "
          "\"warm_ms\": %.4f, \"invalidated_ms\": %.4f, "
          "\"warm_speedup\": %.1f, \"warm_floor_armed\": %s, "
          "\"identical\": %s}",
          c.name, off_rs->rows.size(), cold_ms, warm_ms, inv_ms,
          warm_speedup, warm_floor_armed ? "true" : "false",
          identical ? "true" : "false");
      if (!dash_json_rows.empty()) dash_json_rows += ",\n";
      dash_json_rows += buf;
    }

    // Counter snapshot for the JSON artifact, via the same exporter an
    // embedder would use (runtime_cache rides the db itself).
    statsdb::QueryCacheStats cs = db.cache().Stats();
    if (!obs::LoadRuntimeCache(cs, &db).ok()) {
      std::fprintf(stderr, "runtime_cache exporter failed\n");
      ok = false;
    }
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"plan_hits\": %llu, \"plan_misses\": %llu, "
        "\"result_hits\": %llu, \"result_misses\": %llu, "
        "\"result_invalidations\": %llu, \"result_bytes\": %llu}",
        static_cast<unsigned long long>(cs.plan_hits),
        static_cast<unsigned long long>(cs.plan_misses),
        static_cast<unsigned long long>(cs.result_hits),
        static_cast<unsigned long long>(cs.result_misses),
        static_cast<unsigned long long>(cs.result_invalidations),
        static_cast<unsigned long long>(cs.result_bytes));
    cache_json = buf;
  }

  std::FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"perf_statsdb\",\n"
               "  \"smoke\": %s,\n"
               "  \"n_forecasts\": %d,\n  \"n_days\": %d,\n"
               "  \"table_rows\": %d,\n  \"reps\": %d,\n"
               "  \"speedup_floor\": %.0f,\n"
               "  \"hw\": %zu,\n"
               "  \"parallel_floor4\": %.0f,\n"
               "  \"parallel_floor8\": %.0f,\n"
               "  \"compose_ok\": %s,\n"
               "  \"runtime\": %s,\n"
               "  \"cache\": %s,\n"
               "  \"results\": [\n%s\n  ],\n"
               "  \"parallel_results\": [\n%s\n  ],\n"
               "  \"dashboard_results\": [\n%s\n  ]\n}\n",
               smoke ? "true" : "false", kForecasts, kDays,
               kForecasts * kDays, kReps, kFloor, hw, kFloor4, kFloor8,
               compose_ok ? "true" : "false",
               bench::RuntimePoolJson(&pool8_profile).c_str(),
               cache_json.c_str(), json_rows.c_str(),
               par_json_rows.c_str(), dash_json_rows.c_str());
  std::fclose(f);
  std::printf("# wrote %s (%d forecasts x %d days%s)\n", json_path,
              kForecasts, kDays, smoke ? ", smoke" : "");
  return ok ? 0 : 2;
}
