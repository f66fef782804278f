// T6 — §4.3.2 statistics database microbenchmarks (google-benchmark).
//
// The paper replaced flat log files with a relational database so that
// queries like "find all forecasts that use code version X" and
// estimation aggregates become cheap. These benchmarks measure the
// engine at two scales: the paper's deployment (one tuple per run-day:
// 100 forecasts x 1 year ~= 36,500 rows) and a fleet-scale table (1,000
// forecasts x 365 days = 365,000 rows) plus an obs-spans-shaped
// telemetry table, the sizes the columnar engine is built for. See
// bench/perf_statsdb.cc for the engine-vs-engine comparison; these track
// absolute end-to-end latencies through the production SQL path.

#include <benchmark/benchmark.h>

#include "logdata/loader.h"
#include "obs/statsdb_bridge.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "statsdb/csv_io.h"
#include "statsdb/database.h"
#include "statsdb/parallel_exec.h"
#include "statsdb/planner.h"
#include "statsdb/sql.h"
#include "util/rng.h"

namespace {

using namespace ff;

std::vector<logdata::LogRecord> MakeRecords(int n_forecasts, int n_days) {
  util::Rng rng(7);
  std::vector<logdata::LogRecord> out;
  out.reserve(static_cast<size_t>(n_forecasts) * n_days);
  for (int f = 0; f < n_forecasts; ++f) {
    for (int d = 1; d <= n_days; ++d) {
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

statsdb::Database* SharedDb() {
  static statsdb::Database* db = [] {
    auto* d = new statsdb::Database();
    auto table = logdata::LoadRuns(d, MakeRecords(100, 365));
    if (!table.ok()) std::abort();
    return d;
  }();
  return db;
}

// Fleet scale: 1,000 forecasts x 365 days.
statsdb::Database* FleetDb() {
  static statsdb::Database* db = [] {
    auto* d = new statsdb::Database();
    auto table = logdata::LoadRuns(d, MakeRecords(1000, 365));
    if (!table.ok()) std::abort();
    return d;
  }();
  return db;
}

// An obs-spans-shaped telemetry table (statsdb_bridge schema), the other
// fleet-scale producer: one task span per machine slot per tick.
statsdb::Database* SpansDb() {
  static statsdb::Database* db = [] {
    auto* d = new statsdb::Database();
    obs::TraceRecorder trace;
    util::Rng rng(11);
    for (int i = 0; i < 200000; ++i) {
      double t0 = i * 0.5;
      auto id = trace.BeginSpan(
          t0, i % 8 == 0 ? obs::SpanCategory::kRun : obs::SpanCategory::kTask,
          "task-" + std::to_string(i % 40),
          "machine-" + std::to_string(i % 64), 0);
      trace.EndSpan(id, t0 + rng.Uniform(0.1, 600.0));
    }
    auto table = obs::LoadSpans(trace, d);
    if (!table.ok()) std::abort();
    return d;
  }();
  return db;
}

// Bulk columnar ingest (Table::BulkAppender): cells land directly in the
// typed column vectors. Arg = forecasts; 1000 is the fleet-scale point
// (365k records per iteration).
void BM_LoadRuns(benchmark::State& state) {
  auto records = MakeRecords(static_cast<int>(state.range(0)), 365);
  for (auto _ : state) {
    statsdb::Database db;
    auto table = logdata::LoadRuns(&db, records);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_LoadRuns)->Arg(10)->Arg(50)->Arg(100)->Arg(1000);

// Row-at-a-time ingest of the same records through Table::Insert, the
// path LoadRuns used before the bulk appender; the gap is the ingest
// speedup bulk columnar append buys.
void BM_LoadRunsRowAtATime(benchmark::State& state) {
  auto records = MakeRecords(static_cast<int>(state.range(0)), 365);
  for (auto _ : state) {
    statsdb::Database db;
    auto table = logdata::LoadRuns(&db, {});
    if (!table.ok()) std::abort();
    for (const auto& r : records) {
      if (!logdata::AppendRun(*table, r).ok()) std::abort();
    }
    benchmark::DoNotOptimize((*table)->num_rows());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_LoadRunsRowAtATime)->Arg(10)->Arg(100);

void BM_PaperQuery_CodeVersion(benchmark::State& state) {
  auto* db = SharedDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT DISTINCT forecast FROM runs WHERE code_version = 'v2'");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_PaperQuery_CodeVersion);

void BM_PaperQuery_EstimationAverage(benchmark::State& state) {
  auto* db = SharedDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT AVG(walltime) AS w FROM runs WHERE forecast = "
        "'forecast-17' AND node = 'f6' AND timesteps = 5760");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_PaperQuery_EstimationAverage);

void BM_GroupByForecast(benchmark::State& state) {
  auto* db = SharedDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT forecast, COUNT(*) AS n, AVG(walltime) AS w FROM runs "
        "GROUP BY forecast");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_GroupByForecast);

void BM_IndexedLookup(benchmark::State& state) {
  auto* db = SharedDb();
  auto table = db->table("runs");
  if (!table.ok()) std::abort();
  for (auto _ : state) {
    auto rows = (*table)->Lookup(
        "forecast", statsdb::Value::String("forecast-42"));
    if (!rows.ok()) std::abort();
    benchmark::DoNotOptimize(rows->size());
  }
}
BENCHMARK(BM_IndexedLookup);

void BM_OrderByLimit(benchmark::State& state) {
  auto* db = SharedDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT day, walltime FROM runs WHERE forecast = 'forecast-3' "
        "ORDER BY day DESC LIMIT 7");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_OrderByLimit);

void BM_InsertRow(benchmark::State& state) {
  statsdb::Database db;
  auto table = logdata::LoadRuns(&db, {});
  if (!table.ok()) std::abort();
  logdata::LogRecord r = MakeRecords(1, 1)[0];
  int64_t day = 0;
  for (auto _ : state) {
    r.day = ++day;
    if (!logdata::AppendRun(*table, r).ok()) std::abort();
  }
}
BENCHMARK(BM_InsertRow);

void BM_CsvExport(benchmark::State& state) {
  statsdb::Database db;
  auto table = logdata::LoadRuns(&db, MakeRecords(10, 365));
  if (!table.ok()) std::abort();
  for (auto _ : state) {
    std::string csv = statsdb::TableToCsv(**table);
    benchmark::DoNotOptimize(csv.size());
  }
}
BENCHMARK(BM_CsvExport);

// ---------------------------------------------------------- fleet scale

void BM_Fleet_CodeVersionScan(benchmark::State& state) {
  auto* db = FleetDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT DISTINCT forecast FROM runs WHERE code_version = 'v2'");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Fleet_CodeVersionScan);

void BM_Fleet_GroupByNode(benchmark::State& state) {
  auto* db = FleetDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT node, COUNT(*) AS n, AVG(walltime) AS w FROM runs "
        "WHERE day BETWEEN 180 AND 210 GROUP BY node");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Fleet_GroupByNode);

void BM_Fleet_TopKWalltime(benchmark::State& state) {
  auto* db = FleetDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT forecast, day, walltime FROM runs "
        "ORDER BY walltime DESC LIMIT 20");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Fleet_TopKWalltime);

void BM_Spans_P95PerTrack(benchmark::State& state) {
  auto* db = SpansDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT track, COUNT(*) AS n, P95(duration_s) AS p95_s "
        "FROM spans WHERE category = 'task' GROUP BY track");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Spans_P95PerTrack);

// ------------------------------------------- morsel-parallel executor
// Arg = worker threads; the 1-thread point is the serial fallback, so
// the curve shows fan-out cost and scaling on one chart. Outputs are
// byte-identical to serial at every point (the executor's contract;
// enforced in tests/property and perf_statsdb, not re-checked here).

void BM_Fleet_GroupByNodeParallel(benchmark::State& state) {
  auto* db = FleetDb();
  size_t threads = static_cast<size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  statsdb::ParallelConfig cfg;
  cfg.max_threads = threads;
  cfg.pool = threads > 1 ? &pool : nullptr;
  cfg.min_chunks = 2;
  auto plan = statsdb::PlanSql(
      "SELECT node, COUNT(*) AS n, AVG(walltime) AS w FROM runs "
      "GROUP BY node");
  if (!plan.ok()) std::abort();
  statsdb::PlanPtr optimized = statsdb::OptimizePlan(*plan, *db);
  for (auto _ : state) {
    auto rs = statsdb::ExecuteParallel(optimized, *db, cfg);
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Fleet_GroupByNodeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Fleet_TopKWalltimeParallel(benchmark::State& state) {
  auto* db = FleetDb();
  size_t threads = static_cast<size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  statsdb::ParallelConfig cfg;
  cfg.max_threads = threads;
  cfg.pool = threads > 1 ? &pool : nullptr;
  cfg.min_chunks = 2;
  auto plan = statsdb::PlanSql(
      "SELECT forecast, day, walltime FROM runs "
      "ORDER BY walltime DESC LIMIT 20");
  if (!plan.ok()) std::abort();
  statsdb::PlanPtr optimized = statsdb::OptimizePlan(*plan, *db);
  for (auto _ : state) {
    auto rs = statsdb::ExecuteParallel(optimized, *db, cfg);
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Fleet_TopKWalltimeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Parallel bulk ingest: record-to-row conversion fans out over slices,
// the BulkAppender drains them in order (loader.h). 365k records.
void BM_LoadRunsParallel(benchmark::State& state) {
  auto records = MakeRecords(1000, 365);
  size_t threads = static_cast<size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  for (auto _ : state) {
    statsdb::Database db;
    auto table =
        logdata::LoadRuns(&db, records, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(table.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_LoadRunsParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Spans_SlowTasks(benchmark::State& state) {
  auto* db = SpansDb();
  for (auto _ : state) {
    auto rs = db->Sql(
        "SELECT name, track, duration_s FROM spans "
        "WHERE category = 'task' AND duration_s > 590.0 "
        "ORDER BY duration_s DESC LIMIT 50");
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs->rows.size());
  }
}
BENCHMARK(BM_Spans_SlowTasks);

}  // namespace

BENCHMARK_MAIN();
