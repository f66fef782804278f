// EXPLAIN / EXPLAIN ANALYZE: the SQL surface of the runtime profiler.
//
// The fixture builds a runs table big enough to span six column-store
// chunks, loaded day-ascending so every chunk holds exactly one day and
// zone maps can prune day predicates. Goldens are structural: the bare
// EXPLAIN output must match ExplainPlanLines() of the optimized plan
// exactly, and every EXPLAIN ANALYZE line must extend the corresponding
// EXPLAIN line (same operator labels, same tree shape) — wall-clock
// counter values themselves are nondeterministic by construction and are
// checked for presence/consistency, never for exact value.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/planner.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

constexpr size_t kDays = 6;  // one chunk (4096 rows) per day

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Sql("CREATE TABLE runs (forecast TEXT, day INT, "
                        "walltime DOUBLE)")
                    .ok());
    auto table = db_.table("runs");
    ASSERT_TRUE(table.ok());
    Table::BulkAppender app(*table);
    app.Reserve(kDays * 4096);
    for (size_t day = 0; day < kDays; ++day) {
      for (size_t r = 0; r < 4096; ++r) {
        app.String(r % 2 == 0 ? "till" : "dev")
            .Int64(static_cast<int64_t>(day))
            .Double(static_cast<double>(day * 4096 + r));
        ASSERT_TRUE(app.EndRow().ok());
      }
    }
    ASSERT_TRUE(app.Finish().ok());
    // Deterministic engine choice per test: serial (no pool) unless
    // opted in.
    ASSERT_EQ(db_.parallel_config().pool, nullptr);
    // Likewise pin the cache off (FF_STATSDB_CACHE may say otherwise in
    // CI smoke lanes); cache-specific tests opt in explicitly.
    db_.set_cache_config(CacheConfig{});
  }

  void UseFullCache() {
    CacheConfig cfg;
    cfg.mode = CacheConfig::Mode::kFull;
    db_.set_cache_config(cfg);
  }

  void UseParallel() {
    ParallelConfig cfg;
    cfg.pool = &pool_;
    cfg.min_chunks = 2;
    db_.set_parallel_config(cfg);
  }

  ResultSet Run(const std::string& sql) {
    auto rs = db_.Sql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? *rs : ResultSet{};
  }

  static std::vector<std::string> PlanColumn(const ResultSet& rs) {
    std::vector<std::string> lines;
    for (const auto& row : rs.rows) lines.push_back(row[0].string_value());
    return lines;
  }

  parallel::ThreadPool pool_{4};  // outlives db_, whose config names it
  Database db_;
};

// The pushdown + top-k query every EXPLAIN assertion below exercises:
// zone maps prune five of the six chunks (day is chunk-homogeneous).
const char kPrunedTopK[] =
    "SELECT forecast, day, walltime FROM runs WHERE day = 2 "
    "ORDER BY walltime DESC LIMIT 5";

TEST_F(ExplainTest, BareExplainMatchesExplainPlanLines) {
  ResultSet rs = Run(std::string("EXPLAIN ") + kPrunedTopK);
  ASSERT_EQ(rs.schema.num_columns(), 1u);
  EXPECT_EQ(rs.schema.column(0).name, "plan");

  auto plan = PlanSql(kPrunedTopK);
  ASSERT_TRUE(plan.ok());
  PlanPtr optimized = OptimizePlan(*plan, db_);
  EXPECT_EQ(PlanColumn(rs), ExplainPlanLines(*optimized));
}

TEST_F(ExplainTest, AnalyzeSerialExtendsThePlanTree) {
  std::vector<std::string> plan_lines =
      PlanColumn(Run(std::string("EXPLAIN ") + kPrunedTopK));
  std::vector<std::string> analyze =
      PlanColumn(Run(std::string("EXPLAIN ANALYZE ") + kPrunedTopK));

  // Header + one line per plan operator, labels in the same positions.
  ASSERT_EQ(analyze.size(), plan_lines.size() + 1);
  EXPECT_EQ(analyze[0].rfind("engine=serial", 0), 0u);
  for (size_t i = 0; i < plan_lines.size(); ++i) {
    // ANALYZE indents the tree one extra level under the header.
    EXPECT_EQ(analyze[i + 1].rfind("  " + plan_lines[i], 0), 0u)
        << "line " << i + 1 << ": " << analyze[i + 1];
  }

  if constexpr (obs::kProfilingCompiledIn) {
    EXPECT_NE(analyze[0].find("total="), std::string::npos);
    // The scan line reports zone-map pruning: 1 chunk survives day = 2.
    const std::string& scan = analyze.back();
    EXPECT_NE(scan.find("Scan(runs"), std::string::npos);
    EXPECT_NE(scan.find("chunks=1 pruned=5"), std::string::npos) << scan;
    EXPECT_NE(scan.find("time="), std::string::npos);
    // Top 5 of the surviving 4096 rows.
    EXPECT_NE(analyze[1].find("rows=5"), std::string::npos) << analyze[1];
  } else {
    EXPECT_NE(analyze[0].find("profiling compiled out"), std::string::npos);
  }
}

TEST_F(ExplainTest, AnalyzeParallelReportsMorselFanOut) {
  UseParallel();
  // Touch all six chunks so the fan-out is eligible (min_chunks = 2).
  std::vector<std::string> analyze = PlanColumn(
      Run("EXPLAIN ANALYZE SELECT forecast, day, walltime FROM runs "
          "ORDER BY walltime DESC LIMIT 5"));
  ASSERT_FALSE(analyze.empty());
  EXPECT_EQ(analyze[0].rfind("engine=parallel", 0), 0u) << analyze[0];

  std::string joined;
  for (const auto& line : analyze) joined += line + "\n";
  EXPECT_NE(joined.find("Parallel[topk]"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Scan(runs"), std::string::npos) << joined;
  if constexpr (obs::kProfilingCompiledIn) {
    EXPECT_NE(joined.find("morsels="), std::string::npos) << joined;
    EXPECT_NE(joined.find("merge="), std::string::npos) << joined;
    EXPECT_NE(joined.find("max_morsel="), std::string::npos) << joined;
  }
}

TEST_F(ExplainTest, AnalyzeParallelPrunedQueryCountsAllChunks) {
  UseParallel();
  std::vector<std::string> analyze =
      PlanColumn(Run(std::string("EXPLAIN ANALYZE ") + kPrunedTopK));
  ASSERT_FALSE(analyze.empty());
  if constexpr (obs::kProfilingCompiledIn) {
    // Whether or not the pruned survivor set stays below min_chunks (and
    // the engine falls back to serial), the scan must account for every
    // chunk: scanned + pruned = 6.
    std::string joined;
    for (const auto& line : analyze) joined += line + "\n";
    EXPECT_NE(joined.find("chunks=1 pruned=5"), std::string::npos) << joined;
  }
}

TEST_F(ExplainTest, ProfiledExecutionIsByteIdenticalToPlain) {
  // All six chunks survive, so the parallel leg genuinely fans out
  // (the pruned query would fall back to serial under min_chunks).
  const char kAllChunks[] =
      "SELECT forecast, day, walltime FROM runs "
      "ORDER BY walltime DESC LIMIT 5";
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    if (parallel) UseParallel();
    ResultSet plain = Run(kAllChunks);
    auto plan = PlanSql(kAllChunks);
    ASSERT_TRUE(plan.ok());
    obs::QueryProfile profile;
    auto profiled = ExecutePlan(*plan, db_, &profile);
    ASSERT_TRUE(profiled.ok()) << profiled.status();
    EXPECT_EQ(profiled->ToCsv(), plain.ToCsv());
    ASSERT_NE(profile.root, nullptr);
    EXPECT_EQ(profile.engine, parallel ? "parallel" : "serial");
    // The cache-free engine entry point fills the same profile.
    obs::QueryProfile direct;
    PlanPtr optimized = OptimizePlan(*plan, db_);
    auto engine =
        ExecuteColumnar(*optimized, db_, &direct, &db_.parallel_config());
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ(engine->ToCsv(), plain.ToCsv());
    ASSERT_NE(direct.root, nullptr);
    EXPECT_EQ(direct.engine, profile.engine);
    if (obs::kProfilingCompiledIn) {
      EXPECT_GT(profile.total_ns, 0u);
      EXPECT_GT(direct.total_ns, 0u);
    }
  }
}

TEST_F(ExplainTest, AnalyzeBareJoinSidesStaySerial) {
  ASSERT_TRUE(db_.Sql("CREATE TABLE sites (site TEXT, region TEXT)").ok());
  ASSERT_TRUE(db_.Sql("INSERT INTO sites VALUES ('till', 'north'), "
                      "('dev', 'south')")
                  .ok());
  const std::string bare =
      "SELECT region, COUNT(*) AS n, SUM(walltime) AS w FROM runs "
      "JOIN sites ON forecast = site GROUP BY region";
  const std::string filtered =
      "SELECT region, COUNT(*) AS n, SUM(walltime) AS w FROM runs "
      "JOIN sites ON forecast = site WHERE day >= 0 GROUP BY region";
  const std::string serial = Run(bare).ToCsv();
  ASSERT_EQ(Run(filtered).ToCsv(), serial);
  // 12,288 rows per forecast: every other row of six 4096-row days.
  EXPECT_EQ(serial.rfind("region,n,w\nnorth,12288,", 0), 0u) << serial;
  EXPECT_NE(serial.find("\nsouth,12288,"), std::string::npos) << serial;

  UseParallel();
  // Both sides are bare Scans, whose morsels would only slice views:
  // neither fans out, and the rows are the serial engine's.
  std::vector<std::string> analyze =
      PlanColumn(Run("EXPLAIN ANALYZE " + bare));
  std::string joined;
  for (const auto& line : analyze) joined += line + "\n";
  EXPECT_EQ(analyze[0].rfind("engine=serial", 0), 0u) << joined;
  EXPECT_EQ(joined.find("Parallel["), std::string::npos) << joined;
  EXPECT_EQ(Run(bare).ToCsv(), serial);

  // A predicate makes the probe side a chain worth fanning out; the
  // build side stays a bare, serial Scan.
  analyze = PlanColumn(Run("EXPLAIN ANALYZE " + filtered));
  joined.clear();
  for (const auto& line : analyze) joined += line + "\n";
  EXPECT_EQ(analyze[0].rfind("engine=parallel", 0), 0u) << joined;
  const size_t collect = joined.find("Parallel[collect]");
  ASSERT_NE(collect, std::string::npos) << joined;
  EXPECT_EQ(joined.find("Parallel[", collect + 1), std::string::npos)
      << joined;
  EXPECT_EQ(Run(filtered).ToCsv(), serial);
}

TEST_F(ExplainTest, AnalyzeAnnotatesCacheDisposition) {
  // Cache off (fixture default): every run reports a bypass.
  std::vector<std::string> off =
      PlanColumn(Run(std::string("EXPLAIN ANALYZE ") + kPrunedTopK));
  ASSERT_FALSE(off.empty());
  EXPECT_NE(off[0].find("cache=bypass"), std::string::npos) << off[0];

  UseFullCache();
  std::vector<std::string> miss =
      PlanColumn(Run(std::string("EXPLAIN ANALYZE ") + kPrunedTopK));
  ASSERT_FALSE(miss.empty());
  EXPECT_NE(miss[0].find("cache=miss"), std::string::npos) << miss[0];
  EXPECT_EQ(miss.size(), off.size())
      << "a miss executes and renders the full operator tree";

  // The miss above stored the result; the rerun serves it and executes
  // nothing, so the rendered tree collapses to the header line.
  std::vector<std::string> hit =
      PlanColumn(Run(std::string("EXPLAIN ANALYZE ") + kPrunedTopK));
  ASSERT_EQ(hit.size(), 1u) << "a hit must not render operator lines";
  EXPECT_EQ(hit[0].rfind("engine=cache", 0), 0u) << hit[0];
  EXPECT_NE(hit[0].find("cache=hit"), std::string::npos) << hit[0];
}

TEST_F(ExplainTest, CacheHitResultsAreByteIdenticalToTheMiss) {
  UseFullCache();
  ResultSet miss = Run(kPrunedTopK);
  ResultSet hit = Run(kPrunedTopK);
  EXPECT_EQ(miss.ToCsv(), hit.ToCsv());
  EXPECT_GT(db_.cache().Stats().result_hits, 0u);
}

TEST_F(ExplainTest, KeywordsAreCaseInsensitive) {
  ResultSet rs = Run(std::string("explain analyze ") + kPrunedTopK);
  ASSERT_FALSE(rs.rows.empty());
  EXPECT_EQ(rs.rows[0][0].string_value().rfind("engine=", 0), 0u);
}

TEST_F(ExplainTest, OnlySelectCanBeExplained) {
  EXPECT_FALSE(db_.Sql("EXPLAIN").ok());
  EXPECT_FALSE(db_.Sql("EXPLAIN ANALYZE").ok());
  EXPECT_FALSE(
      db_.Sql("EXPLAIN INSERT INTO runs VALUES ('x', 9, 1.0)").ok());
  EXPECT_FALSE(db_.Sql("EXPLAIN ANALYZE DELETE FROM runs WHERE day = 0")
                   .ok());
  EXPECT_FALSE(db_.Sql("EXPLAIN CREATE TABLE t2 (a INT)").ok());
  // ... and EXPLAIN must not have executed anything: the table is intact.
  ResultSet rs = Run("SELECT COUNT(*) AS n FROM runs");
  EXPECT_EQ(rs.rows[0][0].int64_value(),
            static_cast<int64_t>(kDays * 4096));
}

}  // namespace
}  // namespace statsdb
}  // namespace ff
